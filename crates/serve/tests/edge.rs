//! Every rejection at the serving edge, against a live server: one row
//! per coded error the edge emits, checked for the id it echoes, the
//! reject counter it bumps, the latency samples it records and whether
//! the connection survives it, as `docs/PROTOCOL.md`'s error table says.
//!
//! One test in a binary of its own: the reject counters and the latency
//! histogram are process-wide, so a test running beside it would move
//! their deltas.

use ddtr_core::{ExploreRequest, MethodologyConfig};
use ddtr_engine::EngineConfig;
use ddtr_obs::names::{self, Name};
use ddtr_serve::{
    Endpoint, ErrorCode, Event, JobSpec, Request, RequestBody, Server, ServerConfig,
    PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const PROTOCOL_DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// The edge's reject counters (docs/OBSERVABILITY.md).
const REJECT_COUNTERS: [Name; 4] = [
    names::SERVE_REJECT_AUTH,
    names::SERVE_REJECT_RATE,
    names::SERVE_REJECT_OVERSIZE,
    names::SERVE_REJECT_OVERLOAD,
];

/// How long a read may block before the row fails instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Where a row's server listens.
#[derive(Debug, Clone, Copy)]
enum Transport {
    Tcp,
    #[cfg(unix)]
    Unix,
}

/// How a row reaches its rejection.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// The request lines are sent in one write; the rejection answers
    /// the last one.
    Lines,
    /// A second connection while the only slot is held: the connection
    /// gate turns it away before it reads a line.
    Gate(Transport),
}

/// One rejection to provoke.
struct Row {
    what: &'static str,
    cfg: ServerConfig,
    via: Via,
    lines: Vec<Vec<u8>>,
    /// The id the `Error` echoes.
    id: Option<&'static str>,
    /// Which part of the documented connection column applies, for a
    /// code whose column has several.
    part: Option<&'static str>,
    /// Waited out before the follow-up lines.
    pause: Duration,
    /// Sent before the follow-up `Ping` when the connection stays open.
    follow: Vec<Vec<u8>>,
}

impl Row {
    fn new(what: &'static str, lines: Vec<Vec<u8>>, id: Option<&'static str>) -> Self {
        Row {
            what,
            cfg: config(),
            via: Via::Lines,
            lines,
            id,
            part: None,
            pause: Duration::ZERO,
            follow: Vec::new(),
        }
    }
}

fn config() -> ServerConfig {
    ServerConfig::new(EngineConfig::with_jobs(1))
}

fn secured() -> ServerConfig {
    ServerConfig {
        auth_token: Some("sesame".into()),
        ..config()
    }
}

fn line(id: &str, body: RequestBody) -> Vec<u8> {
    serde_json::to_string(&Request::new(id, body))
        .expect("ser")
        .into_bytes()
}

fn ping(id: &str) -> Vec<u8> {
    line(id, RequestBody::Ping)
}

fn hello(id: &str, proto_version: u32, auth: Option<&str>) -> Vec<u8> {
    line(
        id,
        RequestBody::Hello {
            proto_version,
            auth: auth.map(String::from),
            capabilities: Vec::new(),
        },
    )
}

fn run(id: &str, spec: JobSpec) -> Vec<u8> {
    serde_json::to_string(&Request::run(id, spec))
        .expect("ser")
        .into_bytes()
}

fn quick_explore() -> JobSpec {
    JobSpec {
        quick: true,
        ..JobSpec::preset("explore", Some("drr"))
    }
}

/// The reject counter a code bumps and the rows that provoke it. The
/// match is exhaustive: a new code does not compile until it has rows.
fn rows(code: ErrorCode) -> (Option<Name>, Vec<Row>) {
    match code {
        ErrorCode::TooLarge => {
            let huge = format!(r#"{{"id":"big","body":"{}"}}"#, "x".repeat(4096));
            let row = Row {
                cfg: ServerConfig {
                    max_request_bytes: 64,
                    ..config()
                },
                ..Row::new("an oversized line", vec![huge.into_bytes()], None)
            };
            (Some(names::SERVE_REJECT_OVERSIZE), vec![row])
        }
        ErrorCode::Parse => (
            None,
            vec![
                Row::new("a line that is not JSON", vec![b"not json".to_vec()], None),
                Row::new("a line that is not UTF-8", vec![vec![0xff, 0xfe]], None),
            ],
        ),
        ErrorCode::RateLimited => {
            // Two lines a second; every line that gets an answer spends
            // one, whether it parses or not.
            let limited = |what, lines, id| Row {
                cfg: ServerConfig {
                    rate_limit: Some(2),
                    ..config()
                },
                pause: Duration::from_millis(1100),
                ..Row::new(what, lines, id)
            };
            let garbage = || b"not json".to_vec();
            (
                Some(names::SERVE_REJECT_RATE),
                vec![
                    limited(
                        "a third ping within the second",
                        vec![ping("a"), ping("b"), ping("c")],
                        Some("c"),
                    ),
                    limited(
                        "a ping after two unparseable lines",
                        vec![garbage(), garbage(), ping("c")],
                        Some("c"),
                    ),
                    limited(
                        "an unparseable line after two pings",
                        vec![ping("a"), ping("b"), garbage()],
                        None,
                    ),
                ],
            )
        }
        ErrorCode::AuthRequired => (
            Some(names::SERVE_REJECT_AUTH),
            vec![
                Row {
                    cfg: secured(),
                    follow: vec![hello("key", PROTOCOL_VERSION, Some("sesame"))],
                    ..Row::new("a ping before the handshake", vec![ping("p")], Some("p"))
                },
                Row {
                    cfg: secured(),
                    follow: vec![hello("key", PROTOCOL_VERSION, Some("sesame"))],
                    ..Row::new(
                        "a Hello without a token",
                        vec![hello("h", PROTOCOL_VERSION, None)],
                        Some("h"),
                    )
                },
            ],
        ),
        ErrorCode::AuthFailed => (
            Some(names::SERVE_REJECT_AUTH),
            vec![Row {
                cfg: secured(),
                ..Row::new(
                    "a Hello with the wrong token",
                    vec![hello("h", PROTOCOL_VERSION, Some("guess"))],
                    Some("h"),
                )
            }],
        ),
        ErrorCode::UnsupportedProtocol => (
            None,
            vec![Row::new(
                "a Hello at another protocol version",
                vec![hello("h", PROTOCOL_VERSION + 1, None)],
                Some("h"),
            )],
        ),
        ErrorCode::DuplicateId => {
            // A paper-sized matrix stays in flight until it is cancelled.
            let big = JobSpec {
                packets: Some(5000),
                ..JobSpec::preset("scenarios", None)
            };
            let cancel = line(
                "halt",
                RequestBody::Cancel {
                    target: "dup".into(),
                },
            );
            let row = Row {
                follow: vec![cancel],
                ..Row::new(
                    "a Run reusing an in-flight id",
                    vec![run("dup", big), run("dup", quick_explore())],
                    Some("dup"),
                )
            };
            (None, vec![row])
        }
        ErrorCode::UnknownTarget => {
            let cancel = line(
                "c",
                RequestBody::Cancel {
                    target: "ghost".into(),
                },
            );
            (
                None,
                vec![Row::new("a Cancel of no request", vec![cancel], Some("c"))],
            )
        }
        ErrorCode::Overloaded => {
            let inflight = Row {
                cfg: ServerConfig {
                    max_inflight: 0,
                    ..config()
                },
                part: Some("in-flight"),
                ..Row::new(
                    "a Run over the in-flight budget",
                    vec![run("r", quick_explore())],
                    Some("r"),
                )
            };
            let gate = |what, transport| Row {
                cfg: ServerConfig {
                    max_connections: 0,
                    ..config()
                },
                via: Via::Gate(transport),
                part: Some("slots"),
                ..Row::new(what, Vec::new(), None)
            };
            let mut rows = vec![inflight, gate("a second TCP connection", Transport::Tcp)];
            #[cfg(unix)]
            rows.push(gate("a second Unix connection", Transport::Unix));
            (Some(names::SERVE_REJECT_OVERLOAD), rows)
        }
        ErrorCode::BadRequest => (
            None,
            vec![Row::new(
                "a Run of an unknown mode",
                vec![run("b", JobSpec::preset("frobnicate", Some("drr")))],
                Some("b"),
            )],
        ),
        ErrorCode::Internal => {
            // 256 bytes of DRAM pass `validate()` but exhaust the
            // simulated heap in the first profiling insert, which panics
            // inside the worker.
            let mut starved = MethodologyConfig::quick(ddtr_apps::AppKind::Drr);
            starved.mem.dram.capacity_bytes = 256;
            let spec = JobSpec::inline(ExploreRequest::Explore(starved));
            (
                None,
                vec![Row::new(
                    "a Run that panics",
                    vec![run("boom", spec)],
                    Some("boom"),
                )],
            )
        }
    }
}

/// The documented codes with their connection column, in table order.
fn documented_codes() -> Vec<(ErrorCode, &'static str)> {
    let table = PROTOCOL_DOC
        .split("### Error codes")
        .nth(1)
        .expect("PROTOCOL.md has an error-code table");
    table
        .lines()
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            let name = cells[1].trim_matches('`');
            let code = serde_json::from_str(&format!("\"{name}\"")).expect("a known code");
            (code, cells[cells.len() - 2])
        })
        .collect()
}

/// Whether the documented connection column (the `part` of it, when the
/// column has several) says the connection closes.
fn documented_close(column: &str, part: Option<&str>) -> bool {
    let text = match part {
        Some(part) => column
            .split(';')
            .find_map(|s| s.trim().strip_prefix(part)?.strip_prefix(':'))
            .unwrap_or_else(|| panic!("no `{part}` in `{column}`")),
        None => column,
    };
    match (text.contains("closed"), text.contains("stays open")) {
        (true, false) => true,
        (false, true) => false,
        _ => panic!("unclear connection column `{column}`"),
    }
}

/// One raw client connection.
struct Peer {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Peer {
    fn connect(at: &Endpoint) -> Peer {
        let (reader, writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match at {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str()).expect("connect");
                stream
                    .set_read_timeout(Some(READ_TIMEOUT))
                    .expect("timeout");
                (
                    Box::new(stream.try_clone().expect("clone")),
                    Box::new(stream),
                )
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
                stream
                    .set_read_timeout(Some(READ_TIMEOUT))
                    .expect("timeout");
                (
                    Box::new(stream.try_clone().expect("clone")),
                    Box::new(stream),
                )
            }
            other => panic!("no socket at {other}"),
        };
        Peer {
            reader: BufReader::new(reader),
            writer,
        }
    }

    /// Writes `lines` in one write, so the server reads them together.
    fn send(&mut self, lines: &[Vec<u8>]) {
        let mut bytes = Vec::new();
        for l in lines {
            bytes.extend_from_slice(l);
            bytes.push(b'\n');
        }
        self.writer.write_all(&bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    /// Reads events into `events` until `stop` matches one, the server
    /// closes the connection or a read times out (the row's assertions
    /// then fail on the transcript instead of the server never stopping).
    fn read_until(&mut self, events: &mut Vec<Event>, stop: impl Fn(&Event) -> bool) {
        let mut text = String::new();
        loop {
            text.clear();
            if !matches!(self.reader.read_line(&mut text), Ok(n) if n > 0) {
                return;
            }
            let event: Event = serde_json::from_str(text.trim()).expect("an event");
            let done = stop(&event);
            events.push(event);
            if done {
                return;
            }
        }
    }

    fn read_to_end(&mut self, events: &mut Vec<Event>) {
        self.read_until(events, |_| false);
    }
}

/// Reject-counter values and the latency sample count.
fn readings() -> (Vec<u64>, u64) {
    let counters = REJECT_COUNTERS
        .iter()
        .map(|&name| ddtr_obs::counter(name).get())
        .collect();
    let samples = ddtr_obs::histogram(names::SERVE_REQUEST_LATENCY).count();
    (counters, samples)
}

/// Serves `cfg` on a fresh listener and runs `drive` against it; `drive`
/// must leave the server shut down.
fn with_server<T>(
    cfg: ServerConfig,
    transport: Transport,
    drive: impl FnOnce(&Endpoint) -> T,
) -> T {
    let server = Server::with_config(cfg).expect("server");
    // Outlives the server: the thread that takes a `Shutdown` wakes the
    // accept loop by connecting to the socket path after its client has
    // seen `Bye`.
    let dir = ddtr_engine::testing::TempCacheDir::new("edge");
    std::thread::scope(|scope| {
        let server = &server;
        match transport {
            Transport::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                let at = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
                scope.spawn(move || server.serve_tcp(&listener).expect("serve"));
                drive(&at)
            }
            #[cfg(unix)]
            Transport::Unix => {
                let path = dir.join("s.sock");
                let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind");
                scope.spawn(move || server.serve_unix(&listener).expect("serve"));
                drive(&Endpoint::Unix(path))
            }
        }
    })
}

/// Drives one row against a server of its own; returns its transcript
/// and the reject-counter and latency-sample deltas it caused.
fn drive(row: &Row, closes: bool) -> (Vec<Event>, Vec<u64>, u64) {
    let transport = match row.via {
        Via::Lines => Transport::Tcp,
        Via::Gate(transport) => transport,
    };
    let shutdown = line("bye", RequestBody::Shutdown);
    with_server(row.cfg.clone(), transport, |at| {
        let mut events = Vec::new();
        let (counters, samples) = match row.via {
            Via::Gate(_) => {
                // The holder takes the only slot; its greeting proves it.
                let mut holder = Peer::connect(at);
                holder.read_until(&mut Vec::new(), |e| matches!(e, Event::Hello { .. }));
                let before = readings();
                Peer::connect(at).read_to_end(&mut events);
                let after = readings();
                holder.send(&[shutdown]);
                holder.read_to_end(&mut Vec::new());
                (delta(&before.0, &after.0), after.1 - before.1)
            }
            Via::Lines => {
                let before = readings();
                let mut peer = Peer::connect(at);
                let mut lines = row.lines.clone();
                if closes {
                    lines.push(ping("after"));
                }
                peer.send(&lines);
                peer.read_until(&mut events, |e| {
                    e.error_code().is_some() && e.id() == row.id
                });
                if closes {
                    peer.read_to_end(&mut events);
                } else {
                    std::thread::sleep(row.pause);
                    let mut follow = row.follow.clone();
                    follow.extend([ping("after"), shutdown.clone()]);
                    peer.send(&follow);
                    peer.read_to_end(&mut events);
                }
                let after = readings();
                if closes {
                    // The connection is gone; stop the server on another.
                    let mut stop = Peer::connect(at);
                    stop.send(&[hello("key", PROTOCOL_VERSION, Some("sesame")), shutdown]);
                    stop.read_to_end(&mut Vec::new());
                }
                (delta(&before.0, &after.0), after.1 - before.1)
            }
        };
        (events, counters, samples)
    })
}

fn delta(before: &[u64], after: &[u64]) -> Vec<u64> {
    before.iter().zip(after).map(|(b, a)| a - b).collect()
}

#[test]
fn every_rejection_at_the_edge_is_coded_counted_and_sampled() {
    let documented = documented_codes();
    assert!(!documented.is_empty(), "PROTOCOL.md lists the codes");
    for (code, column) in documented {
        let (counter, rows) = rows(code);
        assert!(!rows.is_empty(), "{code} has a row");
        for row in rows {
            let what = format!("{code}, {}", row.what);
            let closes = documented_close(column, row.part);
            let (events, counters, samples) = drive(&row, closes);
            let at = events
                .iter()
                .position(|e| e.error_code().is_some() && e.id() == row.id)
                .unwrap_or_else(|| panic!("{what}: no error for {:?}: {events:?}", row.id));
            assert_eq!(events[at].error_code(), Some(code), "{what}: {events:?}");
            let expected: Vec<u64> = REJECT_COUNTERS
                .iter()
                .map(|&name| u64::from(Some(name) == counter))
                .collect();
            assert_eq!(counters, expected, "{what}: reject counters moved");
            // One sample per answered line, rejected or not.
            let sampled = match row.via {
                Via::Lines => events.iter().filter(|e| e.is_terminal()).count(),
                // A turned-away connection sends no request line.
                Via::Gate(_) => 0,
            };
            assert_eq!(
                samples, sampled as u64,
                "{what}: latency samples {events:?}"
            );
            let answered = events
                .iter()
                .any(|e| matches!(e, Event::Pong { id } if id == "after"));
            if closes {
                assert!(!answered, "{what}: the connection must close: {events:?}");
                assert!(
                    matches!(&events[at + 1..], [Event::Bye]),
                    "{what}: `Bye` ends the connection: {events:?}"
                );
            } else {
                assert!(answered, "{what}: the connection stays open: {events:?}");
                assert!(matches!(events.last(), Some(Event::Bye)), "{what}");
            }
        }
    }
}
