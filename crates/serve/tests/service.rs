//! End-to-end tests of the `ddtr serve` service: protocol round trips
//! through a live server, determinism against the direct entry points,
//! warm-cache answering across client connections, malformed-input
//! handling, and cancellation.

use ddtr_core::{dispatch, ExploreRequest, ExploreResult, MemoryPreset, MethodologyConfig};
use ddtr_engine::EngineConfig;
use ddtr_serve::{
    Client, ClientError, Endpoint, ErrorCode, Event, JobSpec, Request, RequestBody, Server,
    ServerConfig, PROTOCOL_VERSION,
};
use std::io::Write;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

/// A `Write` sink shareable with the server's writer threads.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 output")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one in-process serve session over the given request lines and
/// returns the emitted events in order.
fn serve_script(jobs: usize, lines: &[String]) -> Vec<Event> {
    serve_script_with(EngineConfig::with_jobs(jobs), lines)
}

/// Like [`serve_script`], but with full control over the engine
/// configuration — used by the shared-store tests to point two separate
/// server processes at one cache directory.
fn serve_script_with(cfg: EngineConfig, lines: &[String]) -> Vec<Event> {
    let server = Server::new(cfg).expect("server");
    serve_server_script(&server, lines)
}

/// Runs the given request lines through an already-built server (fleet
/// or hardened configurations included) and returns the emitted events.
fn serve_server_script(server: &Server, lines: &[String]) -> Vec<Event> {
    let input = lines.join("\n");
    let output = SharedBuf::default();
    server.serve_connection(input.as_bytes(), output.clone());
    output
        .contents()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("parseable event"))
        .collect()
}

fn hello_line(id: &str, auth: Option<&str>) -> String {
    serde_json::to_string(&Request::new(
        id,
        RequestBody::Hello {
            proto_version: PROTOCOL_VERSION,
            auth: auth.map(String::from),
            capabilities: Vec::new(),
        },
    ))
    .expect("ser")
}

fn ping_line(id: &str) -> String {
    serde_json::to_string(&Request::new(id, RequestBody::Ping)).expect("ser")
}

fn run_line(id: &str, spec: &JobSpec) -> String {
    serde_json::to_string(&Request::run(id, spec.clone())).expect("ser")
}

fn quick_explore_spec() -> JobSpec {
    JobSpec {
        quick: true,
        ..JobSpec::preset("explore", Some("drr"))
    }
}

fn quick_scenarios_spec() -> JobSpec {
    JobSpec {
        quick: true,
        packets: Some(40),
        ..JobSpec::preset("scenarios", Some("drr"))
    }
}

fn quick_sweep_spec() -> JobSpec {
    JobSpec {
        quick: true,
        packets: Some(40),
        mem: Some(vec!["embedded".into(), "l2".into()]),
        scenarios: Some(vec!["baseline".into(), "flash-crowd".into()]),
        ..JobSpec::preset("sweep", Some("drr"))
    }
}

/// The deterministic core of a terminal event: the Pareto front the
/// result carries, serialised (counters like `executed` legitimately
/// depend on cache warmth and are excluded).
fn front_of(event: &Event) -> String {
    let Event::Result { result, .. } = event else {
        panic!("expected a result event, got {event:?}");
    };
    match result.as_ref() {
        ExploreResult::Explore(outcome) => {
            serde_json::to_string(&outcome.pareto.global_front).expect("ser")
        }
        ExploreResult::Scenarios(matrix) => serde_json::to_string(&matrix.cells).expect("ser"),
        other => serde_json::to_string(&other.front_labels()).expect("ser"),
    }
}

fn terminal_for<'e>(events: &'e [Event], id: &str) -> &'e Event {
    events
        .iter()
        .find(|e| e.is_terminal() && e.id() == Some(id))
        .unwrap_or_else(|| panic!("no terminal event for `{id}` in {events:?}"))
}

#[test]
fn serve_matches_the_cli_entry_points_at_any_jobs_count() {
    let script = vec![
        run_line("explore", &quick_explore_spec()),
        run_line("matrix", &quick_scenarios_spec()),
    ];
    // The same requests through the direct (CLI) entry points.
    let direct_explore =
        dispatch(&quick_explore_spec().resolve().expect("resolves")).expect("direct explore");
    let direct_matrix =
        dispatch(&quick_scenarios_spec().resolve().expect("resolves")).expect("direct matrix");
    let ExploreResult::Explore(direct_explore) = direct_explore else {
        panic!("wrong mode");
    };
    let ExploreResult::Scenarios(direct_matrix) = direct_matrix else {
        panic!("wrong mode");
    };
    let reference_explore =
        serde_json::to_string(&direct_explore.pareto.global_front).expect("ser");
    let reference_matrix = serde_json::to_string(&direct_matrix.cells).expect("ser");
    for jobs in [1, 4] {
        let events = serve_script(jobs, &script);
        assert!(
            matches!(events.first(), Some(Event::Hello { .. })),
            "jobs={jobs}: connection opens with Hello"
        );
        assert!(
            matches!(events.last(), Some(Event::Bye)),
            "jobs={jobs}: connection ends with Bye"
        );
        assert_eq!(
            front_of(terminal_for(&events, "explore")),
            reference_explore,
            "jobs={jobs}: served explore front is byte-identical to the CLI's"
        );
        assert_eq!(
            front_of(terminal_for(&events, "matrix")),
            reference_matrix,
            "jobs={jobs}: served scenario matrix is byte-identical to the CLI's"
        );
        // Progress streamed while the requests ran.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Running { id, .. } if id == "explore")),
            "jobs={jobs}: running events were streamed"
        );
        // Both requests were accepted before finishing.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Queued { id } if id == "matrix")));
    }
}

#[test]
fn second_client_is_answered_from_cache_with_zero_simulations() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    let server = Server::new(EngineConfig::with_jobs(2)).expect("server");
    // Only protocol interaction happens inside the scope (a panic there
    // would leave the server running and hang the join); all assertions
    // run on the collected replies afterwards.
    let (reply_a, reply_b, stats_reply) = std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.serve_tcp(&listener).expect("serve"));

        // Client A pays for the exploration.
        let mut a = Client::connect(&endpoint).expect("connect A");
        let reply_a = a
            .call(&Request::run("warmup", quick_explore_spec()), |_| {})
            .expect("call A");
        drop(a);

        // Client B, a separate connection, asks the same question.
        let mut b = Client::connect(&endpoint).expect("connect B");
        let reply_b = b
            .call(&Request::run("replay", quick_explore_spec()), |_| {})
            .expect("call B");
        let stats_reply = b
            .call(&Request::new("s", RequestBody::Stats), |_| {})
            .expect("stats");
        b.send(&Request::new("bye", RequestBody::Shutdown))
            .expect("shutdown");
        (reply_a, reply_b, stats_reply)
    });
    assert!(server.shutdown_requested());
    let Event::Result {
        executed: executed_a,
        ..
    } = &reply_a
    else {
        panic!("client A expected a result, got {reply_a:?}");
    };
    assert!(*executed_a > 0, "cold request must execute simulations");
    let Event::Result {
        executed,
        cache_hits,
        ..
    } = &reply_b
    else {
        panic!("client B expected a result, got {reply_b:?}");
    };
    // The session-shared cache answers the second client without
    // executing anything.
    assert_eq!(*executed, 0, "warm request must execute 0 simulations");
    assert!(*cache_hits > 0, "warm request answers from the cache");
    assert_eq!(
        front_of(&reply_a),
        front_of(&reply_b),
        "cold and warm answers carry byte-identical fronts"
    );
    let Event::Stats { stats, .. } = &stats_reply else {
        panic!("expected stats, got {stats_reply:?}");
    };
    // Session-wide hits cover both clients (the pipeline re-hits its own
    // step-1 entries during step 2, so the total exceeds B's share).
    assert!(stats.hits >= *cache_hits);
    assert_eq!(stats.entries, stats.misses, "every execution was retained");
}

#[test]
fn second_server_on_a_shared_store_directory_answers_warm() {
    // Two *separate server processes* — not two clients of one session —
    // pointed at the same persistent store directory. The first pays for
    // the simulations and publishes them on shutdown; the second answers
    // the identical request entirely from the on-disk store.
    let tmp = ddtr_engine::testing::TempCacheDir::new("serve-shared");
    let cfg = EngineConfig {
        jobs: 2,
        cache_dir: Some(tmp.path().to_path_buf()),
        no_cache: false,
    };
    let script = vec![run_line("job", &quick_explore_spec())];

    let cold_events = serve_script_with(cfg.clone(), &script);
    let cold = terminal_for(&cold_events, "job");
    let Event::Result { executed, .. } = cold else {
        panic!("cold server expected a result, got {cold:?}");
    };
    assert!(*executed > 0, "cold server must execute simulations");

    let warm_events = serve_script_with(cfg, &script);
    let warm = terminal_for(&warm_events, "job");
    let Event::Result {
        executed,
        cache_hits,
        ..
    } = warm
    else {
        panic!("warm server expected a result, got {warm:?}");
    };
    assert_eq!(*executed, 0, "warm server must execute 0 simulations");
    assert!(*cache_hits > 0, "warm server answers from the shared store");
    assert_eq!(
        front_of(cold),
        front_of(warm),
        "both servers produce byte-identical fronts"
    );
}

#[test]
fn sweep_requests_stream_cells_and_repeat_from_cache() {
    // Two identical sweeps, the second sent only after the first's
    // terminal event (a blocking client round trip — concurrent identical
    // requests would legitimately race each other's cache fills): the
    // first streams one Cell event per platform cell and pays for the
    // simulations, the second answers entirely from the session cache.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    let server = Server::new(EngineConfig::with_jobs(2)).expect("server");
    let (events, reply_cold, reply_warm) = std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.serve_tcp(&listener).expect("serve"));
        let mut client = Client::connect(&endpoint).expect("connect");
        let mut events: Vec<Event> = Vec::new();
        let reply_cold = client
            .call(&Request::run("cold", quick_sweep_spec()), |e| {
                events.push(e.clone());
            })
            .expect("cold call");
        let reply_warm = client
            .call(&Request::run("warm", quick_sweep_spec()), |e| {
                events.push(e.clone());
            })
            .expect("warm call");
        client
            .send(&Request::new("bye", RequestBody::Shutdown))
            .expect("shutdown");
        (events, reply_cold, reply_warm)
    });
    let cells: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::Cell { id, .. } if id == "cold"))
        .collect();
    assert_eq!(
        cells.len(),
        4,
        "1 app x 2 scenarios x 2 platforms: {events:?}"
    );
    for (i, event) in cells.iter().enumerate() {
        let Event::Cell {
            done, total, front, ..
        } = event
        else {
            unreachable!()
        };
        assert_eq!((*done, *total), (i + 1, 4), "cells stream in order");
        assert!(!front.is_empty(), "every cell carries its front");
        assert!(!event.is_terminal(), "cells are progress, not terminals");
    }
    // Both platforms of the axis appear among the streamed cells.
    for preset in [MemoryPreset::Embedded, MemoryPreset::L2] {
        assert!(
            cells
                .iter()
                .any(|e| matches!(e, Event::Cell { mem, .. } if *mem == preset)),
            "platform {preset} streamed: {events:?}"
        );
    }
    // The aggregated result matches a direct dispatch byte-for-byte.
    let direct = dispatch(&quick_sweep_spec().resolve().expect("resolves")).expect("direct");
    let ExploreResult::Sweep(direct) = direct else {
        panic!("wrong mode");
    };
    let Event::Result {
        executed, result, ..
    } = &reply_cold
    else {
        panic!("cold sweep must succeed: {reply_cold:?}");
    };
    assert!(*executed > 0, "cold sweep simulates");
    let ExploreResult::Sweep(served) = result.as_ref() else {
        panic!("wrong result mode");
    };
    assert_eq!(
        serde_json::to_string(&served.cells).expect("ser"),
        serde_json::to_string(&direct.cells).expect("ser"),
        "served sweep cells are byte-identical to the direct entry point"
    );
    assert_eq!(
        serde_json::to_string(&served.survivors).expect("ser"),
        serde_json::to_string(&direct.survivors).expect("ser"),
    );
    // The repeat reports executed=0 — the acceptance criterion of the
    // whole axis: sweep cells are individually reusable.
    let Event::Result {
        executed,
        cache_hits,
        ..
    } = &reply_warm
    else {
        panic!("warm sweep must succeed: {reply_warm:?}");
    };
    assert_eq!(*executed, 0, "repeated sweep executes nothing");
    assert_eq!(*cache_hits, 400, "4 cells x 100 combinations replay");
}

#[test]
fn unknown_memory_presets_get_structured_errors_across_the_protocol() {
    // A bad preset name must come back as an Error event listing the
    // catalog — never a panic, never a dropped connection.
    let bad = JobSpec {
        mem: Some(vec!["quantum".into()]),
        ..quick_sweep_spec()
    };
    let script = vec![
        run_line("bad-mem", &bad),
        serde_json::to_string(&Request::new("alive", RequestBody::Ping)).expect("ser"),
    ];
    let events = serve_script(1, &script);
    let Event::Error {
        id: Some(id),
        error,
        ..
    } = terminal_for(&events, "bad-mem")
    else {
        panic!("bad preset must answer with an error: {events:?}");
    };
    assert_eq!(id, "bad-mem");
    assert!(error.contains("quantum"), "{error}");
    for preset in MemoryPreset::ALL {
        assert!(error.contains(preset.name()), "{error} misses {preset}");
    }
    assert!(
        matches!(terminal_for(&events, "alive"), Event::Pong { .. }),
        "the connection stays usable after the rejection"
    );
}

#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let script = vec![
        "this is not json".to_string(),
        r#"{"id": 42}"#.to_string(),
        run_line("bad-spec", &JobSpec::preset("frobnicate", Some("drr"))),
        serde_json::to_string(&Request::new("alive", RequestBody::Ping)).expect("ser"),
    ];
    let events = serve_script(1, &script);
    let unparseable: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::Error { id: None, .. }))
        .collect();
    assert_eq!(
        unparseable.len(),
        2,
        "both unparseable lines get structured null-id errors: {events:?}"
    );
    let Event::Error {
        id: Some(id),
        error,
        ..
    } = terminal_for(&events, "bad-spec")
    else {
        panic!("bad spec must answer with an error");
    };
    assert_eq!(id, "bad-spec");
    assert!(error.contains("frobnicate"), "{error}");
    assert!(
        matches!(terminal_for(&events, "alive"), Event::Pong { .. }),
        "the connection stays usable after errors"
    );
    assert!(matches!(events.last(), Some(Event::Bye)));
}

#[test]
fn cancel_aborts_a_large_request() {
    // A paper-sized matrix (2500 units) that a cancel lands in long
    // before completion.
    let big = JobSpec {
        packets: Some(5000),
        ..JobSpec::preset("scenarios", None)
    };
    let script = vec![
        run_line("big", &big),
        serde_json::to_string(&Request::new(
            "halt",
            RequestBody::Cancel {
                target: "big".into(),
            },
        ))
        .expect("ser"),
        serde_json::to_string(&Request::new(
            "nope",
            RequestBody::Cancel {
                target: "ghost".into(),
            },
        ))
        .expect("ser"),
    ];
    let events = serve_script(2, &script);
    // The cancel raced the run; either it landed (Cancelled) or the run
    // finished first (Result) — but never both, and the registry answers
    // the unknown target with an error either way.
    let terminals: Vec<&Event> = events
        .iter()
        .filter(|e| e.is_terminal() && e.id() == Some("big"))
        .collect();
    assert_eq!(terminals.len(), 1, "exactly one terminal event: {events:?}");
    assert!(
        matches!(terminals[0], Event::Cancelled { .. }),
        "cancel must land long before a 2500-unit matrix completes: {:?}",
        terminals[0]
    );
    let Event::Error {
        id: Some(id),
        error,
        ..
    } = terminal_for(&events, "nope")
    else {
        panic!("unknown cancel target must answer with an error");
    };
    assert_eq!(id, "nope");
    assert!(error.contains("ghost"), "{error}");
}

/// A writer that dies after a few lines — a client whose socket closed.
#[derive(Clone)]
struct DyingWriter {
    inner: SharedBuf,
    remaining: Arc<Mutex<usize>>,
}

impl Write for DyingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut remaining = self.remaining.lock().unwrap();
        if *remaining == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "peer gone",
            ));
        }
        *remaining -= 1;
        drop(remaining);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_vanished_client_cancels_its_abandoned_work() {
    // A paper-sized matrix (2500 units, 5000 packets each) whose client
    // stops accepting events right after Queued: the progress observer
    // must notice the dead peer and cancel instead of simulating the
    // whole matrix for nobody.
    let server = Server::new(EngineConfig::with_jobs(2)).expect("server");
    let big = JobSpec {
        packets: Some(5000),
        ..JobSpec::preset("scenarios", None)
    };
    let output = SharedBuf::default();
    let writer = DyingWriter {
        inner: output.clone(),
        // Enough for Hello + Queued + a couple of Running lines.
        remaining: Arc::new(Mutex::new(4)),
    };
    let input = run_line("orphan", &big);
    server.serve_connection(input.as_bytes(), writer);
    // serve_connection returning at all (instead of grinding through
    // 2500 × 5000-packet simulations) is the point; double-check almost
    // nothing executed.
    let stats = server.session().stats();
    assert!(
        stats.misses < 250,
        "abandoned request must stop early, executed {}",
        stats.misses
    );
    assert!(
        output.contents().contains("Queued"),
        "the request was accepted before the peer vanished"
    );
}

#[test]
fn duplicate_inflight_ids_are_rejected() {
    // Two Runs under one id racing: the second must be refused while the
    // first is still in flight, keeping the registry unambiguous.
    let big = JobSpec {
        packets: Some(5000),
        ..JobSpec::preset("scenarios", None)
    };
    let script = vec![
        run_line("dup", &big),
        run_line("dup", &quick_explore_spec()),
        serde_json::to_string(&Request::new(
            "halt",
            RequestBody::Cancel {
                target: "dup".into(),
            },
        ))
        .expect("ser"),
    ];
    let events = serve_script(2, &script);
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Error { id: Some(id), error, .. } if id == "dup" && error.contains("in flight")
        )),
        "duplicate id must be rejected: {events:?}"
    );
    // The original request still terminates exactly once (cancelled).
    let terminals = events
        .iter()
        .filter(|e| e.is_terminal() && e.id() == Some("dup"))
        .count();
    assert_eq!(terminals, 2, "one rejection + one terminal for the run");
}

#[test]
fn metrics_requests_return_the_exposition_and_stats_carry_the_snapshot() {
    // Ping first: its end-to-end latency is recorded synchronously, so
    // by the time the Metrics line is parsed the latency histogram is
    // guaranteed non-empty (the explore may still be in flight).
    let script = vec![
        serde_json::to_string(&Request::new("warm", RequestBody::Ping)).expect("ser"),
        run_line("paid", &quick_explore_spec()),
        serde_json::to_string(&Request::new("m", RequestBody::Metrics)).expect("ser"),
        serde_json::to_string(&Request::new("s", RequestBody::Stats)).expect("ser"),
    ];
    let events = serve_script(2, &script);
    let Event::Metrics { id, text } = terminal_for(&events, "m") else {
        panic!("metrics request must answer with Metrics: {events:?}");
    };
    assert_eq!(id, "m");
    // Prometheus-style exposition: per-request latency summary with
    // quantiles, and the per-variant request counters, all non-zero.
    assert!(
        text.contains("# TYPE ddtr_serve_request_latency_seconds summary"),
        "{text}"
    );
    assert!(
        text.contains("ddtr_serve_request_latency_seconds{quantile=\"0.5\"}"),
        "{text}"
    );
    assert!(
        text.contains("ddtr_serve_request_latency_seconds{quantile=\"0.99\"}"),
        "{text}"
    );
    let counter_value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).map(|v| v.trim()))
            .unwrap_or_else(|| panic!("{name} missing from exposition: {text}"))
            .parse()
            .expect("counter value parses")
    };
    assert!(counter_value("ddtr_serve_request_ping_total ") >= 1);
    assert!(counter_value("ddtr_serve_request_run_total ") >= 1);
    assert!(counter_value("ddtr_serve_request_metrics_total ") >= 1);
    // The Stats event carries the same snapshot structurally.
    let Event::Stats { metrics, .. } = terminal_for(&events, "s") else {
        panic!("stats request must answer with Stats: {events:?}");
    };
    assert!(
        metrics.counters.get("serve.request.ping").copied() >= Some(1),
        "snapshot carries the ping counter: {:?}",
        metrics.counters
    );
    assert!(
        metrics
            .histograms
            .get("serve.request.latency")
            .is_some_and(|h| h.count >= 1 && h.sum > 0),
        "snapshot carries the latency histogram: {:?}",
        metrics.histograms.keys().collect::<Vec<_>>()
    );
}

#[test]
fn stats_events_from_pre_metrics_servers_still_parse() {
    // The `metrics` field is new in this protocol revision; an event
    // written by an older server (no such key) must deserialise with an
    // empty snapshot rather than fail.
    let legacy =
        r#"{"Stats":{"id":"s","stats":{"entries":3,"hits":2,"misses":1,"loaded":0},"jobs":4}}"#;
    let event: Event = serde_json::from_str(legacy).expect("legacy Stats parses");
    let Event::Stats {
        id,
        stats,
        jobs,
        metrics,
    } = event
    else {
        panic!("wrong variant");
    };
    assert_eq!((id.as_str(), jobs), ("s", 4));
    assert_eq!((stats.entries, stats.hits, stats.misses), (3, 2, 1));
    assert!(metrics.counters.is_empty() && metrics.histograms.is_empty());
}

#[test]
fn inline_configs_round_trip_through_a_live_server() {
    // serialize → dispatch (through the live server) → deserialize: the
    // full protocol round trip on an inline configuration.
    let inline = ExploreRequest::Explore(MethodologyConfig::quick(ddtr_apps::AppKind::Url));
    let script = vec![run_line("inline", &JobSpec::inline(inline.clone()))];
    let events = serve_script(2, &script);
    let Event::Result { result, .. } = terminal_for(&events, "inline") else {
        panic!("inline request must succeed: {events:?}");
    };
    // The served result round-trips losslessly and matches a direct
    // dispatch of the deserialized request.
    let json = serde_json::to_string(result).expect("ser");
    let back: ExploreResult = serde_json::from_str(&json).expect("de");
    assert_eq!(serde_json::to_string(&back).expect("ser"), json);
    let direct = dispatch(&inline).expect("direct");
    let (ExploreResult::Explore(served), ExploreResult::Explore(direct)) = (&back, &direct) else {
        panic!("wrong modes");
    };
    assert_eq!(
        serde_json::to_string(&served.pareto.global_front).expect("ser"),
        serde_json::to_string(&direct.pareto.global_front).expect("ser"),
    );
}

#[test]
fn the_recorded_request_transcript_replays_through_a_live_server() {
    // `wire_transcripts.rs` shows every recorded request still decodes;
    // only a live server shows each one is still answered.
    let script: Vec<String> = include_str!("data/wire_requests.jsonl")
        .lines()
        .map(String::from)
        .collect();
    let requests: Vec<Request> = script
        .iter()
        .map(|line| serde_json::from_str(line).expect("decodes"))
        .collect();
    let (last, answered) = requests.split_last().expect("a non-empty transcript");
    assert!(
        matches!(last.body, RequestBody::Shutdown),
        "the transcript ends with Shutdown, which is answered by `Bye` alone"
    );
    let ids: std::collections::BTreeSet<&str> = requests.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids.len(), requests.len(), "transcript ids must be unique");
    let events = serve_script(2, &script);
    for request in answered {
        let terminals: Vec<&Event> = events
            .iter()
            .filter(|e| e.is_terminal() && e.id() == Some(request.id.as_str()))
            .collect();
        assert_eq!(
            terminals.len(),
            1,
            "`{}` needs exactly one terminal event: {terminals:?}",
            request.id
        );
    }
    for event in &events {
        assert!(
            !matches!(
                event.error_code(),
                Some(ErrorCode::Parse | ErrorCode::BadRequest)
            ),
            "a recorded request was refused: {event:?}"
        );
    }
    assert!(matches!(events.last(), Some(Event::Bye)), "{events:?}");
}

#[test]
fn a_request_that_panics_costs_only_that_request() {
    // 256 bytes of DRAM pass `validate()` but exhaust the simulated heap
    // in the first profiling insert, which panics inside the worker.
    let mut starved = MethodologyConfig::quick(ddtr_apps::AppKind::Drr);
    starved.mem.dram.capacity_bytes = 256;
    let script = vec![
        run_line("boom", &JobSpec::inline(ExploreRequest::Explore(starved))),
        ping_line("alive"),
        run_line("after", &quick_explore_spec()),
    ];
    let events = serve_script(2, &script);
    let boom = terminal_for(&events, "boom");
    assert_eq!(boom.error_code(), Some(ErrorCode::Internal), "{boom:?}");
    assert!(
        matches!(terminal_for(&events, "alive"), Event::Pong { .. }),
        "{events:?}"
    );
    assert!(
        matches!(terminal_for(&events, "after"), Event::Result { .. }),
        "{events:?}"
    );
    assert!(matches!(events.last(), Some(Event::Bye)), "{events:?}");
}

fn secured_config() -> ServerConfig {
    ServerConfig {
        auth_token: Some("sesame".into()),
        ..ServerConfig::new(EngineConfig::with_jobs(1))
    }
}

#[test]
fn auth_is_enforced_at_hello_before_any_engine_work() {
    // A Run on an unauthenticated connection: rejected with a coded
    // error before the spec is even resolved — the engine must do zero
    // work for an unauthenticated peer.
    let server = Server::with_config(secured_config()).expect("server");
    let events = serve_server_script(
        &server,
        &[run_line("sneak", &quick_explore_spec()), ping_line("also")],
    );
    let rejected = terminal_for(&events, "sneak");
    assert_eq!(
        rejected.error_code(),
        Some(ErrorCode::AuthRequired),
        "{events:?}"
    );
    assert_eq!(
        terminal_for(&events, "also").error_code(),
        Some(ErrorCode::AuthRequired),
        "every pre-auth request is turned away"
    );
    let stats = server.fleet_stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (0, 0),
        "no engine work happened for the unauthenticated peer"
    );
    // The greeting still advertises how to get in.
    let Some(Event::Hello { capabilities, .. }) = events.first() else {
        panic!("greeting first: {events:?}");
    };
    assert!(capabilities.iter().any(|c| c == "auth"), "{capabilities:?}");
}

#[test]
fn wrong_auth_token_closes_the_connection_but_missing_token_keeps_it() {
    // A wrong secret ends the conversation outright (no free guessing).
    let server = Server::with_config(secured_config()).expect("server");
    let events = serve_server_script(
        &server,
        &[hello_line("guess", Some("wrong")), ping_line("after")],
    );
    assert_eq!(
        terminal_for(&events, "guess").error_code(),
        Some(ErrorCode::AuthFailed)
    );
    assert!(
        !events.iter().any(|e| e.id() == Some("after")),
        "connection closed after the failed guess: {events:?}"
    );
    assert!(matches!(events.last(), Some(Event::Bye)));

    // A tokenless Hello is an honest mistake: coded error, connection
    // survives, and the right token then opens the gate.
    let events = serve_server_script(
        &server,
        &[
            hello_line("bare", None),
            hello_line("key", Some("sesame")),
            ping_line("in"),
        ],
    );
    assert_eq!(
        terminal_for(&events, "bare").error_code(),
        Some(ErrorCode::AuthRequired)
    );
    assert!(
        matches!(terminal_for(&events, "key"), Event::Welcome { .. }),
        "{events:?}"
    );
    assert!(matches!(terminal_for(&events, "in"), Event::Pong { .. }));
}

#[test]
fn client_builder_handshakes_with_auth_and_surfaces_rejection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    let server = Server::with_config(secured_config()).expect("server");
    let (reply, greeting_ok, rejection) = std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.serve_tcp(&listener).expect("serve"));
        let rejection = Client::builder(endpoint.clone())
            .auth_token("wrong")
            .connect()
            .expect_err("wrong token must be rejected");
        let mut client = Client::builder(endpoint.clone())
            .auth_token("sesame")
            .connect()
            .expect("right token connects");
        let greeting_ok = client.greeting().is_some();
        let reply = client
            .call(&Request::new("p", RequestBody::Ping), |_| {})
            .expect("ping");
        client
            .send(&Request::new("bye", RequestBody::Shutdown))
            .expect("shutdown");
        (reply, greeting_ok, rejection)
    });
    assert!(matches!(reply, Event::Pong { .. }));
    assert!(greeting_ok, "the builder captured the server greeting");
    let ClientError::Rejected { code, error } = rejection else {
        panic!("expected a protocol rejection, got {rejection:?}");
    };
    assert_eq!(code, Some(ErrorCode::AuthFailed), "{error}");
}

#[test]
fn oversized_request_lines_get_coded_errors_and_the_connection_survives() {
    let cfg = ServerConfig {
        max_request_bytes: 64,
        ..ServerConfig::new(EngineConfig::with_jobs(1))
    };
    let server = Server::with_config(cfg).expect("server");
    let huge = format!(r#"{{"id":"big","body":"{}"}}"#, "x".repeat(4096));
    let events = serve_server_script(&server, &[huge, ping_line("alive")]);
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Error {
                id: None,
                code: Some(ErrorCode::TooLarge),
                ..
            }
        )),
        "oversized line must answer with a coded error: {events:?}"
    );
    assert!(
        matches!(terminal_for(&events, "alive"), Event::Pong { .. }),
        "the connection survives the oversized line"
    );
    assert!(matches!(events.last(), Some(Event::Bye)));
}

#[test]
fn rate_limited_connection_backs_off_while_a_second_client_proceeds() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    let cfg = ServerConfig {
        rate_limit: Some(2),
        ..ServerConfig::new(EngineConfig::with_jobs(1))
    };
    let server = Server::with_config(cfg).expect("server");
    let (flood_replies, calm_replies) = std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.serve_tcp(&listener).expect("serve"));
        // Client A floods well past its 2-per-second budget.
        let mut flood = Client::connect(&endpoint).expect("connect A");
        let flood_replies: Vec<Event> = (0..8)
            .map(|i| {
                flood
                    .call(&Request::new(format!("f{i}"), RequestBody::Ping), |_| {})
                    .expect("flood call")
            })
            .collect();
        // Client B, its own connection, has its own untouched budget
        // (one ping + the shutdown below stay within the 2/s limit).
        let mut calm = Client::connect(&endpoint).expect("connect B");
        let calm_replies: Vec<Event> = (0..1)
            .map(|i| {
                calm.call(&Request::new(format!("c{i}"), RequestBody::Ping), |_| {})
                    .expect("calm call")
            })
            .collect();
        calm.send(&Request::new("bye", RequestBody::Shutdown))
            .expect("shutdown");
        (flood_replies, calm_replies)
    });
    let limited = flood_replies
        .iter()
        .filter(|e| e.error_code() == Some(ErrorCode::RateLimited))
        .count();
    let ponged = flood_replies
        .iter()
        .filter(|e| matches!(e, Event::Pong { .. }))
        .count();
    assert!(
        limited >= 1,
        "the flooding connection must see backpressure: {flood_replies:?}"
    );
    assert!(ponged >= 1, "the budget admits the first requests");
    assert!(
        calm_replies.iter().all(|e| matches!(e, Event::Pong { .. })),
        "the second client's own budget is untouched: {calm_replies:?}"
    );
}

#[test]
fn multi_worker_fleet_routes_deterministically_and_answers_warm() {
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::new(EngineConfig::with_jobs(2))
    };
    let server = Server::with_config(cfg).expect("server");
    assert_eq!(server.worker_count(), 3);
    // Placement is a pure function of the resolved request content.
    let resolved = quick_explore_spec().resolve().expect("resolves");
    let placed = server.route(&resolved);
    assert!(placed < 3);
    assert_eq!(placed, server.route(&resolved), "stable placement");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    let (greeting_workers, reply_cold, reply_warm) = std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.serve_tcp(&listener).expect("serve"));
        let mut a = Client::connect(&endpoint).expect("connect A");
        let reply_cold = a
            .call(&Request::run("cold", quick_explore_spec()), |_| {})
            .expect("cold call");
        let greeting_workers = match a.greeting() {
            Some(Event::Hello { workers, .. }) => *workers,
            other => panic!("expected a Hello greeting, got {other:?}"),
        };
        drop(a);
        let mut b = Client::connect(&endpoint).expect("connect B");
        let reply_warm = b
            .call(&Request::run("warm", quick_explore_spec()), |_| {})
            .expect("warm call");
        b.send(&Request::new("bye", RequestBody::Shutdown))
            .expect("shutdown");
        (greeting_workers, reply_cold, reply_warm)
    });
    assert_eq!(greeting_workers, 3, "the greeting advertises the fleet");
    let Event::Result { executed, .. } = &reply_cold else {
        panic!("cold request must succeed: {reply_cold:?}");
    };
    assert!(*executed > 0, "cold request simulates");
    let Event::Result {
        executed,
        cache_hits,
        ..
    } = &reply_warm
    else {
        panic!("warm request must succeed: {reply_warm:?}");
    };
    // Deterministic routing sends the identical request to the same
    // worker, so its warm in-memory cache answers without simulating —
    // the fleet-scale acceptance criterion.
    assert_eq!(
        *executed, 0,
        "identical request re-routes to the warm worker"
    );
    assert!(*cache_hits > 0);
    assert_eq!(front_of(&reply_cold), front_of(&reply_warm));
}
