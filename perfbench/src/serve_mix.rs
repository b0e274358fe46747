//! `serve-mix`: a closed loop of `nproc` client connections against an
//! in-process `nproc`-worker `Server` (one simulation thread per worker)
//! over a Unix socket. Each client runs its own seeded schedule in blocks
//! of ten requests — seven warm quick `explore`/`ga`/`headline` Runs over
//! the five applications, two `Ping`s and one never-seen Run (an inline
//! quick explore with a fresh `AppParams.seed`, about 120 simulations
//! appended to the store) — shuffled within the block. About 90% of the
//! work is shared with the warm set; the serve stages and the in-memory
//! hit path do most of it, with writes beside the reads.

use crate::digest;
use crate::probes::{
    engine_probe, fresh_quick, obs_counters, profile_probe, store_probe, store_stats,
    traced_explore,
};
use crate::stats::{median, nanos, offset_ns, per_second, setup_samples, Latency, Rng};
use crate::tracer::Tracer;
use crate::{Ctx, EndToEnd, Report};
use ddtr_apps::AppKind;
use ddtr_core::{dispatch_with, ExploreRequest, MethodologyConfig};
use ddtr_engine::{EngineConfig, ExploreEngine};
use ddtr_serve::protocol::{Event, JobSpec, Request, RequestBody};
use ddtr_serve::{route_worker, Client, Endpoint, Server, ServerConfig};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const NAME: &str = "serve-mix";

/// Domain tag of this workload's seed stream.
const TAG: u64 = 0x0053_4552_5645;

/// Set-up processes per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Requests per schedule block: 7 warm Runs, 2 pings, 1 never-seen Run.
const BLOCK: usize = 10;

/// Schedule blocks per client in the timed closed loop.
const BLOCKS: usize = 360;

/// Schedule blocks per client in the traced pass.
const TRACED_BLOCKS: usize = 60;

/// Never-seen Runs the traced pass composes in process.
const COMPOSED_COLD: usize = 10;

/// Never-seen Runs of client 0 covered by the golden digest.
const GOLDEN_COLD: usize = 8;

/// Cold-request index offset of the traced pass, so its never-seen Runs
/// are never seen by the untraced pass either.
const TRACED_COLD: usize = 1 << 20;

const APPS: [&str; 5] = ["route", "url", "ipchains", "drr", "nat"];
const MODES: [&str; 3] = ["explore", "ga", "headline"];

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A warm Run: index into the warm set.
    Warm(usize),
    /// A `Ping`.
    Ping,
    /// A never-seen Run: this client's cold-request index.
    Cold(usize),
}

/// The warm set: quick explore, ga and headline over the five apps.
fn warm_specs() -> Vec<JobSpec> {
    MODES
        .iter()
        .flat_map(|mode| {
            APPS.iter().map(move |app| JobSpec {
                quick: true,
                ..JobSpec::preset(mode, Some(app))
            })
        })
        .collect()
}

/// Uncached profile simulations a warm-set request runs (explore and
/// headline profile their application; the GA does not).
fn warm_profiles(w: usize) -> usize {
    usize::from(MODES[w / APPS.len()] != "ga")
}

/// Client `client`'s never-seen request number `index`: a quick explore
/// of a seeded application with a fresh `AppParams.seed`.
fn cold_request(seed: u64, client: usize, index: usize) -> ExploreRequest {
    let mut rng = Rng::new(seed ^ ((client as u64) << 40) ^ index as u64, TAG ^ 3);
    let app = AppKind::EXTENDED_ALL[rng.below(AppKind::EXTENDED_ALL.len())];
    ExploreRequest::Explore(fresh_quick(app, rng.next_u64()))
}

/// Client `client`'s schedule of `blocks` blocks, cold indices from
/// `cold_base`.
fn schedule(seed: u64, client: usize, blocks: usize, cold_base: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed ^ ((client as u64) << 40) ^ cold_base as u64, TAG ^ 4);
    let warm = warm_specs().len();
    let mut steps = Vec::with_capacity(blocks * BLOCK);
    for b in 0..blocks {
        let mut block: Vec<Step> = (0..7).map(|_| Step::Warm(rng.below(warm))).collect();
        block.extend([Step::Ping, Step::Ping, Step::Cold(cold_base + b)]);
        rng.shuffle(&mut block);
        steps.extend(block);
    }
    steps
}

/// What one request brought home.
#[derive(Debug, Clone)]
struct Done {
    step: Step,
    start_ns: u64,
    end_ns: u64,
    /// Simulations executed for the request (Runs).
    executed: usize,
    /// Simulations answered from cache (Runs).
    hits: usize,
    /// Result digest (Runs).
    digest: u64,
    /// Why it failed, when it did.
    failure: Option<String>,
    /// The error code of an `Error` event.
    code: Option<&'static str>,
}

/// A running fleet and its clients.
struct Fleet {
    thread: JoinHandle<()>,
    sock: PathBuf,
    store: PathBuf,
    clients: Vec<Client>,
    workers: usize,
    /// Digest and result of every warm-set request, in warm-set order.
    warm: Vec<u64>,
}

fn connect(sock: &Path) -> Result<Client, String> {
    Client::builder(Endpoint::Unix(sock.to_path_buf()))
        .connect()
        .map_err(|e| e.to_string())
}

/// Starts a fleet on a fresh store under `dir`, connects the clients and
/// populates the warm set through them.
fn start(ctx: &Ctx, dir: &Path) -> Result<Fleet, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let sock = dir.join("s.sock");
    if sock.as_os_str().len() > 100 {
        return Err(format!("socket path too long: {}", sock.display()));
    }
    let store = dir.join("store");
    let cfg = ServerConfig {
        workers: ctx.jobs,
        ..ServerConfig::new(EngineConfig {
            jobs: 1,
            cache_dir: Some(store.clone()),
            no_cache: false,
        })
    };
    let server = Arc::new(Server::with_config(cfg).map_err(|e| e.to_string())?);
    let listener = UnixListener::bind(&sock).map_err(|e| e.to_string())?;
    let thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = server.serve_unix(&listener);
        })
    };
    let clients = (0..ctx.jobs)
        .map(|_| connect(&sock))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fleet = Fleet {
        thread,
        sock,
        store,
        clients,
        workers: ctx.jobs,
        warm: Vec::new(),
    };
    for (w, spec) in warm_specs().into_iter().enumerate() {
        let request = Request::run(format!("warm-{w}"), spec);
        match fleet.clients[0].call(&request, |_| {}) {
            Ok(Event::Result { result, .. }) => fleet.warm.push(digest::result(&result)),
            other => return Err(format!("warm-set request {w} failed: {other:?}")),
        }
    }
    Ok(fleet)
}

/// Stops a fleet: closes the clients, shuts the server down and waits for
/// its thread.
fn stop(mut fleet: Fleet) {
    fleet.clients.truncate(1);
    if let Some(mut last) = fleet.clients.pop() {
        let _ = last.send(&Request::new("shutdown", RequestBody::Shutdown));
        while let Ok(Some(_)) = last.next_event() {}
    }
    let _ = fleet.thread.join();
    let _ = std::fs::remove_file(&fleet.sock);
}

/// Runs one client's schedule, timing every request against `origin`.
fn drive(
    client: &mut Client,
    c: usize,
    steps: &[Step],
    seed: u64,
    warm: &[JobSpec],
    warm_digests: &[u64],
    origin: Instant,
) -> Vec<Done> {
    let mut done = Vec::with_capacity(steps.len());
    let mut dropped = false;
    for (i, &step) in steps.iter().enumerate() {
        let id = format!("c{c}-{i}");
        let request = match step {
            Step::Ping => Request::new(id, RequestBody::Ping),
            Step::Warm(w) => Request::run(id, warm[w].clone()),
            Step::Cold(k) => Request::run(id, JobSpec::inline(cold_request(seed, c, k))),
        };
        let mut rec = Done {
            step,
            start_ns: 0,
            end_ns: 0,
            executed: 0,
            hits: 0,
            digest: 0,
            failure: None,
            code: None,
        };
        if dropped {
            rec.failure = Some("connection dropped earlier".into());
            done.push(rec);
            continue;
        }
        let start = Instant::now();
        let reply = client.call(&request, |_| {});
        let end = Instant::now();
        rec.start_ns = offset_ns(origin, start);
        rec.end_ns = offset_ns(origin, end);
        match (step, reply) {
            (Step::Ping, Ok(Event::Pong { .. })) => {}
            (
                Step::Warm(_) | Step::Cold(_),
                Ok(Event::Result {
                    executed,
                    cache_hits,
                    result,
                    ..
                }),
            ) => {
                rec.executed = executed;
                rec.hits = cache_hits;
                rec.digest = digest::result(&result);
                if let Step::Warm(w) = step {
                    if executed > 0 {
                        rec.failure = Some(format!("{}: warm Run executed {executed}", request.id));
                    } else if rec.digest != warm_digests[w] {
                        rec.failure = Some(format!("{}: warm result digest differs", request.id));
                    }
                }
            }
            (_, Ok(Event::Error { error, code, .. })) => {
                rec.code = Some(code.map_or("Internal", |c| c.as_str()));
                rec.failure = Some(format!("{}: error event: {error}", request.id));
            }
            (_, Ok(other)) => rec.failure = Some(format!("{}: unexpected {other:?}", request.id)),
            (_, Err(e)) => {
                dropped = true;
                rec.failure = Some(format!("{}: connection dropped: {e}", request.id));
            }
        }
        done.push(rec);
    }
    done
}

/// Runs every client's schedule concurrently, one thread per connection.
fn run_clients(
    fleet: &mut Fleet,
    schedules: &[Vec<Step>],
    seed: u64,
    origin: Instant,
) -> Vec<Vec<Done>> {
    let warm = warm_specs();
    let warm_digests = fleet.warm.clone();
    std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .clients
            .iter_mut()
            .zip(schedules)
            .enumerate()
            .map(|(c, (client, steps))| {
                let (warm, warm_digests) = (&warm, &warm_digests);
                scope.spawn(move || drive(client, c, steps, seed, warm, warm_digests, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Packets simulated for a request: executed units plus uncached profile
/// runs, 80 packets each in the quick configurations.
fn packets(d: &Done) -> f64 {
    let per_sim = MethodologyConfig::quick(AppKind::Drr).packets_per_sim as f64;
    let profiles = match d.step {
        Step::Warm(w) => warm_profiles(w),
        Step::Cold(_) => 1,
        Step::Ping => 0,
    };
    per_sim * (d.executed + profiles) as f64
}

/// One set-up in a process of its own (see `stats::setup_samples`).
///
/// # Errors
///
/// The fleet could not start or populate its warm set.
pub fn setup_only(ctx: &Ctx) -> Result<(), String> {
    let fleet = start(ctx, &ctx.work.join("serve"))?;
    println!("ready");
    stop(fleet);
    Ok(())
}

/// Runs the workload: the set-up processes, this process's own set-up,
/// the timed closed loop, then (with `--trace 1`) the traced pass.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let setups = setup_samples(NAME, ctx.seed, SETUPS)?;
    let mut fleet = start(ctx, &ctx.work.join("serve"))?;
    let clients = fleet.clients.len();
    let schedules: Vec<Vec<Step>> = (0..clients)
        .map(|c| schedule(ctx.seed, c, BLOCKS, 0))
        .collect();
    let origin = Instant::now();
    let results = run_clients(&mut fleet, &schedules, ctx.seed, origin);
    let wall_ns = nanos(origin.elapsed());

    let (mut warm_ns, mut cold_ns) = (Vec::new(), Vec::new());
    let (mut done_requests, mut done_packets) = (0.0, 0.0);
    for d in results.iter().flatten() {
        report.attempted += 1;
        if let Some(why) = &d.failure {
            report.fail(1, why.clone());
            continue;
        }
        let ns = d.end_ns - d.start_ns;
        match d.step {
            Step::Warm(_) => warm_ns.push(ns),
            Step::Cold(_) => cold_ns.push(ns),
            Step::Ping => {}
        }
        done_requests += 1.0;
        done_packets += packets(d);
    }
    let errors = results.iter().flatten().filter_map(|d| d.code).count();
    report.note("error events", errors);

    // Never-seen results: the golden prefix of client 0 plus a seeded
    // sample, each recomputed in process.
    let cold_of = |c: usize| -> Vec<(usize, u64)> {
        results.get(c).map_or(Vec::new(), |done| {
            done.iter()
                .filter_map(|d| match d.step {
                    Step::Cold(k) if d.failure.is_none() => Some((k, d.digest)),
                    _ => None,
                })
                .collect()
        })
    };
    let first = cold_of(0);
    let mut rng = Rng::new(ctx.seed, TAG ^ 5);
    let mut sample: Vec<(usize, usize, u64)> = first
        .iter()
        .take(GOLDEN_COLD)
        .map(|&(k, d)| (0, k, d))
        .collect();
    for _ in 0..4 {
        let c = rng.below(clients);
        let cold = cold_of(c);
        if !cold.is_empty() {
            let (k, d) = cold[rng.below(cold.len())];
            sample.push((c, k, d));
        }
    }
    for (c, k, served) in sample {
        let direct = dispatch_with(
            &mut ExploreEngine::with_jobs(1),
            &cold_request(ctx.seed, c, k),
        )
        .map(|r| digest::result(&r));
        report.check(direct.as_ref().ok() == Some(&served), || {
            format!("never-seen Run c{c}/{k}: served digest differs from in-process dispatch")
        });
    }
    let golden_cold: Vec<u64> = first.iter().take(GOLDEN_COLD).map(|&(_, d)| d).collect();
    report.check(golden_cold.len() == GOLDEN_COLD, || {
        "too few never-seen Runs for the golden digest".into()
    });
    report.check_golden(
        NAME,
        ctx.seed,
        digest::combine(fleet.warm.iter().copied().chain(golden_cold)),
    );

    let warm = Latency::from_ns(warm_ns);
    report.e2e = EndToEnd {
        setup_s: median(&setups),
        sim_pkts_per_s: per_second(done_packets, wall_ns),
        req_per_s: per_second(done_requests, wall_ns),
        p50_ms: warm.p50_ms,
        tail_ms: warm.tail_ms,
        tail_pct: warm.tail_pct,
        samples: warm.count,
        cold_p50_ms: Latency::from_ns(cold_ns.clone()).p50_ms,
    };
    report.note(
        "operations",
        format!(
            "{SETUPS} set-up processes x ({} warm-set Runs); {clients} clients x {BLOCKS} blocks x {BLOCK} \
             requests (7 warm Runs, 2 pings, 1 never-seen Run); {} never-seen Runs; workers={} x 1 job",
            warm_specs().len(),
            cold_ns.len(),
            fleet.workers
        ),
    );
    report.note(
        "definitions",
        "p50_ms/tail_ms over warm Runs; rates = completed work / wall time of the closed loop; \
         sim_pkts_per_s counts executed and profile packets",
    );
    if ctx.trace {
        traced(ctx, &mut fleet, &results, &mut report)?;
    }
    stop(fleet);
    Ok(report)
}

/// The traced pass: [`TRACED_BLOCKS`] blocks per client again (fresh
/// never-seen Runs) timed by client-side spans, the fleet's placement of
/// its Runs, the first never-seen Runs composed in process, then the
/// serve probe.
fn traced(
    ctx: &Ctx,
    fleet: &mut Fleet,
    untraced: &[Vec<Done>],
    report: &mut Report,
) -> Result<(), String> {
    let t = Tracer::new();
    let clients = fleet.clients.len();
    let schedules: Vec<Vec<Step>> = (0..clients)
        .map(|c| schedule(ctx.seed, c, TRACED_BLOCKS, TRACED_COLD))
        .collect();
    let (hits0, exec0) = obs_counters();
    let results = run_clients(fleet, &schedules, ctx.seed, t.origin());
    let (hits1, exec1) = obs_counters();
    let (mut own_hits, mut own_exec) = (0usize, 0usize);
    let mut req = 0u64;
    for done in &results {
        for d in done {
            req += 1;
            let name = match d.step {
                Step::Ping => "serve.ping",
                Step::Warm(_) => "serve.warm",
                Step::Cold(_) => "serve.cold",
            };
            t.record_ns(name, req, 1.0, d.start_ns, d.end_ns);
            report.check(d.failure.is_none(), || {
                format!("traced {}", d.failure.clone().unwrap_or_default())
            });
            own_hits += d.hits;
            own_exec += d.executed;
            if let Some(code) = d.code {
                t.value(&format!("serve.errors.{code}"), 1.0);
            }
        }
    }
    report.check(
        (hits1 - hits0) as usize == own_hits && (exec1 - exec0) as usize == own_exec,
        || {
            format!(
                "obs counters (hits {}, executed {}) disagree with the Result events ({own_hits}, {own_exec})",
                hits1 - hits0,
                exec1 - exec0
            )
        },
    );
    let errors = untraced
        .iter()
        .chain(&results)
        .flatten()
        .filter(|d| d.code.is_some())
        .count();
    t.value("serve.errors", errors as f64);
    let traced_warm = t.ns_per_unit("serve.warm").unwrap_or(0.0) / 1e6;
    t.value(
        "tracing.overhead_pct",
        (traced_warm / report.e2e.p50_ms - 1.0) * 100.0,
    );
    report.note(
        "end-to-end (traced)",
        format!("p50_ms={traced_warm:.3} over {req} traced requests"),
    );

    // Placement: the busiest worker's share of every scheduled Run.
    let warm = warm_specs();
    let mut per_worker = vec![0usize; fleet.workers.max(1)];
    for (c, steps) in schedules.iter().enumerate() {
        for step in steps {
            let request = match *step {
                Step::Warm(w) => warm[w].resolve().map_err(|e| e.to_string())?,
                Step::Cold(k) => cold_request(ctx.seed, c, k),
                Step::Ping => continue,
            };
            per_worker[route_worker(&request, fleet.workers)] += 1;
        }
    }
    let runs: usize = per_worker.iter().sum();
    let busiest = per_worker.iter().copied().max().unwrap_or(0);
    t.value("serve.worker_share", busiest as f64 / runs.max(1) as f64);
    store_stats(&t, &fleet.store).map_err(|e| e.to_string())?;

    // The first never-seen Runs of client 0, composed in process: step 1's
    // batch on a cold engine, its results through the store, the profile
    // decomposed, and the whole explore step by step, whose result must
    // equal the served one.
    let mut composed_ok = true;
    let served: Vec<(usize, u64)> = results
        .first()
        .map(|done| {
            done.iter()
                .filter_map(|d| match d.step {
                    Step::Cold(k) if d.failure.is_none() => Some((k, d.digest)),
                    _ => None,
                })
                .take(COMPOSED_COLD)
                .collect()
        })
        .unwrap_or_default();
    for (i, &(k, digest)) in served.iter().enumerate() {
        let ExploreRequest::Explore(cfg) = cold_request(ctx.seed, 0, k) else {
            continue;
        };
        let req = 1_000_000 + i as u64;
        let entries = engine_probe(&t, req, &cfg, &mut ExploreEngine::with_jobs(1))
            .map_err(|e| e.to_string())?;
        let dir = ctx.work.join(format!("serve-composed-{i}"));
        composed_ok &= store_probe(&t, req, &dir, &entries).map_err(|e| e.to_string())?;
        composed_ok &= profile_probe(&t, req, &cfg);
        let (result, _) = traced_explore(&t, req, &cfg, &mut ExploreEngine::with_jobs(1))
            .map_err(|e| e.to_string())?;
        composed_ok &= digest::result(&result) == digest;
    }
    report.check(composed_ok && served.len() == COMPOSED_COLD, || {
        format!(
            "{} composed never-seen Runs: a decomposed call differed from the served result",
            served.len()
        )
    });
    probe(&t, ctx, 2_000_000)?;
    crate::finish_trace(ctx, NAME, &t, report);
    Ok(())
}

/// The serve layer's calls on a quiet fleet of its own: connection
/// set-up beside one open client, pings, spec resolution, and each warm
/// Run's round trip against the in-process `dispatch_with` of the same
/// request (`serve.overhead_ms`, the median difference).
fn probe(t: &Tracer, ctx: &Ctx, req: u64) -> Result<(), String> {
    let mut fleet = start(ctx, &ctx.work.join("serve-probe"))?;
    fleet.clients.truncate(1);
    for _ in 0..8 {
        drop(t.span("serve.connect", req, 1.0, || connect(&fleet.sock))?);
    }
    let client = &mut fleet.clients[0];
    for i in 0..20 {
        let pong = t.span("serve.ping", req, 1.0, || {
            client.call(&Request::new(format!("p{i}"), RequestBody::Ping), |_| {})
        });
        if !matches!(pong, Ok(Event::Pong { .. })) {
            return Err(format!("probe ping {i}: {pong:?}"));
        }
    }
    let mut engine = ExploreEngine::with_jobs(1);
    for (w, spec) in warm_specs().into_iter().enumerate() {
        let mut request = None;
        for _ in 0..5 {
            request = Some(t.span("serve.resolve", req, 1.0, || spec.resolve()));
        }
        let request = request.ok_or("no resolve")?.map_err(|e| e.to_string())?;
        dispatch_with(&mut engine, &request).map_err(|e| e.to_string())?;
        let (mut inproc, mut round_trips) = (Vec::new(), Vec::new());
        for i in 0..5 {
            let start = Instant::now();
            dispatch_with(&mut engine, &request).map_err(|e| e.to_string())?;
            inproc.push(nanos(start.elapsed()) as f64);
            let start = Instant::now();
            let reply = client.call(&Request::run(format!("o{w}-{i}"), spec.clone()), |_| {});
            round_trips.push(nanos(start.elapsed()) as f64);
            if !matches!(reply, Ok(Event::Result { executed: 0, .. })) {
                return Err(format!("probe warm Run {w}: {reply:?}"));
            }
        }
        t.value(
            "serve.overhead_ms",
            (median(&round_trips) - median(&inproc)) / 1e6,
        );
    }
    stop(fleet);
    Ok(())
}
