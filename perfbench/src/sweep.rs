//! `sweep-cold`: the paper's scenarios × platforms sweep on an empty
//! store — 4 applications × 5 scenarios × 5 memory presets = 100 cells of
//! 100 streamed 200-packet simulations each. Nothing is shared between
//! inputs, so the simulation stack, trace streaming, the scheduler and
//! store appends do the work; the engine's hit path does none.
//! `engine.trace_fp` and `engine.hit` are not exercised here.

use crate::digest::{self, Digest};
use crate::probes::{
    obs_counters, record_batch, same_report, sim_probe, store_probe, store_stats, Packets,
};
use crate::stats::{median, nanos, per_second, setup_samples, Latency, Rng};
use crate::tracer::Tracer;
use crate::{Ctx, EndToEnd, Report};
use ddtr_apps::AppKind;
use ddtr_core::{dispatch_observed, ExploreRequest, ExploreResult, SweepCell, SweepConfig};
use ddtr_engine::{
    combos_from, fingerprint_stream_spec, CacheKey, EngineConfig, ExploreEngine, SimLog, SimUnit,
    TraceSource,
};
use ddtr_mem::MemoryPreset;
use ddtr_pareto::pareto_front_indices;
use ddtr_trace::{NetworkPreset, Scenario, StreamSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const NAME: &str = "sweep-cold";

/// Domain tag of this workload's seed stream.
const TAG: u64 = 0x0053_5745_4550;

/// Set-up processes per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Cold sweeps per run, each on a fresh store.
const SWEEPS: usize = 6;

/// Packets per simulation: half the paper sweep's 400, so that a run
/// holds several sweeps. The preset axis stays whole, so the L2 and
/// scratchpad paths stay exercised.
const PACKETS_PER_SIM: usize = 200;

/// Simulations per cell that the traced pass re-runs serially, decomposed.
const PROBES_PER_CELL: usize = 2;

/// Cells whose results the traced pass also writes through the store probe.
const STORE_PROBE_CELLS: usize = 10;

/// The sweep this seed asks for: the paper sweep with `AppParams.seed`
/// drawn from the workload seed.
fn config(seed: u64) -> SweepConfig {
    let mut cfg = SweepConfig::paper(NetworkPreset::DartmouthBerry);
    cfg.packets_per_sim = PACKETS_PER_SIM;
    cfg.params.seed = Rng::new(seed, TAG).next_u64();
    cfg
}

fn engine_at(dir: &Path, jobs: usize) -> Result<ExploreEngine, String> {
    ExploreEngine::new(EngineConfig {
        jobs,
        cache_dir: Some(dir.to_path_buf()),
        no_cache: false,
    })
    .map_err(|e| e.to_string())
}

/// The set-up of one sweep: build the request and open an empty store.
fn setup(ctx: &Ctx, rep: usize) -> Result<(ExploreRequest, ExploreEngine, PathBuf), String> {
    let request = ExploreRequest::Sweep(config(ctx.seed));
    let dir = ctx.work.join(format!("sweep-{rep}"));
    let engine = engine_at(&dir, ctx.jobs)?;
    Ok((request, engine, dir))
}

/// One set-up in a process of its own (see `stats::setup_samples`).
///
/// # Errors
///
/// The store could not be opened.
pub fn setup_only(ctx: &Ctx) -> Result<(), String> {
    let ready = setup(ctx, 0)?;
    println!("ready");
    drop(ready);
    Ok(())
}

/// Digest of a sweep's cells (without the survivors aggregation).
fn cells_digest(cells: &[SweepCell]) -> u64 {
    let mut d = Digest::default();
    for cell in cells {
        d.str(&cell.app.to_string())
            .str(&cell.scenario.to_string())
            .str(&cell.mem.to_string())
            .logs(&cell.front);
    }
    d.finish()
}

/// Runs the workload: the set-up processes, then [`SWEEPS`] cold sweeps,
/// each on a fresh store, then (with `--trace 1`) one traced sweep.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let setups = setup_samples(NAME, ctx.seed, SETUPS)?;
    let cfg = config(ctx.seed);
    let cells = cfg.cells();
    let packets_per_cell = (cfg.candidates.len().pow(2) * cfg.packets_per_sim) as f64;

    let mut cell_ns = Vec::with_capacity(SWEEPS * cells);
    let mut sweep_ns = Vec::with_capacity(SWEEPS);
    let mut reference: Option<(u64, u64)> = None;
    for rep in 0..SWEEPS {
        let (request, mut engine, dir) = setup(ctx, rep)?;
        let start = Instant::now();
        let mut last = start;
        let result = dispatch_observed(&mut engine, &request, |_, _, _| {
            let now = Instant::now();
            cell_ns.push(nanos(now - last));
            last = now;
        });
        let stats = engine.stats();
        drop(engine); // publishes the store's tail, as the CLI does on exit
        sweep_ns.push(nanos(start.elapsed()));

        report.attempted += cells as u64;
        match result {
            Ok(ExploreResult::Sweep(matrix)) => {
                let whole = digest::result(&ExploreResult::Sweep(matrix.clone()));
                let (want, _) = *reference.get_or_insert((whole, cells_digest(&matrix.cells)));
                if whole != want {
                    report.fail(
                        cells as u64,
                        format!("sweep {rep}: digest {whole:016x} != {want:016x}"),
                    );
                } else if stats.hits != 0 || stats.misses != matrix.evaluations() {
                    report.fail(
                        cells as u64,
                        format!(
                            "sweep {rep}: not cold (hits {}, executed {})",
                            stats.hits, stats.misses
                        ),
                    );
                }
            }
            Ok(other) => report.fail(
                cells as u64,
                format!("sweep {rep}: {} result", other.mode()),
            ),
            Err(e) => report.fail(cells as u64, format!("sweep {rep}: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if let Some((whole, _)) = reference {
        report.check_golden(NAME, ctx.seed, whole);
    }

    let wall_ns: u64 = sweep_ns.iter().sum();
    let done = (report.attempted - report.failed) as f64;
    let latency = Latency::from_ns(cell_ns);
    let sweeps: Vec<f64> = sweep_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    report.e2e = EndToEnd {
        setup_s: median(&setups),
        sim_pkts_per_s: per_second(done * packets_per_cell, wall_ns),
        req_per_s: per_second(done, wall_ns),
        p50_ms: latency.p50_ms,
        tail_ms: latency.tail_ms,
        tail_pct: latency.tail_pct,
        samples: latency.count,
        cold_p50_ms: median(&sweeps),
    };
    report.note(
        "operations",
        format!(
            "{SETUPS} set-up processes; {SWEEPS} cold sweeps x {cells} cells (requests) x {} simulations x {} \
             packets; jobs={}",
            cfg.candidates.len().pow(2),
            cfg.packets_per_sim,
            ctx.jobs
        ),
    );
    report.note(
        "definitions",
        "request = one sweep cell; rates = work / summed sweep wall time; p50_ms/tail_ms over every \
         cell of every sweep; cold_p50_ms = median wall time of one whole cold sweep",
    );
    if ctx.trace {
        let want_cells = reference.map(|(_, c)| c);
        traced(ctx, &cfg, want_cells, &mut report)?;
    }
    Ok(report)
}

/// A sweep cell composed by [`compose_cell`].
struct Composed {
    /// The cell, as the sweep reports it.
    cell: SweepCell,
    /// Every unit's log, in candidate order.
    logs: Vec<SimLog>,
    /// Every unit's cache key, in candidate order.
    keys: Vec<CacheKey>,
    /// Units the engine executed (the rest were hits).
    executed: usize,
    /// Wall time of the engine batch.
    batch_ns: u64,
}

/// One sweep cell composed from the engine's public calls in the order
/// `explore_sweep_observed` makes them — the units' cache keys, the batch,
/// the Pareto front — inside a `core.cell` span.
fn compose_cell(
    t: &Tracer,
    req: u64,
    engine: &mut ExploreEngine,
    cfg: &SweepConfig,
    (app, scenario, mem): (AppKind, Scenario, MemoryPreset),
    (spec, fp): (&StreamSpec, u64),
) -> Result<Composed, String> {
    let mem_cfg = mem.config();
    let units: Vec<SimUnit> = combos_from(&cfg.candidates)
        .into_iter()
        .map(|combo| {
            SimUnit::from_source(
                app,
                combo,
                &cfg.params,
                TraceSource::Streamed(spec),
                fp,
                mem_cfg,
            )
        })
        .collect();
    t.span("core.cell", req, 1.0, || {
        let keys: Vec<CacheKey> = t.span("engine.key", req, units.len() as f64, || {
            units
                .iter()
                .map(|u| {
                    let key = u.key();
                    black_box(key.id());
                    key
                })
                .collect()
        });
        let before = engine.stats();
        let start = Instant::now();
        let logs = engine.try_evaluate_batch(&units);
        let end = Instant::now();
        let after = engine.stats();
        let logs = logs.map_err(|_| "composed cell cancelled".to_string())?;
        let executed = after.misses - before.misses;
        record_batch(
            t,
            req,
            units.len(),
            (after.hits - before.hits, executed),
            start,
            end,
        );
        let points: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
        let front = t.span("pareto.front", req, 1.0, || pareto_front_indices(&points));
        let cell = SweepCell {
            app,
            scenario,
            mem,
            network: spec.name().to_owned(),
            evaluations: logs.len(),
            front: front.into_iter().map(|i| logs[i].clone()).collect(),
        };
        Ok(Composed {
            cell,
            logs,
            keys,
            executed,
            batch_ns: nanos(end - start),
        })
    })
}

/// The traced pass: one more cold sweep composed cell by cell, serial
/// decomposed re-runs of sampled units, then the first cells' results
/// through the store probe.
fn traced(
    ctx: &Ctx,
    cfg: &SweepConfig,
    want_cells: Option<u64>,
    report: &mut Report,
) -> Result<(), String> {
    let t = Tracer::new();
    let dir = ctx.work.join("sweep-traced");
    let mut engine = engine_at(&dir, ctx.jobs)?;
    let mut rng = Rng::new(ctx.seed, TAG ^ 1);
    let mut cells = Vec::new();
    let mut entries = Vec::new();
    let (hits0, exec0) = obs_counters();
    let mut probes = Vec::new();
    for &app in &cfg.apps {
        for &scenario in &cfg.scenarios {
            let spec = scenario.stream_spec(cfg.base, cfg.packets_per_sim);
            let fp = t.span("engine.spec_fp", cells.len() as u64, 1.0, || {
                fingerprint_stream_spec(&spec)
            });
            for &mem in &cfg.mem_presets {
                let req = cells.len() as u64;
                let Composed {
                    cell,
                    logs,
                    keys,
                    executed,
                    batch_ns,
                } = compose_cell(&t, req, &mut engine, cfg, (app, scenario, mem), (&spec, fp))?;
                if cells.len() < STORE_PROBE_CELLS {
                    entries.extend(keys.into_iter().zip(logs.iter().cloned()));
                }
                // Serial re-runs of sampled units: the decomposed layers,
                // and the serial unit time behind the parallel efficiency.
                let combos = combos_from(&cfg.candidates);
                let mut serial = Vec::new();
                for _ in 0..PROBES_PER_CELL {
                    let i = rng.below(combos.len());
                    let (ok, ns, direct) = sim_probe(
                        &t,
                        req,
                        app,
                        combos[i],
                        &cfg.params,
                        Packets::Spec(&spec),
                        mem.config(),
                    );
                    probes.push(ok && same_report(&direct, &logs[i].report));
                    serial.push(ns as f64);
                }
                t.value("engine.serial_ns", median(&serial) * executed as f64);
                t.value("engine.parallel_ns", (ctx.jobs as u64 * batch_ns) as f64);
                cells.push(cell);
            }
        }
    }
    let (hits1, exec1) = obs_counters();
    drop(engine);
    let traced_ns: f64 = t.totals("core.cell").0;
    let own_executed: f64 = t.values("engine.executed").iter().sum();
    let own_hits: f64 = t.values("engine.hits").iter().sum();
    report.check(
        (exec1 - exec0) as f64 == own_executed && (hits1 - hits0) as f64 == own_hits,
        || {
            format!(
                "obs counters (executed {}, hits {}) disagree with the engine's ({own_executed}, {own_hits})",
                exec1 - exec0,
                hits1 - hits0
            )
        },
    );
    if let Some(want) = want_cells {
        let got = cells_digest(&cells);
        report.check(got == want, || {
            format!("traced sweep cells {got:016x} != {want:016x}")
        });
    }
    let bad = probes.iter().filter(|ok| !**ok).count();
    report.check(bad == 0, || {
        format!("{bad} decomposed simulations differ from the engine's")
    });
    store_stats(&t, &dir).map_err(|e| e.to_string())?;
    let ok =
        store_probe(&t, 0, &ctx.work.join("store-probe"), &entries).map_err(|e| e.to_string())?;
    report.check(ok, || "store probe read back different results".into());

    // The traced sweep's cells, against the untraced sweeps' median.
    t.value(
        "tracing.overhead_pct",
        (traced_ns / 1e6 / report.e2e.cold_p50_ms - 1.0) * 100.0,
    );
    report.note(
        "end-to-end (traced)",
        format!(
            "req_per_s={:.2} cold_p50_ms={:.3} over {} cells",
            cells.len() as f64 / (traced_ns / 1e9),
            traced_ns / 1e6,
            cells.len()
        ),
    );
    crate::finish_trace(ctx, NAME, &t, report);
    Ok(())
}
