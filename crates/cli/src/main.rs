//! `ddtr` — the automated exploration tool of the methodology.
//!
//! Subcommands mirror the paper's tool flow (Figure 2):
//!
//! ```text
//! ddtr profile  <app>                 # step 1a: dominant-DDT profiling
//! ddtr explore  <app> [--quick]       # steps 1-3: the full pipeline
//! ddtr pareto   <app> [--quick]       # step 3 charts for every config
//! ddtr report   <app> [--quick]       # table 1 / table 2 rows + headline
//! ddtr trace    <preset> <packets>    # emit a synthetic trace (text)
//! ddtr params   <preset> <packets>    # extract network parameters
//! ddtr replay   <logs.jsonl>          # step 3 from persisted step-2 logs
//! ddtr ga       <app> [--extended]    # heuristic (NSGA-II) exploration
//! ddtr scenarios [<app>]              # app x scenario Pareto matrix
//! ddtr sweep    [<app>] [--mem p,…]   # scenarios x platforms sweep
//! ddtr cache    stats|verify|compact|… # manage the persistent result store
//! ddtr serve    [--listen EP] [--workers N] # resident exploration fleet
//! ddtr query    <EP> <mode> [app]     # ask a running service
//! ddtr loadtest <EP> [--clients N]    # drive a service with concurrent load
//! ```
//!
//! Every simulating subcommand (`explore`, `pareto`, `report`, `ga`,
//! `scenarios`, `sweep`) runs on the [`ddtr_engine`] execution engine and
//! accepts:
//!
//! * `--jobs N` — worker threads (default: one per core),
//! * `--cache-dir <dir>` — persistent result cache (default
//!   `.ddtr-cache`),
//! * `--no-cache` — disable the persistent cache for this run,
//! * `--trace-json <file>` — write the run's recorded spans as Chrome
//!   trace-event JSON (loads in Perfetto / `chrome://tracing`).
//!
//! They also accept `--stream` and ignore it: the engine itself decides
//! whether a workload is generated once per batch or streamed into each
//! simulation (see `ddtr_engine::MATERIALIZE_MAX_PACKETS`).
//!
//! `profile`, `explore`, `pareto`, `report`, `ga`, `scenarios` and
//! `sweep` reject flags they do not take and stray positionals; the
//! application may come before or after the flags.
//!
//! Every simulating subcommand also takes `--mem <preset>` to pick the
//! platform from the memory-hierarchy catalog (`embedded`, `l2`,
//! `l2-small`, `deep`, `spm`); `ddtr sweep` takes a comma-separated list
//! and explores the whole scenarios × platforms matrix.
//!
//! A second `explore` over an unchanged configuration answers from the
//! cache and is near-instant.
//!
//! `explore --logs <path>` persists the step-2 simulation logs as JSON
//! lines, which `replay` turns back into Pareto sets without
//! re-simulating — the decoupling of the original tool flow.
//!
//! `serve` keeps a fleet of worker engine sessions resident and answers
//! exploration requests over a newline-delimited JSON protocol (stdio by
//! default, `--listen tcp:<addr>` / `--listen unix:<path>` for sockets),
//! with `--workers N` parallel sessions, optional `--auth-token`,
//! per-connection `--rate-limit` / `--max-inflight` budgets, a
//! `--max-request-bytes` line ceiling, a `--max-conns` connection gate
//! and `--daemon`/`--pid-file` for background operation; `query` is the
//! matching client and `loadtest` drives a running service with
//! concurrent clients, reporting p50/p99 latencies. See
//! `docs/PROTOCOL.md` for the wire format.

use ddtr_apps::AppKind;
use ddtr_core::{
    explore_heuristic_with, explore_pareto_level, explore_scenarios_with, explore_sweep_observed,
    headline_comparison, profile_application, read_logs, render_pareto_chart, step2_from_logs,
    table1_markdown, table2_markdown, write_logs, EngineConfig, ExploreEngine, ExploreResult,
    GaConfig, MemoryPreset, Methodology, MethodologyConfig, ParetoChartPlane, ScenarioConfig,
    SweepConfig,
};
use ddtr_ddt::DdtKind;
use ddtr_engine::SimCache;
use ddtr_serve::loadtest::LoadtestConfig;
use ddtr_serve::{Client, Endpoint, Event, JobSpec, Request, RequestBody, Server, ServerConfig};
use ddtr_trace::{NetworkParams, NetworkPreset, Scenario, TraceWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ddtr: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  ddtr profile <route|url|ipchains|drr|nat> [--quick] [--extended] [--mem <preset>]
  ddtr explore <route|url|ipchains|drr|nat> [--quick] [--extended] [--json]
               [--logs <path>] [--mem <preset>] [engine flags]
  ddtr pareto  <route|url|ipchains|drr|nat> [--quick] [--extended]
               [--mem <preset>] [engine flags]
  ddtr report  <route|url|ipchains|drr|nat> [--quick] [--extended]
               [--mem <preset>] [engine flags]
  ddtr trace   <preset> <packets>
  ddtr params  <preset> <packets>
  ddtr replay  <logs.jsonl>
  ddtr ga      <route|url|ipchains|drr|nat> [--quick] [--extended] [--seed N]
               [--stall N] [--mem <preset>] [engine flags]
  ddtr scenarios [<route|url|ipchains|drr|nat>] [--quick] [--extended] [--base <preset>]
               [--packets N] [--mem <preset>] [engine flags]
  ddtr sweep   [<route|url|ipchains|drr|nat>] [--quick] [--extended] [--base <preset>]
               [--packets N] [--mem <preset>,...] [--scenario <name>]... [engine flags]
  ddtr cache   stats|clear|verify|compact [--cache-dir <dir>]
  ddtr cache   import|export <file.jsonl> [--cache-dir <dir>]
  ddtr serve   [--listen stdio|tcp:<addr>|unix:<path>] [--workers N]
               [--auth-token T] [--max-conns N] [--max-inflight N]
               [--rate-limit N] [--max-request-bytes N]
               [--daemon] [--pid-file <path>] [engine flags]
  ddtr query   <tcp:<addr>|unix:<path>> <explore|ga|scenarios|sweep|headline|metrics> [app]
               [--quick] [--extended] [--stream] [--base <preset>] [--packets N]
               [--seed N] [--scenario <name>]... [--mem <preset>[,...]]
               [--id ID] [--json] [--quiet]
  ddtr loadtest <tcp:<addr>|unix:<path>> [--clients N] [--pings N] [--explores N]
               [--apps a,b,...] [--full] [--auth-token T] [--connect-retries N]
               [--p99-ms N] [--json]
  ddtr presets
  ddtr mem-presets

engine flags (simulating subcommands):
  --jobs N           worker threads per batch (default: one per core)
  --cache-dir <dir>  persistent result cache (default: .ddtr-cache)
  --no-cache         do not read or write the persistent cache
  --trace-json <f>   write the run's spans as Chrome trace-event JSON
                     (loads in Perfetto / chrome://tracing)

profile through sweep reject flags they do not take; --stream is
accepted and ignored (the engine picks how packets reach the
simulator). `ddtr scenarios` runs the app x scenario matrix (baseline,
bursty, flash-crowd, ddos-syn, phase-shift) over the base network.

--mem picks the platform from the memory-hierarchy catalog (`ddtr
mem-presets` lists it). `ddtr sweep` takes a comma-separated list and
runs the scenarios x platforms matrix, reporting which DDT combinations
stay Pareto-optimal across the platform family.

`ddtr serve` answers exploration requests over newline-delimited JSON
(docs/PROTOCOL.md) from a resident fleet of worker engine sessions;
`ddtr query` is the matching client and `ddtr loadtest` drives a
running service with concurrent clients, reporting p50/p99 latencies
and exiting non-zero on dropped connections, protocol errors or a
broken --p99-ms bound.";

/// Default location of the persistent result cache.
const DEFAULT_CACHE_DIR: &str = ".ddtr-cache";

/// The `--jobs` engine flag (worker threads per batch).
const FLAG_JOBS: &str = "--jobs";

/// The `--cache-dir` engine flag (persistent result cache location).
const FLAG_CACHE_DIR: &str = "--cache-dir";

/// The `--mem` platform flag (memory-hierarchy preset; comma-separated
/// list on `ddtr sweep`).
const FLAG_MEM: &str = "--mem";

/// The `--trace-json` observability flag (write the recorded spans as
/// Chrome trace-event JSON after the run).
const FLAG_TRACE_JSON: &str = "--trace-json";

/// Engine flags that consume a value. `engine_from`/`cache_dir_of` parse
/// exactly these constants and the strict positional scanner skips them,
/// so adding a value-taking engine flag cannot desynchronise the two.
const ENGINE_VALUE_FLAGS: [&str; 3] = [FLAG_JOBS, FLAG_CACHE_DIR, FLAG_TRACE_JSON];

/// The flags an application-taking subcommand accepts beyond `--quick`,
/// `--extended` and the no-op `--stream`: its value flags, its boolean
/// flags, and whether the engine flags (`ENGINE_VALUE_FLAGS`,
/// `--no-cache`) apply.
fn command_flags(subcommand: &str) -> (&'static [&'static str], &'static [&'static str], bool) {
    match subcommand {
        "profile" => (&[FLAG_MEM], &[], false),
        "explore" => (&[FLAG_MEM, "--logs"], &["--json"], true),
        "ga" => (&[FLAG_MEM, "--seed", "--stall"], &[], true),
        "scenarios" => (&["--base", "--packets", FLAG_MEM], &[], true),
        "sweep" => (&["--base", "--packets", FLAG_MEM, "--scenario"], &[], true),
        _ => (&[FLAG_MEM], &[], true), // pareto, report
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "profile" => profile(&rest),
        "explore" => explore(&rest),
        "pareto" => pareto(&rest),
        "report" => report(&rest),
        "trace" => trace(&rest),
        "params" => params(&rest),
        "replay" => replay(&rest),
        "ga" => ga(&rest),
        "scenarios" => scenarios(&rest),
        "sweep" => sweep(&rest),
        "cache" => cache(&rest),
        "serve" => serve(&rest),
        "query" => query(&rest),
        "loadtest" => loadtest(&rest),
        "mem-presets" => {
            for p in MemoryPreset::ALL {
                println!("{:10} {}", p.to_string(), p.describe());
            }
            Ok(())
        }
        "presets" => {
            for p in NetworkPreset::ALL {
                let s = p.spec();
                println!(
                    "{p:10} nodes={:4} rate={:6.0}pps flows={:3} mtu={}",
                    s.nodes, s.mean_rate_pps, s.flows, s.sizes.mtu
                );
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Parses the value following a `--flag`, if the flag is present. A
/// following token that is itself a flag does not count as a value, so a
/// forgotten argument errors instead of silently consuming the next flag.
fn flag_value<'a>(rest: &[&'a String], flag: &str) -> Result<Option<&'a String>, String> {
    match rest.iter().position(|a| a.as_str() == flag) {
        Some(pos) => match rest.get(pos + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(*v)),
            _ => Err(format!("{flag} needs a value")),
        },
        None => Ok(None),
    }
}

/// The values of a repeatable `--flag`, one per occurrence (empty when
/// the flag is absent).
fn repeated_flag_values<'a>(rest: &[&'a String], flag: &str) -> Result<Vec<&'a String>, String> {
    rest.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == flag)
        .map(|(i, _)| match rest.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(*v),
            _ => Err(format!("{flag} needs a value")),
        })
        .collect()
}

/// Strict argument scan of an application-taking subcommand: every flag
/// must be one [`command_flags`] lists for `cmd`, and at most one bare
/// positional — the application — is allowed. Unknown flags and stray
/// positionals are errors, not silently ignored.
fn scan_app_positional<'a>(rest: &[&'a String], cmd: &str) -> Result<Option<&'a String>, String> {
    let (values, bools, engine) = command_flags(cmd);
    let takes_value = |a: &str| values.contains(&a) || (engine && ENGINE_VALUE_FLAGS.contains(&a));
    let is_bool = |a: &str| {
        ["--quick", "--extended", "--stream"].contains(&a)
            || bools.contains(&a)
            || (engine && a == "--no-cache")
    };
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        if takes_value(arg) {
            match rest.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => return Err(format!("{arg} needs a value")),
            }
        } else if is_bool(arg) {
            i += 1;
        } else if arg.starts_with("--") {
            return Err(format!("unknown {cmd} flag `{arg}`"));
        } else {
            positionals.push(rest[i]);
            i += 1;
        }
    }
    match positionals.as_slice() {
        [] => Ok(None),
        [app] => Ok(Some(*app)),
        more => Err(format!(
            "{cmd} takes at most one application, got {}",
            more.len()
        )),
    }
}

/// The cache directory a command addresses: `--cache-dir` or the default.
fn cache_dir_of(rest: &[&String]) -> Result<PathBuf, String> {
    Ok(flag_value(rest, FLAG_CACHE_DIR)?
        .map_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR), PathBuf::from))
}

/// Parses the shared engine flags into an [`EngineConfig`].
fn engine_config_from(rest: &[&String]) -> Result<EngineConfig, String> {
    let jobs: usize = match flag_value(rest, FLAG_JOBS)? {
        Some(v) => v.parse().map_err(|e| format!("bad --jobs value: {e}"))?,
        None => 0,
    };
    let no_cache = rest.iter().any(|a| a.as_str() == "--no-cache");
    let cache_dir = if no_cache {
        None
    } else {
        Some(cache_dir_of(rest)?)
    };
    Ok(EngineConfig {
        jobs,
        cache_dir,
        no_cache,
    })
}

/// Builds the execution engine from the shared engine flags.
fn engine_from(rest: &[&String]) -> Result<ExploreEngine, String> {
    ExploreEngine::new(engine_config_from(rest)?).map_err(|e| e.to_string())
}

/// Writes the spans recorded during the run as Chrome trace-event JSON
/// when `--trace-json <file>` was given. The file loads directly in
/// Perfetto or `chrome://tracing`.
fn write_trace_if_requested(rest: &[&String]) -> Result<(), String> {
    if let Some(path) = flag_value(rest, FLAG_TRACE_JSON)? {
        ddtr_obs::write_chrome_trace(Path::new(path.as_str()))
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("wrote {} spans to {path}", ddtr_obs::trace_len());
    }
    Ok(())
}

/// The one-line engine summary printed after a simulating run.
fn engine_summary(report: &ddtr_core::EngineReport) -> String {
    format!(
        "engine: jobs={} cache_hits={} executed={}",
        report.jobs, report.cache_hits, report.executed
    )
}

/// [`engine_summary`] over an engine's lifetime counters (for subcommands
/// without a pipeline [`ddtr_core::EngineReport`]).
fn engine_stats_line(engine: &ExploreEngine) -> String {
    let stats = engine.stats();
    engine_summary(&ddtr_core::EngineReport {
        jobs: engine.jobs(),
        cache_hits: stats.hits,
        executed: stats.misses,
    })
}

/// The application of a subcommand that requires one.
fn required_app(rest: &[&String], cmd: &str) -> Result<AppKind, String> {
    scan_app_positional(rest, cmd)?
        .ok_or("missing application name")?
        .parse()
        .map_err(|e| format!("{e}"))
}

fn parse_app(rest: &[&String], cmd: &str) -> Result<(AppKind, MethodologyConfig), String> {
    let app = required_app(rest, cmd)?;
    let quick = rest.iter().any(|a| a.as_str() == "--quick");
    let mut cfg = if quick {
        MethodologyConfig::quick(app)
    } else {
        MethodologyConfig::paper(app)
    };
    if rest.iter().any(|a| a.as_str() == "--extended") {
        cfg.candidates = DdtKind::EXTENDED.to_vec();
    }
    if let Some(name) = flag_value(rest, FLAG_MEM)? {
        cfg.mem = name.parse::<MemoryPreset>()?.config();
    }
    Ok((app, cfg))
}

fn profile(rest: &[&String]) -> Result<(), String> {
    let (app, cfg) = parse_app(rest, "profile")?;
    let report = profile_application(&cfg).map_err(|e| e.to_string())?;
    println!("# dominant-DDT profile of {app}");
    for slot in &report.slots {
        let marker = if report.dominant.contains(&slot.name) {
            "DOMINANT"
        } else {
            "minor"
        };
        println!(
            "{:16} {:>12} accesses  {:>8} ops  [{marker}]",
            slot.name,
            slot.counts.accesses,
            slot.counts.total_ops()
        );
    }
    println!(
        "dominant set covers {:.1}% of container accesses",
        report.dominant_share * 100.0
    );
    Ok(())
}

fn explore(rest: &[&String]) -> Result<(), String> {
    let (app, cfg) = parse_app(rest, "explore")?;
    let mut engine = engine_from(rest)?;
    let outcome = Methodology::new(cfg)
        .run_with(&mut engine)
        .map_err(|e| e.to_string())?;
    write_trace_if_requested(rest)?;
    if let Some(path) = flag_value(rest, "--logs")? {
        let file = std::fs::File::create(path.as_str()).map_err(|e| e.to_string())?;
        write_logs(&outcome.step2.logs, std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {} step-2 logs to {path}", outcome.step2.logs.len());
    }
    if rest.iter().any(|a| a.as_str() == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("# exploration of {app}");
    println!(
        "step 1: {} simulations, {} survivors ({:.0}% pruned)",
        outcome.step1.measurements.len(),
        outcome.step1.survivors.len(),
        outcome.step1.pruned_fraction() * 100.0
    );
    println!(
        "step 2: {} simulations over {} configurations",
        outcome.step2.simulations(),
        outcome.config.configurations()
    );
    println!(
        "step 3: {} Pareto-optimal combinations:",
        outcome.pareto.global_front.len()
    );
    for p in &outcome.pareto.global_front {
        println!("  {:20} {}", p.combo, p.report);
    }
    println!(
        "total: {} of {} exhaustive simulations ({:.0}% reduction)",
        outcome.counts.reduced,
        outcome.counts.exhaustive,
        outcome.counts.reduction() * 100.0
    );
    println!("{}", engine_summary(&outcome.engine));
    Ok(())
}

fn pareto(rest: &[&String]) -> Result<(), String> {
    let (app, cfg) = parse_app(rest, "pareto")?;
    let mut engine = engine_from(rest)?;
    let outcome = Methodology::new(cfg)
        .run_with(&mut engine)
        .map_err(|e| e.to_string())?;
    write_trace_if_requested(rest)?;
    println!("# Pareto exploration spaces of {app}");
    for front in &outcome.pareto.per_config {
        let logs = outcome.step2.logs_for(&front.config_key);
        println!("\n== {} ==", front.config_key);
        println!(
            "{}",
            render_pareto_chart(&logs, ParetoChartPlane::TimeEnergy)
        );
        println!("Pareto-optimal: {}", front.front.len());
        for p in &front.front {
            println!("  {:20} {}", p.combo, p.report);
        }
    }
    Ok(())
}

fn report(rest: &[&String]) -> Result<(), String> {
    let (app, cfg) = parse_app(rest, "report")?;
    let mut engine = engine_from(rest)?;
    let outcome = Methodology::new(cfg.clone())
        .run_with(&mut engine)
        .map_err(|e| e.to_string())?;
    write_trace_if_requested(rest)?;
    println!("{}", table1_markdown(&[&outcome]));
    println!("{}", table2_markdown(&[&outcome]));
    let headline = headline_comparison(&cfg, &outcome).map_err(|e| e.to_string())?;
    println!("# headline vs original ({app}, both dominant DDTs = SLL)");
    println!(
        "energy saving (best-energy point {}): {:.0}%",
        headline.best_energy_combo,
        headline.energy_saving() * 100.0
    );
    println!(
        "time improvement (best-time point {}): {:.0}%",
        headline.best_time_combo,
        headline.time_improvement() * 100.0
    );
    Ok(())
}

fn trace(rest: &[&String]) -> Result<(), String> {
    let preset: NetworkPreset = rest.first().ok_or("missing preset")?.parse()?;
    let packets: usize = rest
        .get(1)
        .ok_or("missing packet count")?
        .parse()
        .map_err(|e| format!("bad packet count: {e}"))?;
    print!("{}", TraceWriter::to_string(&preset.generate(packets)));
    Ok(())
}

fn params(rest: &[&String]) -> Result<(), String> {
    let preset: NetworkPreset = rest.first().ok_or("missing preset")?.parse()?;
    let packets: usize = rest
        .get(1)
        .ok_or("missing packet count")?
        .parse()
        .map_err(|e| format!("bad packet count: {e}"))?;
    let p = NetworkParams::extract(&preset.generate(packets));
    println!("network        : {}", p.network);
    println!("nodes observed : {}", p.nodes_observed);
    println!("duration       : {:.3} s", p.duration_s);
    println!(
        "throughput     : {:.0} pps / {:.0} bps",
        p.throughput_pps, p.throughput_bps
    );
    println!(
        "mean pkt size  : {:.1} B (MTU {})",
        p.mean_packet_bytes, p.mtu_bytes
    );
    let [s, m, l] = p.sizes.shares();
    println!(
        "size mix       : {:.0}% small / {:.0}% medium / {:.0}% large",
        s * 100.0,
        m * 100.0,
        l * 100.0
    );
    println!("flows observed : {}", p.flows_observed);
    println!("url share      : {:.1}%", p.url_share * 100.0);
    println!("mean train len : {:.2} pkts", p.mean_train_len);
    println!("gap p99/median : {:.1}x", p.gap_p99_over_median);
    Ok(())
}

fn replay(rest: &[&String]) -> Result<(), String> {
    let path = rest.first().ok_or("missing log file")?;
    let file = std::fs::File::open(path.as_str()).map_err(|e| e.to_string())?;
    let logs = read_logs(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let n = logs.len();
    let pareto = explore_pareto_level(&step2_from_logs(logs)).map_err(|e| e.to_string())?;
    println!("# step 3 replayed from {n} persisted logs");
    println!("{} Pareto-optimal combinations:", pareto.global_front.len());
    for p in &pareto.global_front {
        println!("  {:20} {}", p.combo, p.report);
    }
    Ok(())
}

fn ga(rest: &[&String]) -> Result<(), String> {
    let app = required_app(rest, "ga")?;
    let mut cfg = if rest.iter().any(|a| a.as_str() == "--quick") {
        GaConfig::quick(app)
    } else {
        GaConfig::paper(app)
    };
    if rest.iter().any(|a| a.as_str() == "--extended") {
        cfg.candidates = DdtKind::EXTENDED.to_vec();
    }
    if let Some(seed) = flag_value(rest, "--seed")? {
        cfg.seed = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
    }
    if let Some(stall) = flag_value(rest, "--stall")? {
        cfg.stall_generations = Some(
            stall
                .parse()
                .map_err(|e| format!("bad stall window: {e}"))?,
        );
    }
    if let Some(name) = flag_value(rest, FLAG_MEM)? {
        cfg.mem = name.parse::<MemoryPreset>()?.config();
    }
    let space = cfg.candidates.len().pow(2);
    let mut engine = engine_from(rest)?;
    let outcome = explore_heuristic_with(&mut engine, &cfg).map_err(|e| e.to_string())?;
    write_trace_if_requested(rest)?;
    println!("# heuristic (NSGA-II) exploration of {app}");
    println!(
        "candidates: {} kinds ({} combinations), seed {}",
        cfg.candidates.len(),
        space,
        cfg.seed
    );
    for h in &outcome.history {
        println!(
            "generation {:2}: {:3} simulations, archive front {:2}",
            h.generation, h.evaluations, h.front_size
        );
    }
    println!(
        "\n{} simulations of {} exhaustive ({:.0}% saved); front:",
        outcome.evaluations,
        space,
        100.0 * (1.0 - outcome.evaluations as f64 / space as f64)
    );
    for log in &outcome.front {
        println!("  {:20} {}", log.combo, log.report);
    }
    println!("{}", engine_stats_line(&engine));
    Ok(())
}

fn scenarios(rest: &[&String]) -> Result<(), String> {
    let base: NetworkPreset = match flag_value(rest, "--base")? {
        Some(v) => v.parse()?,
        None => NetworkPreset::DartmouthBerry,
    };
    let mut cfg = if rest.iter().any(|a| a.as_str() == "--quick") {
        ScenarioConfig::quick(base)
    } else {
        ScenarioConfig::paper(base)
    };
    if rest.iter().any(|a| a.as_str() == "--extended") {
        cfg.candidates = DdtKind::EXTENDED.to_vec();
    }
    if let Some(app) = scan_app_positional(rest, "scenarios")? {
        cfg.apps = vec![app.parse().map_err(|e| format!("{e}"))?];
    }
    if let Some(packets) = flag_value(rest, "--packets")? {
        cfg.packets_per_sim = packets
            .parse()
            .map_err(|e| format!("bad packet count: {e}"))?;
    }
    if let Some(name) = flag_value(rest, FLAG_MEM)? {
        cfg.mem = name.parse::<MemoryPreset>()?.config();
    }
    let mut engine = engine_from(rest)?;
    let matrix = explore_scenarios_with(&mut engine, &cfg).map_err(|e| e.to_string())?;
    write_trace_if_requested(rest)?;
    println!(
        "# scenario matrix over {base}: {} apps x {} scenarios, {} packets/sim (streamed)",
        cfg.apps.len(),
        cfg.scenarios.len(),
        cfg.packets_per_sim
    );
    for cell in &matrix.cells {
        println!(
            "\n== {} under {} ({}) ==",
            cell.app, cell.scenario, cell.network
        );
        println!(
            "{} combinations evaluated, {} Pareto-optimal:",
            cell.evaluations,
            cell.front.len()
        );
        for log in &cell.front {
            println!("  {:20} {}", log.combo, log.report);
        }
    }
    // Scenario columns often shift the front — summarise the shift per app.
    for &app in &cfg.apps {
        let mut fronts: Vec<(Scenario, Vec<String>)> = Vec::new();
        for &scenario in &cfg.scenarios {
            if let Some(cell) = matrix.cell(app, scenario) {
                fronts.push((scenario, cell.front_labels()));
            }
        }
        if let Some((_, baseline)) = fronts.first() {
            let shifted = fronts[1..]
                .iter()
                .filter(|(_, labels)| labels != baseline)
                .count();
            println!(
                "\n{app}: {shifted} of {} scenarios shift the Pareto front vs {}",
                fronts.len().saturating_sub(1),
                fronts[0].0
            );
        }
    }
    println!("\n{}", engine_stats_line(&engine));
    Ok(())
}

fn sweep(rest: &[&String]) -> Result<(), String> {
    let base: NetworkPreset = match flag_value(rest, "--base")? {
        Some(v) => v.parse()?,
        None => NetworkPreset::DartmouthBerry,
    };
    let mut cfg = if rest.iter().any(|a| a.as_str() == "--quick") {
        SweepConfig::quick(base)
    } else {
        SweepConfig::paper(base)
    };
    if rest.iter().any(|a| a.as_str() == "--extended") {
        cfg.candidates = DdtKind::EXTENDED.to_vec();
    }
    if let Some(app) = scan_app_positional(rest, "sweep")? {
        cfg.apps = vec![app.parse().map_err(|e| format!("{e}"))?];
    }
    let scenario_names = repeated_flag_values(rest, "--scenario")?;
    if !scenario_names.is_empty() {
        cfg.scenarios = scenario_names
            .iter()
            .map(|n| n.parse::<Scenario>())
            .collect::<Result<_, _>>()?;
    }
    if let Some(packets) = flag_value(rest, "--packets")? {
        cfg.packets_per_sim = packets
            .parse()
            .map_err(|e| format!("bad packet count: {e}"))?;
    }
    if let Some(list) = flag_value(rest, FLAG_MEM)? {
        cfg.mem_presets = list
            .split(',')
            .map(|n| n.parse::<MemoryPreset>())
            .collect::<Result<_, _>>()?;
    }
    let mut engine = engine_from(rest)?;
    println!(
        "# platform sweep over {base}: {} apps x {} scenarios x {} platforms, {} packets/sim (streamed)",
        cfg.apps.len(),
        cfg.scenarios.len(),
        cfg.mem_presets.len(),
        cfg.packets_per_sim
    );
    // Cells print as they complete — the sweep streams on the CLI too.
    let matrix = explore_sweep_observed(&mut engine, &cfg, |cell, done, total| {
        println!(
            "\n== [{done}/{total}] {} under {} on {} ({}) ==",
            cell.app, cell.scenario, cell.mem, cell.network
        );
        println!(
            "{} combinations evaluated, {} Pareto-optimal:",
            cell.evaluations,
            cell.front.len()
        );
        for log in &cell.front {
            println!("  {:20} {}", log.combo, log.report);
        }
    })
    .map_err(|e| e.to_string())?;
    write_trace_if_requested(rest)?;
    // The cross-platform answer: who survives on how many cells?
    let cells = matrix.cells.len();
    println!("\n# cross-platform survivors ({cells} cells)");
    for s in &matrix.survivors {
        let marker = if s.cells_on_front == cells {
            "  [every cell]"
        } else {
            ""
        };
        println!(
            "  {:20} on {:3} of {cells} fronts{marker}",
            s.combo, s.cells_on_front
        );
    }
    let robust = matrix.robust_combos(cells);
    println!(
        "{} of {} front combinations survive the whole platform family",
        robust.len(),
        matrix.survivors.len()
    );
    println!("\n{}", engine_stats_line(&engine));
    Ok(())
}

/// Marker variable distinguishing the daemonized `ddtr serve` child from
/// the foreground parent that spawned it.
const ENV_SERVE_DAEMONIZED: &str = "DDTR_SERVE_DAEMONIZED";

/// Parses the hardened-edge flags of `ddtr serve` into a
/// [`ServerConfig`] on top of the shared engine flags.
fn server_config_from(rest: &[&String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::new(engine_config_from(rest)?);
    if let Some(v) = flag_value(rest, "--workers")? {
        cfg.workers = v.parse().map_err(|e| format!("bad --workers value: {e}"))?;
    }
    if let Some(v) = flag_value(rest, "--auth-token")? {
        cfg.auth_token = Some(v.clone());
    }
    if let Some(v) = flag_value(rest, "--max-conns")? {
        cfg.max_connections = v
            .parse()
            .map_err(|e| format!("bad --max-conns value: {e}"))?;
    }
    if let Some(v) = flag_value(rest, "--max-inflight")? {
        cfg.max_inflight = v
            .parse()
            .map_err(|e| format!("bad --max-inflight value: {e}"))?;
    }
    if let Some(v) = flag_value(rest, "--rate-limit")? {
        cfg.rate_limit = Some(
            v.parse()
                .map_err(|e| format!("bad --rate-limit value: {e}"))?,
        );
    }
    if let Some(v) = flag_value(rest, "--max-request-bytes")? {
        cfg.max_request_bytes = v
            .parse()
            .map_err(|e| format!("bad --max-request-bytes value: {e}"))?;
    }
    Ok(cfg)
}

/// Re-executes `ddtr serve` detached from the terminal (null stdio, the
/// marker env var set), records the child pid, and returns in the
/// parent. The child is killed again if the pidfile cannot be written —
/// a daemon nobody can find is worse than no daemon.
fn daemonize_serve(pid_file: Option<&Path>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut child = std::process::Command::new(exe)
        .args(&args)
        .env(ENV_SERVE_DAEMONIZED, "1")
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot daemonize: {e}"))?;
    let pid = child.id();
    if let Some(path) = pid_file {
        if let Err(e) = ddtr_serve::write_pidfile(path, pid) {
            let _ = child.kill();
            return Err(e.to_string());
        }
    }
    println!("ddtr serve: daemonized as pid {pid}");
    Ok(())
}

fn serve(rest: &[&String]) -> Result<(), String> {
    let endpoint: Endpoint = match flag_value(rest, "--listen")? {
        Some(raw) => raw.parse()?,
        None => Endpoint::Stdio,
    };
    let pid_file = flag_value(rest, "--pid-file")?.map(PathBuf::from);
    let daemon_requested = rest.iter().any(|a| a.as_str() == "--daemon");
    let is_daemon_child = std::env::var_os(ENV_SERVE_DAEMONIZED).is_some();
    if daemon_requested && !is_daemon_child {
        if endpoint == Endpoint::Stdio {
            return Err(
                "--daemon needs a socket endpoint (--listen tcp:<addr> or unix:<path>)".to_string(),
            );
        }
        return daemonize_serve(pid_file.as_deref());
    }
    if let Some(path) = &pid_file {
        // The daemon parent already recorded the child's pid; everyone
        // else (foreground or daemon child without a parent-written
        // file) records their own.
        if !is_daemon_child {
            ddtr_serve::write_pidfile(path, std::process::id()).map_err(|e| e.to_string())?;
        }
    }
    let server = Server::with_config(server_config_from(rest)?).map_err(|e| e.to_string())?;
    server.listen(&endpoint).map_err(|e| e.to_string())
}

/// Drives a running service with concurrent scripted clients and prints
/// the latency/cleanliness report (`ddtr loadtest`). Exits non-zero when
/// the run was not clean or broke the `--p99-ms` bound, so CI can gate
/// on the bare exit code.
fn loadtest(rest: &[&String]) -> Result<(), String> {
    let endpoint: Endpoint = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("loadtest needs an endpoint (tcp:<addr> or unix:<path>)")?
        .parse()?;
    if endpoint == Endpoint::Stdio {
        return Err("loadtest needs a socket endpoint (stdio serves exactly one client)".into());
    }
    let mut cfg = LoadtestConfig::new(endpoint);
    if let Some(v) = flag_value(rest, "--clients")? {
        cfg.clients = v.parse().map_err(|e| format!("bad --clients value: {e}"))?;
    }
    if let Some(v) = flag_value(rest, "--pings")? {
        cfg.pings = v.parse().map_err(|e| format!("bad --pings value: {e}"))?;
    }
    if let Some(v) = flag_value(rest, "--explores")? {
        cfg.explores = v
            .parse()
            .map_err(|e| format!("bad --explores value: {e}"))?;
    }
    if rest.iter().any(|a| a.as_str() == "--full") {
        cfg.quick = false;
    }
    if let Some(list) = flag_value(rest, "--apps")? {
        cfg.apps = list.split(',').map(str::to_string).collect();
    }
    if let Some(v) = flag_value(rest, "--auth-token")? {
        cfg.auth = Some(v.clone());
    }
    if let Some(v) = flag_value(rest, "--connect-retries")? {
        cfg.connect_retries = v
            .parse()
            .map_err(|e| format!("bad --connect-retries value: {e}"))?;
    }
    let p99_bound_ms: Option<u64> = match flag_value(rest, "--p99-ms")? {
        Some(v) => Some(v.parse().map_err(|e| format!("bad --p99-ms value: {e}"))?),
        None => None,
    };
    let report = ddtr_serve::loadtest::run(&cfg);
    if rest.iter().any(|a| a.as_str() == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("# loadtest against {}", cfg.endpoint);
        println!(
            "clients : {} configured, {} completed, {} dropped",
            report.clients, report.completed_clients, report.dropped_connections
        );
        println!("errors  : {} protocol error(s)", report.protocol_errors);
        println!(
            "engine  : executed={} cache_hits={}",
            report.executed, report.cache_hits
        );
        for (name, lat) in [("ping", &report.ping), ("explore", &report.explore)] {
            println!(
                "{name:8}: n={} p50={}us p99={}us max={}us",
                lat.count, lat.p50_us, lat.p99_us, lat.max_us
            );
        }
        println!("wall    : {}ms", report.wall_ms);
    }
    if !report.clean() {
        return Err(format!(
            "loadtest was not clean: {} dropped connection(s), {} protocol error(s)",
            report.dropped_connections, report.protocol_errors
        ));
    }
    if let Some(bound_ms) = p99_bound_ms {
        let worst_us = report.ping.p99_us.max(report.explore.p99_us);
        if worst_us > bound_ms.saturating_mul(1000) {
            return Err(format!(
                "p99 latency {worst_us}us exceeds the --p99-ms bound of {bound_ms}ms"
            ));
        }
    }
    Ok(())
}

/// Builds the `Run` job spec of a `ddtr query` invocation from its
/// CLI-style arguments (everything after the endpoint).
/// Query flags that consume a value. The positional scanner in
/// [`query_spec`] skips exactly these constants, and the extraction below
/// it reads the same names through [`flag_value`], so adding a
/// value-taking query flag cannot desynchronise the two.
const QUERY_VALUE_FLAGS: [&str; 6] = [
    "--base",
    "--packets",
    "--seed",
    "--scenario",
    "--id",
    FLAG_MEM,
];

fn query_spec(rest: &[&String]) -> Result<JobSpec, String> {
    let mut spec = JobSpec::default();
    let mut positionals: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => spec.quick = true,
            "--extended" => spec.extended = true,
            "--stream" => spec.stream = true,
            "--json" | "--quiet" => {} // handled by `query` itself
            flag if QUERY_VALUE_FLAGS.contains(&flag) => i += 1,
            flag if flag.starts_with("--") => return Err(format!("unknown query flag `{flag}`")),
            _ => positionals.push(rest[i]),
        }
        i += 1;
    }
    match positionals.as_slice() {
        [] => return Err("query needs a mode (explore, ga, scenarios, sweep or headline)".into()),
        [mode] => spec.mode = Some((*mode).clone()),
        [mode, app] => {
            spec.mode = Some((*mode).clone());
            spec.app = Some((*app).clone());
        }
        more => {
            return Err(format!(
                "query takes mode [app], got {} positionals",
                more.len()
            ))
        }
    }
    spec.base = flag_value(rest, "--base")?.cloned();
    if let Some(packets) = flag_value(rest, "--packets")? {
        spec.packets = Some(
            packets
                .parse()
                .map_err(|e| format!("bad packet count: {e}"))?,
        );
    }
    if let Some(seed) = flag_value(rest, "--seed")? {
        spec.seed = Some(seed.parse().map_err(|e| format!("bad seed: {e}"))?);
    }
    // `--scenario` may repeat; collect every occurrence.
    let scenarios = repeated_flag_values(rest, "--scenario")?;
    if !scenarios.is_empty() {
        spec.scenarios = Some(scenarios.into_iter().cloned().collect());
    }
    // `--mem` takes one preset (single-platform modes) or a
    // comma-separated platform axis (sweep); the spec carries the list
    // and the server enforces arity per mode.
    if let Some(list) = flag_value(rest, FLAG_MEM)? {
        spec.mem = Some(list.split(',').map(str::to_string).collect());
    }
    Ok(spec)
}

/// Fetches the server's metrics exposition (Prometheus-style text) and
/// prints it verbatim. `metrics` is not an exploration mode, so it skips
/// [`query_spec`] entirely.
fn query_metrics(endpoint: &Endpoint, rest: &[&String]) -> Result<(), String> {
    let id = flag_value(rest, "--id")?
        .cloned()
        .unwrap_or_else(|| "m1".to_string());
    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
    let reply = client
        .call(&Request::new(id, RequestBody::Metrics), |_| {})
        .map_err(|e| e.to_string())?;
    match reply {
        Event::Metrics { text, .. } => {
            print!("{text}");
            Ok(())
        }
        Event::Error { error, .. } => Err(error),
        other => Err(format!("unexpected terminal event {other:?}")),
    }
}

fn query(rest: &[&String]) -> Result<(), String> {
    let endpoint: Endpoint = rest
        .first()
        .ok_or("query needs an endpoint (tcp:<addr> or unix:<path>)")?
        .parse()?;
    if rest.get(1).is_some_and(|m| m.as_str() == "metrics") {
        return query_metrics(&endpoint, &rest[2..]);
    }
    let spec = query_spec(&rest[1..])?;
    // Validate locally first for a fast, offline error message.
    spec.resolve().map_err(|e| e.to_string())?;
    let id = flag_value(rest, "--id")?
        .cloned()
        .unwrap_or_else(|| "q1".to_string());
    let json = rest.iter().any(|a| a.as_str() == "--json");
    let quiet = rest.iter().any(|a| a.as_str() == "--quiet");
    let mut client = Client::connect(&endpoint).map_err(|e| e.to_string())?;
    let mut progressed = false;
    let reply = client
        .call(&Request::run(id.clone(), spec), |event| {
            if quiet {
                return;
            }
            match event {
                Event::Hello { server, jobs, .. } => {
                    eprintln!("connected: {server} (jobs={jobs})");
                }
                Event::Queued { id } => eprintln!("{id}: queued"),
                Event::Running { id, done, total } => {
                    eprint!("\r{id}: running {done}/{total}");
                    progressed = true;
                }
                Event::Cell {
                    id,
                    done,
                    total,
                    app,
                    scenario,
                    mem,
                    front,
                } => {
                    if progressed {
                        eprintln!();
                        progressed = false;
                    }
                    eprintln!(
                        "{id}: cell {done}/{total} {app}/{scenario} on {mem}: {}",
                        front.join(" ")
                    );
                }
                _ => {}
            }
        })
        .map_err(|e| e.to_string())?;
    if progressed && !quiet {
        eprintln!();
    }
    match reply {
        Event::Result {
            executed,
            cache_hits,
            result,
            ..
        } => {
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?
                );
            } else {
                println!("# {} answered by {endpoint}", result.mode());
                println!("engine: cache_hits={cache_hits} executed={executed}");
                if let ExploreResult::Sweep(matrix) = result.as_ref() {
                    // The aggregated cross-platform answer (the per-cell
                    // fronts already streamed as Cell events).
                    let cells = matrix.cells.len();
                    println!("cross-platform survivors ({cells} cells):");
                    for s in &matrix.survivors {
                        println!(
                            "  {:20} on {:3} of {cells} fronts",
                            s.combo, s.cells_on_front
                        );
                    }
                } else {
                    println!("Pareto-optimal combinations:");
                    for label in result.front_labels() {
                        println!("  {label}");
                    }
                }
            }
            Ok(())
        }
        Event::Cancelled { id } => Err(format!("request `{id}` was cancelled")),
        Event::Error { error, .. } => Err(error),
        other => Err(format!("unexpected terminal event {other:?}")),
    }
}

fn cache(rest: &[&String]) -> Result<(), String> {
    let action = rest
        .first()
        .ok_or("cache needs `stats`, `clear`, `verify`, `compact`, `import` or `export`")?;
    let dir = cache_dir_of(rest)?;
    match action.as_str() {
        "stats" => {
            let (entries, bytes) = SimCache::inspect(&dir).map_err(|e| e.to_string())?;
            println!("cache dir : {}", dir.display());
            println!("entries   : {entries}");
            println!("size      : {bytes} bytes");
            if dir.exists() {
                let stats = SimCache::store_stats(&dir).map_err(|e| e.to_string())?;
                println!("segments  : {}", stats.segments);
                println!("records   : {}", stats.records);
                println!("generation: {}", stats.generation);
            }
            Ok(())
        }
        "clear" => {
            let existed = SimCache::clear(&dir).map_err(|e| e.to_string())?;
            if existed {
                println!("cleared result cache under {}", dir.display());
            } else {
                println!("no result cache under {}", dir.display());
            }
            Ok(())
        }
        "verify" => {
            let report = SimCache::verify_store(&dir).map_err(|e| e.to_string())?;
            for seg in &report.segments {
                println!(
                    "segment {} : gen={} committed={} ok={} bytes={}",
                    seg.name, seg.generation, seg.committed_records, seg.records_ok, seg.data_bytes
                );
                for issue in &seg.issues {
                    println!("  corrupt: {issue}");
                }
            }
            println!(
                "verified  : {} records ok, {} issue(s)",
                report.records_ok(),
                report.issue_count()
            );
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!(
                    "store under {} has {} corruption issue(s) — see above; \
                     `ddtr cache compact` rewrites the store keeping only verified records",
                    dir.display(),
                    report.issue_count()
                ))
            }
        }
        "compact" => {
            let report = SimCache::compact_store(&dir).map_err(|e| e.to_string())?;
            println!(
                "compacted : {} records in -> {} out, {} segment(s) removed, generation {}",
                report.records_in, report.records_out, report.segments_removed, report.generation
            );
            Ok(())
        }
        "import" => {
            let file = rest
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("cache import needs a JSONL file path")?;
            let count = SimCache::import_store(&dir, Path::new(file.as_str()))
                .map_err(|e| e.to_string())?;
            println!("imported  : {count} entries from {file}");
            Ok(())
        }
        "export" => {
            let file = rest
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("cache export needs an output file path")?;
            let count = SimCache::export_store(&dir, Path::new(file.as_str()))
                .map_err(|e| e.to_string())?;
            println!("exported  : {count} entries to {file}");
            Ok(())
        }
        other => Err(format!("unknown cache action `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_subcommand_is_reported() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn unknown_application_is_reported() {
        let err = run(&args(&["profile", "nfs"])).unwrap_err();
        assert!(err.contains("nfs"));
    }

    #[test]
    fn parse_app_selects_quick_config() {
        let binding = args(&["drr", "--quick"]);
        let rest: Vec<&String> = binding.iter().collect();
        let (app, cfg) = parse_app(&rest, "explore").expect("parses");
        assert_eq!(app, AppKind::Drr);
        assert_eq!(cfg.networks.len(), 2, "quick config uses two networks");
        let binding = args(&["drr"]);
        let rest: Vec<&String> = binding.iter().collect();
        let (_, cfg) = parse_app(&rest, "explore").expect("parses");
        assert_eq!(cfg.networks.len(), 5, "paper config uses the full sweep");
    }

    #[test]
    fn trace_requires_packet_count() {
        let err = run(&args(&["trace", "BWY-I"])).unwrap_err();
        assert!(err.contains("packet count"));
        let err = run(&args(&["trace", "BWY-I", "many"])).unwrap_err();
        assert!(err.contains("bad packet count"));
    }

    #[test]
    fn replay_rejects_missing_file() {
        assert!(run(&args(&["replay", "/nonexistent/logs.jsonl"])).is_err());
    }

    #[test]
    fn presets_subcommand_succeeds() {
        run(&args(&["presets"])).expect("lists presets");
    }

    #[test]
    fn profile_quick_runs_end_to_end() {
        run(&args(&["profile", "drr", "--quick"])).expect("profiles");
    }

    #[test]
    fn parse_app_honours_extended_flag() {
        let binding = args(&["drr", "--quick", "--extended"]);
        let rest: Vec<&String> = binding.iter().collect();
        let (_, cfg) = parse_app(&rest, "explore").expect("parses");
        assert_eq!(cfg.candidates.len(), 12);
    }

    #[test]
    fn ga_quick_runs_end_to_end() {
        run(&args(&[
            "ga",
            "drr",
            "--quick",
            "--seed",
            "7",
            "--no-cache",
        ]))
        .expect("heuristic runs");
    }

    #[test]
    fn ga_rejects_bad_seed() {
        let err = run(&args(&["ga", "drr", "--quick", "--seed", "banana"])).unwrap_err();
        assert!(err.contains("bad seed"));
    }

    #[test]
    fn ga_accepts_stall_window() {
        run(&args(&[
            "ga",
            "drr",
            "--quick",
            "--stall",
            "2",
            "--no-cache",
        ]))
        .expect("runs with early stop");
        let err = run(&args(&["ga", "drr", "--quick", "--stall", "zero"])).unwrap_err();
        assert!(err.contains("bad stall window"));
    }

    #[test]
    fn explore_writes_logs_and_replay_reads_them() {
        let path = std::env::temp_dir().join("ddtr_cli_test_logs.jsonl");
        let path_str = path.to_string_lossy().into_owned();
        run(&args(&[
            "explore",
            "drr",
            "--quick",
            "--no-cache",
            "--logs",
            &path_str,
        ]))
        .expect("explores");
        run(&args(&["replay", &path_str])).expect("replays");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_flag_is_an_accepted_no_op() {
        let parse = |list: &[&str]| {
            let binding = args(list);
            let rest: Vec<&String> = binding.iter().collect();
            let (_, cfg) = parse_app(&rest, "explore").expect("parses");
            serde_json::to_string(&cfg).expect("ser")
        };
        assert_eq!(
            parse(&["drr", "--quick", "--stream"]),
            parse(&["drr", "--quick"])
        );
    }

    #[test]
    fn app_subcommands_take_the_application_after_flags() {
        let binding = args(&["--quick", "--mem", "l2", "url"]);
        let rest: Vec<&String> = binding.iter().collect();
        let (app, cfg) = parse_app(&rest, "pareto").expect("parses");
        assert_eq!(app, AppKind::Url);
        assert!(cfg.mem.l2.is_some(), "--mem l2 still applies");
        assert_eq!(cfg.networks.len(), 2, "--quick still applies");
    }

    #[test]
    fn app_subcommands_reject_unknown_flags_and_stray_positionals() {
        for (list, needle) in [
            (&["ga", "drr", "--quick", "--stal", "2"][..], "--stal"),
            (&["explore", "drr", "url", "--frobnicate"], "--frobnicate"),
            (
                &["explore", "drr", "url", "--quick"],
                "at most one application",
            ),
            (&["pareto", "drr", "--quick", "--seed", "7"], "--seed"),
            (&["report", "drr", "--quick", "--json"], "--json"),
            (&["profile", "drr", "--jobs", "2"], "--jobs"),
            (&["profile", "--quick"], "missing application"),
        ] {
            let err = run(&args(list)).unwrap_err();
            assert!(err.contains(needle), "{list:?}: {err}");
        }
    }

    #[test]
    fn scenarios_single_app_runs_end_to_end() {
        run(&args(&[
            "scenarios",
            "drr",
            "--quick",
            "--packets",
            "40",
            "--no-cache",
        ]))
        .expect("scenario matrix");
    }

    #[test]
    fn scenarios_rejects_bad_inputs() {
        let err = run(&args(&["scenarios", "nfs", "--quick"])).unwrap_err();
        assert!(err.contains("nfs"));
        let err = run(&args(&["scenarios", "drr", "--base", "NOPE"])).unwrap_err();
        assert!(err.contains("NOPE"));
        let err = run(&args(&["scenarios", "drr", "--packets", "many"])).unwrap_err();
        assert!(err.contains("bad packet count"));
        // The application may follow flags — it must not be silently
        // ignored (which would run the full matrix instead of one row).
        let err = run(&args(&["scenarios", "--quick", "nfs"])).unwrap_err();
        assert!(err.contains("nfs"), "{err}");
        let err = run(&args(&["scenarios", "drr", "url", "--quick"])).unwrap_err();
        assert!(err.contains("at most one application"), "{err}");
        // Unknown flags (and typos of value flags) are rejected, not
        // silently swallowed.
        let err = run(&args(&["scenarios", "drr", "--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        let err = run(&args(&["scenarios", "drr", "--packet", "40"])).unwrap_err();
        assert!(err.contains("--packet"), "{err}");
    }

    #[test]
    fn scenarios_honours_extended_candidates() {
        // --extended must enlarge the per-cell space (12^2 = 144), like
        // every other simulating subcommand.
        run(&args(&[
            "scenarios",
            "drr",
            "--quick",
            "--extended",
            "--packets",
            "20",
            "--no-cache",
        ]))
        .expect("extended scenario matrix runs");
    }

    #[test]
    fn scenarios_accepts_app_after_flags() {
        run(&args(&[
            "scenarios",
            "--quick",
            "--packets",
            "30",
            "--no-cache",
            "url",
        ]))
        .expect("app after flags restricts the matrix to one row");
    }

    #[test]
    fn sweep_quick_runs_end_to_end() {
        run(&args(&[
            "sweep",
            "drr",
            "--quick",
            "--packets",
            "40",
            "--mem",
            "embedded,l2-small",
            "--scenario",
            "baseline",
            "--scenario",
            "ddos-syn",
            "--no-cache",
        ]))
        .expect("platform sweep");
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        // Unknown memory presets are rejected with the catalog listed —
        // the same structured error the serve layer returns.
        let err = run(&args(&[
            "sweep",
            "drr",
            "--quick",
            "--mem",
            "quantum",
            "--no-cache",
        ]))
        .unwrap_err();
        assert!(err.contains("quantum"), "{err}");
        assert!(err.contains("embedded"), "error lists the catalog: {err}");
        assert!(err.contains("l2-small"), "error lists the catalog: {err}");
        let err = run(&args(&["sweep", "nfs", "--quick"])).unwrap_err();
        assert!(err.contains("nfs"), "{err}");
        let err = run(&args(&["sweep", "drr", "--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        let err = run(&args(&["sweep", "drr", "url", "--quick"])).unwrap_err();
        assert!(err.contains("at most one application"), "{err}");
        // Duplicate platform columns are a config error, not a silent
        // double evaluation.
        let err = run(&args(&[
            "sweep",
            "drr",
            "--quick",
            "--mem",
            "l2,l2",
            "--no-cache",
        ]))
        .unwrap_err();
        assert!(err.contains("distinct"), "{err}");
    }

    #[test]
    fn mem_flag_selects_the_platform_on_simulating_subcommands() {
        let binding = args(&["drr", "--quick", "--mem", "deep"]);
        let rest: Vec<&String> = binding.iter().collect();
        let (_, cfg) = parse_app(&rest, "explore").expect("parses");
        assert!(cfg.mem.l2.is_some(), "deep preset carries an L2");
        assert_eq!(cfg.mem.l1.capacity_bytes, 16 * 1024);
        // Unknown names are rejected with the catalog.
        let err = run(&args(&["explore", "drr", "--quick", "--mem", "nope"])).unwrap_err();
        assert!(err.contains("nope") && err.contains("spm"), "{err}");
        let err = run(&args(&["ga", "drr", "--quick", "--mem", "nope"])).unwrap_err();
        assert!(err.contains("nope"), "{err}");
        let err = run(&args(&["scenarios", "drr", "--quick", "--mem", "nope"])).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn mem_presets_subcommand_lists_the_catalog() {
        run(&args(&["mem-presets"])).expect("lists memory presets");
    }

    #[test]
    fn bad_jobs_value_is_reported() {
        let err = run(&args(&["explore", "drr", "--quick", "--jobs", "banana"])).unwrap_err();
        assert!(err.contains("bad --jobs"), "{err}");
        let err = run(&args(&["explore", "drr", "--quick", "--jobs"])).unwrap_err();
        assert!(err.contains("--jobs needs a value"), "{err}");
    }

    #[test]
    fn flag_followed_by_another_flag_is_a_missing_value() {
        let err = run(&args(&[
            "explore",
            "drr",
            "--quick",
            "--cache-dir",
            "--jobs",
            "4",
        ]))
        .unwrap_err();
        assert!(err.contains("--cache-dir needs a value"), "{err}");
    }

    #[test]
    fn explicit_jobs_run_end_to_end() {
        run(&args(&[
            "explore",
            "drr",
            "--quick",
            "--jobs",
            "2",
            "--no-cache",
        ]))
        .expect("explores on two workers");
    }

    #[test]
    fn query_requires_endpoint_and_mode() {
        let err = run(&args(&["query"])).unwrap_err();
        assert!(err.contains("endpoint"), "{err}");
        let err = run(&args(&["query", "tcp:127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("mode"), "{err}");
        let err = run(&args(&["query", "smoke-signals:hill"])).unwrap_err();
        assert!(err.contains("smoke-signals"), "{err}");
        // Bad specs are rejected locally, before connecting anywhere.
        let err = run(&args(&["query", "tcp:127.0.0.1:1", "frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        let err = run(&args(&["query", "tcp:127.0.0.1:1", "explore"])).unwrap_err();
        assert!(err.contains("requires `app`"), "{err}");
        let err = run(&args(&[
            "query",
            "tcp:127.0.0.1:1",
            "explore",
            "drr",
            "--frobnicate",
        ]))
        .unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_listen_endpoints() {
        let err = run(&args(&["serve", "--listen", "carrier-pigeon:coop"])).unwrap_err();
        assert!(err.contains("carrier-pigeon"), "{err}");
    }

    #[test]
    fn serve_validates_the_hardened_edge_flags() {
        let err = run(&args(&["serve", "--workers", "many"])).unwrap_err();
        assert!(err.contains("bad --workers"), "{err}");
        let err = run(&args(&["serve", "--rate-limit", "fast"])).unwrap_err();
        assert!(err.contains("bad --rate-limit"), "{err}");
        let err = run(&args(&["serve", "--max-request-bytes", "big"])).unwrap_err();
        assert!(err.contains("bad --max-request-bytes"), "{err}");
        // Daemonizing a stdio server is a contradiction, not a spawn.
        let err = run(&args(&["serve", "--daemon"])).unwrap_err();
        assert!(err.contains("--daemon needs a socket endpoint"), "{err}");
    }

    #[test]
    fn loadtest_validates_its_arguments() {
        let err = run(&args(&["loadtest"])).unwrap_err();
        assert!(err.contains("endpoint"), "{err}");
        let err = run(&args(&["loadtest", "stdio"])).unwrap_err();
        assert!(err.contains("socket endpoint"), "{err}");
        let err = run(&args(&["loadtest", "tcp:127.0.0.1:1", "--clients", "many"])).unwrap_err();
        assert!(err.contains("bad --clients"), "{err}");
        let err = run(&args(&["loadtest", "tcp:127.0.0.1:1", "--p99-ms", "slow"])).unwrap_err();
        assert!(err.contains("bad --p99-ms"), "{err}");
    }

    #[test]
    fn loadtest_drives_a_live_fleet_and_gates_on_cleanliness() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let endpoint = format!("tcp:{}", listener.local_addr().expect("addr"));
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::new(ddtr_core::EngineConfig::with_jobs(2))
        };
        let server = Server::with_config(cfg).expect("server");
        std::thread::scope(|scope| {
            let server = &server;
            scope.spawn(move || server.serve_tcp(&listener).expect("serve"));
            run(&args(&[
                "loadtest",
                &endpoint,
                "--clients",
                "4",
                "--pings",
                "3",
                "--explores",
                "1",
            ]))
            .expect("clean loadtest run");
            // A vanishingly small p99 bound must fail the run.
            let err = run(&args(&[
                "loadtest",
                &endpoint,
                "--clients",
                "2",
                "--pings",
                "1",
                "--explores",
                "0",
                "--p99-ms",
                "0",
            ]))
            .unwrap_err();
            assert!(err.contains("--p99-ms bound"), "{err}");
            let mut client =
                Client::connect(&endpoint.parse().expect("endpoint")).expect("connect");
            client
                .send(&Request::new("bye", ddtr_serve::RequestBody::Shutdown))
                .expect("shutdown");
        });
    }

    #[test]
    fn serve_and_query_round_trip_over_tcp() {
        use std::net::TcpListener;
        // Bind first so the query below cannot race the server's setup.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let endpoint = format!("tcp:{}", listener.local_addr().expect("addr"));
        let server = Server::new(ddtr_core::EngineConfig::with_jobs(1)).expect("server");
        std::thread::scope(|scope| {
            let server = &server;
            scope.spawn(move || server.serve_tcp(&listener).expect("serve"));
            run(&args(&[
                "query", &endpoint, "explore", "drr", "--quick", "--quiet",
            ]))
            .expect("query answers");
            // `metrics` is a first-class query mode, not an explore spec.
            run(&args(&["query", &endpoint, "metrics"])).expect("metrics answers");
            // Shut the server down so the scope can join.
            let mut client =
                Client::connect(&endpoint.parse().expect("endpoint")).expect("connect");
            client
                .send(&Request::new("bye", ddtr_serve::RequestBody::Shutdown))
                .expect("shutdown");
        });
    }

    #[test]
    fn trace_json_flag_writes_a_chrome_trace() {
        let path = std::env::temp_dir().join(format!("ddtr-cli-trace-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        run(&args(&[
            "explore",
            "drr",
            "--quick",
            "--no-cache",
            "--trace-json",
            &path_str,
        ]))
        .expect("explore with tracing");
        let raw = std::fs::read_to_string(&path).expect("trace file exists");
        let doc = serde_json::parse(&raw).expect("trace file is valid JSON");
        let events = doc
            .as_map()
            .and_then(|m| m.get("traceEvents"))
            .and_then(|v| v.as_seq())
            .expect("traceEvents array");
        assert!(!events.is_empty(), "the run records spans");
        // A forgotten value errors rather than consuming the next flag.
        let err = run(&args(&["explore", "drr", "--quick", "--trace-json"])).unwrap_err();
        assert!(err.contains("--trace-json needs a value"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cache_dir_persists_across_runs_and_cache_subcommand_manages_it() {
        use ddtr_engine::testing::TempCacheDir;
        use ddtr_engine::SimCache;
        let tmp = TempCacheDir::new("cli-cache");
        let dir = tmp.path().to_path_buf();
        let dir_str = dir.to_string_lossy().into_owned();
        run(&args(&[
            "explore",
            "drr",
            "--quick",
            "--cache-dir",
            &dir_str,
        ]))
        .expect("cold run");
        let (entries, bytes) = SimCache::inspect(&dir).expect("inspect");
        assert!(entries > 0, "cold run must persist results");
        // A warm run answers from the cache: nothing executes, so nothing
        // is appended to the store.
        run(&args(&[
            "explore",
            "drr",
            "--quick",
            "--cache-dir",
            &dir_str,
        ]))
        .expect("warm run");
        let (entries_after, bytes_after) = SimCache::inspect(&dir).expect("inspect");
        assert_eq!(entries, entries_after);
        assert_eq!(bytes, bytes_after, "warm run must not re-execute");
        run(&args(&["cache", "stats", "--cache-dir", &dir_str])).expect("stats");
        run(&args(&["cache", "verify", "--cache-dir", &dir_str])).expect("verify clean");
        // Export -> import into a fresh directory preserves every entry.
        let dump = tmp.join("dump.jsonl");
        let dump_str = dump.to_string_lossy().into_owned();
        run(&args(&[
            "cache",
            "export",
            &dump_str,
            "--cache-dir",
            &dir_str,
        ]))
        .expect("export");
        let fresh = TempCacheDir::new("cli-cache-import");
        let fresh_str = fresh.path().to_string_lossy().into_owned();
        run(&args(&[
            "cache",
            "import",
            &dump_str,
            "--cache-dir",
            &fresh_str,
        ]))
        .expect("import");
        let (imported, _) = SimCache::inspect(fresh.path()).expect("inspect import");
        assert_eq!(imported, entries, "export/import preserves entries");
        // Compaction keeps the distinct entries.
        run(&args(&["cache", "compact", "--cache-dir", &dir_str])).expect("compact");
        let (compacted, _) = SimCache::inspect(&dir).expect("inspect compacted");
        assert_eq!(compacted, entries);
        run(&args(&["cache", "clear", "--cache-dir", &dir_str])).expect("clear");
        assert_eq!(SimCache::inspect(&dir).expect("inspect"), (0, 0));
        let err = run(&args(&["cache", "frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"));
        let err = run(&args(&["cache", "import", "--cache-dir", &dir_str])).unwrap_err();
        assert!(err.contains("JSONL"), "{err}");
    }
}
