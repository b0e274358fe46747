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
//! The simulating subcommands (`explore`, `pareto`, `report`, `ga`,
//! `scenarios`, `sweep`) take the request path of `ddtr serve`: their
//! flags become the [`JobSpec`] that `ddtr query` would send,
//! [`JobSpec::resolve`] turns it into an [`ExploreRequest`], and
//! [`dispatch_observed`] runs that on a [`ddtr_engine`] execution engine
//! built from the engine flags:
//!
//! * `--jobs N` — worker threads (default: one per core),
//! * `--cache-dir <dir>` — persistent result cache (default
//!   `.ddtr-cache`),
//! * `--no-cache` — disable the persistent cache for this run,
//! * `--trace-json <file>` — write the run's recorded spans as Chrome
//!   trace-event JSON (loads in Perfetto / `chrome://tracing`).
//!
//! `profile` resolves the same spec and profiles its configuration.
//! `JobSpec::resolve` alone rejects a spec flag the mode does not take
//! (`--seed` on `explore`).
//!
//! Every subcommand rejects flags it does not take and stray
//! positionals; the application may come before or after the flags.
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

use ddtr_core::{
    dispatch_observed, explore_pareto_level, headline_comparison, profile_application, read_logs,
    render_pareto_chart, step2_from_logs, table1_markdown, table2_markdown, write_logs,
    EngineConfig, ExploreEngine, ExploreRequest, ExploreResult, MemoryPreset, MethodologyOutcome,
    ParetoChartPlane, SweepCell,
};
use ddtr_engine::SimCache;
use ddtr_serve::loadtest::LoadtestConfig;
use ddtr_serve::{
    Client, Endpoint, Event, JobSpec, Request, RequestBody, ResolveError, Server, ServerConfig,
};
use ddtr_trace::{NetworkParams, NetworkPreset, Scenario, Trace, TraceWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

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
               [--packets N] [--mem <preset>] [--scenario <name>]... [engine flags]
  ddtr sweep   [<route|url|ipchains|drr|nat>] [--quick] [--extended] [--base <preset>]
               [--packets N] [--mem <preset>,...] [--scenario <name>]... [engine flags]
  ddtr cache   stats|clear|verify|compact [--cache-dir <dir>]
  ddtr cache   import|export <file.jsonl> [--cache-dir <dir>]
  ddtr serve   [--listen stdio|tcp:<addr>|unix:<path>] [--workers N]
               [--auth-token T] [--max-conns N] [--max-inflight N]
               [--rate-limit N] [--max-request-bytes N]
               [--daemon] [--pid-file <path>] [--jobs N] [--cache-dir <dir>] [--no-cache]
  ddtr query   <tcp:<addr>|unix:<path>> <explore|ga|scenarios|sweep|headline|metrics> [app]
               [--quick] [--extended] [--base <preset>] [--packets N]
               [--seed N] [--stall N] [--scenario <name>]... [--mem <preset>[,...]]
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

Every subcommand rejects flags it does not take; a spec flag its mode
does not take (`--seed` on explore) is rejected like that field in a
`ddtr query`. `ddtr scenarios` runs the app x scenario matrix
(baseline, bursty, flash-crowd, ddos-syn, phase-shift) over the base
network.

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

/// The `--no-cache` engine flag (no persistent result cache).
const FLAG_NO_CACHE: &str = "--no-cache";

/// The `--mem` platform flag (memory-hierarchy preset; comma-separated
/// list on `ddtr sweep`).
const FLAG_MEM: &str = "--mem";

/// The `--trace-json` observability flag (write the recorded spans as
/// Chrome trace-event JSON after the run).
const FLAG_TRACE_JSON: &str = "--trace-json";

/// The flags a subcommand takes: those that consume the next argument as
/// their value, and switches.
struct FlagRow {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

/// The engine flags of the simulating subcommands, which
/// [`engine_config_from`] and [`write_trace_if_requested`] read.
const ENGINE_FLAGS: FlagRow = FlagRow {
    values: &[FLAG_JOBS, FLAG_CACHE_DIR, FLAG_TRACE_JSON],
    switches: &[FLAG_NO_CACHE],
};

/// The spec flags, one per [`JobSpec`] field a flag sets ([`job_spec`]
/// reads them). Every spec-building subcommand takes all of them, so
/// [`JobSpec::resolve`] alone decides which apply to a mode.
const SPEC_FLAGS: FlagRow = FlagRow {
    values: &[
        "--base",
        "--packets",
        "--seed",
        "--stall",
        "--scenario",
        FLAG_MEM,
    ],
    switches: &["--quick", "--extended"],
};

/// The output flags of `ddtr query`.
const QUERY_FLAGS: FlagRow = FlagRow {
    values: &["--id"],
    switches: &["--json", "--quiet"],
};

/// A subcommand's body: it runs on the arguments after the name.
type Subcommand = fn(&[&String]) -> Result<(), String>;

/// Every subcommand and its body, in README's order. [`run`] dispatches
/// through this table, and a unit test checks it against README's
/// subcommand reference and [`USAGE`].
const COMMANDS: &[(&str, Subcommand)] = &[
    ("profile", profile),
    ("explore", explore),
    ("pareto", pareto),
    ("report", report),
    ("ga", ga),
    ("scenarios", scenarios),
    ("sweep", sweep),
    ("trace", trace),
    ("params", params),
    ("replay", replay),
    ("cache", cache),
    ("serve", serve),
    ("query", query),
    ("loadtest", loadtest),
    ("presets", presets),
    ("mem-presets", mem_presets),
];

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&String> = it.collect();
    let (_, command) = COMMANDS
        .iter()
        .find(|(name, _)| name == cmd)
        .ok_or_else(|| format!("unknown subcommand `{cmd}`"))?;
    command(&rest)
}

fn presets(rest: &[&String]) -> Result<(), String> {
    scan(rest, "presets", &[])?.at_most(0, "presets", "no arguments")?;
    for p in NetworkPreset::ALL {
        let s = p.spec();
        println!(
            "{p:10} nodes={:4} rate={:6.0}pps flows={:3} mtu={}",
            s.nodes, s.mean_rate_pps, s.flows, s.sizes.mtu
        );
    }
    Ok(())
}

fn mem_presets(rest: &[&String]) -> Result<(), String> {
    scan(rest, "mem-presets", &[])?.at_most(0, "mem-presets", "no arguments")?;
    for p in MemoryPreset::ALL {
        println!("{:10} {}", p.to_string(), p.describe());
    }
    Ok(())
}

/// A command line scanned against its subcommand's flag rows: each flag
/// with its value (when it takes one), and the bare words in order.
struct Args<'a> {
    flags: Vec<(&'a str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

/// Scans `rest` strictly: every flag must be in one of `rows`, and a
/// value flag needs a following value that is not itself a flag, so a
/// typo or a forgotten value errors instead of being ignored or
/// swallowing the next flag.
fn scan<'a>(rest: &[&'a String], cmd: &str, rows: &[&FlagRow]) -> Result<Args<'a>, String> {
    let mut args = Args {
        flags: Vec::new(),
        positionals: Vec::new(),
    };
    let mut words = rest.iter().map(|w| w.as_str());
    while let Some(word) = words.next() {
        if rows.iter().any(|row| row.values.contains(&word)) {
            match words.next() {
                Some(value) if !value.starts_with("--") => args.flags.push((word, Some(value))),
                _ => return Err(format!("{word} needs a value")),
            }
        } else if rows.iter().any(|row| row.switches.contains(&word)) {
            args.flags.push((word, None));
        } else if word.starts_with("--") {
            return Err(format!("unknown {cmd} flag `{word}`"));
        } else {
            args.positionals.push(word);
        }
    }
    Ok(args)
}

impl<'a> Args<'a> {
    /// Every value of a repeatable `flag`, in order.
    fn values(&self, flag: &str) -> Vec<&'a str> {
        self.flags
            .iter()
            .filter(|(f, _)| *f == flag)
            .filter_map(|(_, v)| *v)
            .collect()
    }

    /// The value of the first `flag`, if given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).first().copied()
    }

    /// The value of `flag` parsed as `T`; a malformed one is reported as
    /// `bad <what>: …`.
    fn parse<T: FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("bad {what}: {e}")))
            .transpose()
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The positionals, when there are at most `max`; otherwise an error
    /// quoting the `usage` of `cmd`.
    fn at_most(&self, max: usize, cmd: &str, usage: &str) -> Result<&[&'a str], String> {
        match self.positionals.len() {
            n if n > max => Err(format!("{cmd} takes {usage}, got {n} arguments")),
            _ => Ok(&self.positionals),
        }
    }
}

/// The [`JobSpec`] a command line describes — the one place flags become
/// a request, for `query` and the local subcommands alike. A local
/// subcommand fixes `mode` and takes `[app]`; `query` passes `None` and
/// takes `<mode> [app]`.
fn job_spec(args: &Args, cmd: &str, mode: Option<&str>) -> Result<JobSpec, String> {
    let mut words = args.positionals.iter().copied();
    let mode = match mode {
        Some(mode) => mode,
        None => words
            .next()
            .ok_or("query needs a mode (explore, ga, scenarios, sweep or headline)")?,
    };
    let app = words.next();
    if words.next().is_some() {
        return Err(format!("{cmd} takes at most one application"));
    }
    let scenarios: Vec<String> = args
        .values("--scenario")
        .into_iter()
        .map(str::to_string)
        .collect();
    Ok(JobSpec {
        inline: None,
        mode: Some(mode.to_string()),
        app: app.map(str::to_string),
        quick: args.has("--quick"),
        extended: args.has("--extended"),
        base: args.value("--base").map(str::to_string),
        scenarios: (!scenarios.is_empty()).then_some(scenarios),
        packets: args.parse("--packets", "packet count")?,
        seed: args.parse("--seed", "seed")?,
        stall: args.parse("--stall", "stall window")?,
        // One preset, or the platform axis of a sweep: `resolve` checks
        // the arity per mode.
        mem: args
            .value(FLAG_MEM)
            .map(|list| list.split(',').map(str::to_string).collect()),
    })
}

/// Resolves `spec` as `ddtr serve` resolves a `Run`, naming a field that
/// does not apply by the flag that set it.
fn resolve(spec: &JobSpec) -> Result<ExploreRequest, String> {
    spec.resolve().map_err(|e| match e {
        ResolveError::FlagNotApplicable { flag, mode } => {
            // `--scenario` repeats, one column each; every other flag is
            // spelled like its field.
            let flag = match flag.as_str() {
                "scenarios" => "scenario",
                field => field,
            };
            format!("`--{flag}` does not apply to mode `{mode}`")
        }
        missing @ ResolveError::MissingApp { .. } => {
            format!("missing application name ({missing})")
        }
        other => other.to_string(),
    })
}

/// Scans a local subcommand's arguments against `rows` and resolves them
/// in `mode`.
fn local_request<'a>(
    rest: &[&'a String],
    cmd: &str,
    mode: &str,
    rows: &[&FlagRow],
) -> Result<(Args<'a>, ExploreRequest), String> {
    let args = scan(rest, cmd, rows)?;
    let request = resolve(&job_spec(&args, cmd, Some(mode))?)?;
    Ok((args, request))
}

/// Runs `request` through [`dispatch_observed`] on the engine the engine
/// flags build, as a serve worker does (`on_cell` sees each completed
/// cell of a sweep), and writes the `--trace-json` file. Returns the
/// typed result and the engine it ran on.
fn dispatch_local(
    args: &Args,
    request: &ExploreRequest,
    on_cell: impl FnMut(&SweepCell, usize, usize),
) -> Result<(ExploreResult, ExploreEngine), String> {
    let mut engine = ExploreEngine::new(engine_config_from(args)?).map_err(|e| e.to_string())?;
    let result = dispatch_observed(&mut engine, request, on_cell).map_err(|e| e.to_string())?;
    write_trace_if_requested(args)?;
    Ok((result, engine))
}

/// The `engine:` accounting line a simulating subcommand ends with.
fn engine_line(engine: &ExploreEngine) -> String {
    let stats = engine.stats();
    format!(
        "engine: jobs={} cache_hits={} executed={}",
        engine.jobs(),
        stats.hits,
        stats.misses
    )
}

/// The cache directory a command addresses: `--cache-dir` or the default.
fn cache_dir_of(args: &Args) -> PathBuf {
    PathBuf::from(args.value(FLAG_CACHE_DIR).unwrap_or(DEFAULT_CACHE_DIR))
}

/// Parses the shared engine flags into an [`EngineConfig`].
fn engine_config_from(args: &Args) -> Result<EngineConfig, String> {
    let no_cache = args.has(FLAG_NO_CACHE);
    Ok(EngineConfig {
        jobs: args.parse(FLAG_JOBS, "--jobs value")?.unwrap_or(0),
        cache_dir: (!no_cache).then(|| cache_dir_of(args)),
        no_cache,
    })
}

/// Writes the spans recorded during the run as Chrome trace-event JSON
/// when `--trace-json <file>` was given. The file loads directly in
/// Perfetto or `chrome://tracing`.
fn write_trace_if_requested(args: &Args) -> Result<(), String> {
    if let Some(path) = args.value(FLAG_TRACE_JSON) {
        ddtr_obs::write_chrome_trace(Path::new(path))
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("wrote {} spans to {path}", ddtr_obs::trace_len());
    }
    Ok(())
}

fn profile(rest: &[&String]) -> Result<(), String> {
    let (_, request) = local_request(rest, "profile", "explore", &[&SPEC_FLAGS])?;
    let ExploreRequest::Explore(cfg) = request else {
        unreachable!("explore specs resolve to explore requests");
    };
    let report = profile_application(&cfg).map_err(|e| e.to_string())?;
    println!("# dominant-DDT profile of {}", cfg.app);
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

/// Resolves and runs a pipeline subcommand (`explore`, `pareto`,
/// `report`: the `explore` mode, rendered three ways).
fn pipeline<'a>(
    rest: &[&'a String],
    cmd: &str,
    rows: &[&FlagRow],
) -> Result<(Args<'a>, MethodologyOutcome, ExploreEngine), String> {
    let (args, request) = local_request(rest, cmd, "explore", rows)?;
    let (result, engine) = dispatch_local(&args, &request, |_, _, _| {})?;
    let ExploreResult::Explore(outcome) = result else {
        unreachable!("explore requests produce explore results");
    };
    Ok((args, outcome, engine))
}

fn explore(rest: &[&String]) -> Result<(), String> {
    let output = FlagRow {
        values: &["--logs"],
        switches: &["--json"],
    };
    let (args, outcome, engine) =
        pipeline(rest, "explore", &[&SPEC_FLAGS, &ENGINE_FLAGS, &output])?;
    if let Some(path) = args.value("--logs") {
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        write_logs(&outcome.step2.logs, std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {} step-2 logs to {path}", outcome.step2.logs.len());
    }
    if args.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("# exploration of {}", outcome.config.app);
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
    println!("{}", engine_line(&engine));
    Ok(())
}

fn pareto(rest: &[&String]) -> Result<(), String> {
    let (_, outcome, _) = pipeline(rest, "pareto", &[&SPEC_FLAGS, &ENGINE_FLAGS])?;
    println!("# Pareto exploration spaces of {}", outcome.config.app);
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
    let (_, outcome, mut engine) = pipeline(rest, "report", &[&SPEC_FLAGS, &ENGINE_FLAGS])?;
    println!("{}", table1_markdown(&[&outcome]));
    println!("{}", table2_markdown(&[&outcome]));
    let headline =
        headline_comparison(&mut engine, &outcome.config, &outcome).map_err(|e| e.to_string())?;
    println!(
        "# headline vs original ({}, both dominant DDTs = SLL)",
        outcome.config.app
    );
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

/// The synthetic trace `trace` and `params` describe as `<preset>
/// <packets>`.
fn preset_trace(rest: &[&String], cmd: &str) -> Result<Trace, String> {
    let args = scan(rest, cmd, &[])?;
    let words = args.at_most(2, cmd, "<preset> <packets>")?;
    let preset: NetworkPreset = words.first().ok_or("missing preset")?.parse()?;
    let packets: usize = words
        .get(1)
        .ok_or("missing packet count")?
        .parse()
        .map_err(|e| format!("bad packet count: {e}"))?;
    Ok(preset.generate(packets))
}

fn trace(rest: &[&String]) -> Result<(), String> {
    print!("{}", TraceWriter::to_string(&preset_trace(rest, "trace")?));
    Ok(())
}

fn params(rest: &[&String]) -> Result<(), String> {
    let p = NetworkParams::extract(&preset_trace(rest, "params")?);
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
    let args = scan(rest, "replay", &[])?;
    let path = args
        .at_most(1, "replay", "<logs.jsonl>")?
        .first()
        .ok_or("missing log file")?;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
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
    let (args, request) = local_request(rest, "ga", "ga", &[&SPEC_FLAGS, &ENGINE_FLAGS])?;
    let (result, engine) = dispatch_local(&args, &request, |_, _, _| {})?;
    let (ExploreRequest::Ga(cfg), ExploreResult::Ga(outcome)) = (&request, result) else {
        unreachable!("ga requests produce ga results");
    };
    let space = cfg.candidates.len().pow(2);
    println!("# heuristic (NSGA-II) exploration of {}", cfg.app);
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
    println!("{}", engine_line(&engine));
    Ok(())
}

fn scenarios(rest: &[&String]) -> Result<(), String> {
    let (args, request) = local_request(
        rest,
        "scenarios",
        "scenarios",
        &[&SPEC_FLAGS, &ENGINE_FLAGS],
    )?;
    let (result, engine) = dispatch_local(&args, &request, |_, _, _| {})?;
    let ExploreResult::Scenarios(matrix) = result else {
        unreachable!("scenarios requests produce scenario matrices");
    };
    let cfg = &matrix.config;
    println!(
        "# scenario matrix over {}: {} apps x {} scenarios, {} packets/sim (streamed)",
        cfg.base,
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
    println!("\n{}", engine_line(&engine));
    Ok(())
}

fn sweep(rest: &[&String]) -> Result<(), String> {
    let (args, request) = local_request(rest, "sweep", "sweep", &[&SPEC_FLAGS, &ENGINE_FLAGS])?;
    let ExploreRequest::Sweep(cfg) = &request else {
        unreachable!("sweep specs resolve to sweep requests");
    };
    println!(
        "# platform sweep over {}: {} apps x {} scenarios x {} platforms, {} packets/sim (streamed)",
        cfg.base,
        cfg.apps.len(),
        cfg.scenarios.len(),
        cfg.mem_presets.len(),
        cfg.packets_per_sim
    );
    // Cells print as they complete — the sweep streams on the CLI too.
    let (result, engine) = dispatch_local(&args, &request, |cell, done, total| {
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
    })?;
    let ExploreResult::Sweep(matrix) = result else {
        unreachable!("sweep requests produce sweep matrices");
    };
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
    println!("\n{}", engine_line(&engine));
    Ok(())
}

/// Marker variable distinguishing the daemonized `ddtr serve` child from
/// the foreground parent that spawned it.
const ENV_SERVE_DAEMONIZED: &str = "DDTR_SERVE_DAEMONIZED";

/// Parses the hardened-edge flags of `ddtr serve` into a
/// [`ServerConfig`] on top of the shared engine flags.
fn server_config_from(args: &Args) -> Result<ServerConfig, String> {
    let defaults = ServerConfig::new(engine_config_from(args)?);
    Ok(ServerConfig {
        workers: args
            .parse("--workers", "--workers value")?
            .unwrap_or(defaults.workers),
        auth_token: args.value("--auth-token").map(str::to_string),
        max_connections: args
            .parse("--max-conns", "--max-conns value")?
            .unwrap_or(defaults.max_connections),
        max_inflight: args
            .parse("--max-inflight", "--max-inflight value")?
            .unwrap_or(defaults.max_inflight),
        rate_limit: args.parse("--rate-limit", "--rate-limit value")?,
        max_request_bytes: args
            .parse("--max-request-bytes", "--max-request-bytes value")?
            .unwrap_or(defaults.max_request_bytes),
        ..defaults
    })
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
    let row = FlagRow {
        values: &[
            "--listen",
            "--workers",
            "--auth-token",
            "--max-conns",
            "--max-inflight",
            "--rate-limit",
            "--max-request-bytes",
            "--pid-file",
            FLAG_JOBS,
            FLAG_CACHE_DIR,
        ],
        switches: &["--daemon", FLAG_NO_CACHE],
    };
    let args = scan(rest, "serve", &[&row])?;
    args.at_most(0, "serve", "no positional arguments")?;
    let endpoint: Endpoint = match args.value("--listen") {
        Some(raw) => raw.parse()?,
        None => Endpoint::Stdio,
    };
    let pid_file = args.value("--pid-file").map(PathBuf::from);
    let is_daemon_child = std::env::var_os(ENV_SERVE_DAEMONIZED).is_some();
    if args.has("--daemon") && !is_daemon_child {
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
    let server = Server::with_config(server_config_from(&args)?).map_err(|e| e.to_string())?;
    server.listen(&endpoint).map_err(|e| e.to_string())
}

/// Drives a running service with concurrent scripted clients and prints
/// the latency/cleanliness report (`ddtr loadtest`). Exits non-zero when
/// the run was not clean or broke the `--p99-ms` bound, so CI can gate
/// on the bare exit code.
fn loadtest(rest: &[&String]) -> Result<(), String> {
    let row = FlagRow {
        values: &[
            "--clients",
            "--pings",
            "--explores",
            "--apps",
            "--auth-token",
            "--connect-retries",
            "--p99-ms",
        ],
        switches: &["--full", "--json"],
    };
    let args = scan(rest, "loadtest", &[&row])?;
    let endpoint: Endpoint = args
        .at_most(1, "loadtest", "one endpoint")?
        .first()
        .ok_or("loadtest needs an endpoint (tcp:<addr> or unix:<path>)")?
        .parse()?;
    if endpoint == Endpoint::Stdio {
        return Err("loadtest needs a socket endpoint (stdio serves exactly one client)".into());
    }
    let defaults = LoadtestConfig::new(endpoint);
    let clients = args
        .parse("--clients", "--clients value")?
        .unwrap_or(defaults.clients);
    if clients == 0 {
        // Zero clients send nothing, so the run would pass as clean.
        return Err("bad --clients value: a loadtest needs at least 1 client".into());
    }
    let cfg = LoadtestConfig {
        clients,
        pings: args
            .parse("--pings", "--pings value")?
            .unwrap_or(defaults.pings),
        explores: args
            .parse("--explores", "--explores value")?
            .unwrap_or(defaults.explores),
        quick: !args.has("--full"),
        apps: args.value("--apps").map_or(defaults.apps.clone(), |list| {
            list.split(',').map(str::to_string).collect()
        }),
        auth: args.value("--auth-token").map(str::to_string),
        connect_retries: args
            .parse("--connect-retries", "--connect-retries value")?
            .unwrap_or(defaults.connect_retries),
        ..defaults
    };
    let p99_bound_ms: Option<u64> = args.parse("--p99-ms", "--p99-ms value")?;
    let report = ddtr_serve::loadtest::run(&cfg);
    if args.has("--json") {
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

/// Fetches the server's metrics exposition (Prometheus-style text) and
/// prints it verbatim. `metrics` is not an exploration mode, so it takes
/// no spec flags.
fn query_metrics(endpoint: &Endpoint, rest: &[&String]) -> Result<(), String> {
    let row = FlagRow {
        values: &["--id"],
        switches: &[],
    };
    let args = scan(rest, "query metrics", &[&row])?;
    args.at_most(0, "query metrics", "no arguments beyond the endpoint")?;
    let id = args.value("--id").unwrap_or("m1");
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
    let args = scan(&rest[1..], "query", &[&SPEC_FLAGS, &QUERY_FLAGS])?;
    let spec = job_spec(&args, "query", None)?;
    // Validate locally first for a fast, offline error message.
    resolve(&spec)?;
    let id = args.value("--id").unwrap_or("q1");
    let json = args.has("--json");
    let quiet = args.has("--quiet");
    let mut client = Client::connect(&endpoint).map_err(|e| e.to_string())?;
    let mut progressed = false;
    let reply = client
        .call(&Request::run(id, spec), |event| {
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
    let row = FlagRow {
        values: &[FLAG_CACHE_DIR],
        switches: &[],
    };
    let args = scan(rest, "cache", &[&row])?;
    let [action, file @ ..] = args.at_most(2, "cache", "an action and at most one file")? else {
        return Err(
            "cache needs `stats`, `clear`, `verify`, `compact`, `import` or `export`".into(),
        );
    };
    let file = file.first().copied();
    if file.is_some() && !matches!(*action, "import" | "export") {
        return Err(format!("cache {action} takes no file"));
    }
    let dir = cache_dir_of(&args);
    match *action {
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
            let file = file.ok_or("cache import needs a JSONL file path")?;
            let report =
                SimCache::import_store(&dir, Path::new(file)).map_err(|e| e.to_string())?;
            println!("imported  : {} entries from {file}", report.imported);
            println!(
                "skipped   : {} lines of another format version or not entries",
                report.skipped
            );
            Ok(())
        }
        "export" => {
            let file = file.ok_or("cache export needs an output file path")?;
            let count = SimCache::export_store(&dir, Path::new(file)).map_err(|e| e.to_string())?;
            println!("exported  : {count} entries to {file}");
            Ok(())
        }
        other => Err(format!("unknown cache action `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_apps::AppKind;
    use ddtr_core::MethodologyConfig;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    /// The application and pipeline configuration an `explore`-mode
    /// subcommand's arguments resolve to.
    fn parse_app(rest: &[&String], cmd: &str) -> Result<(AppKind, MethodologyConfig), String> {
        match local_request(rest, cmd, "explore", &[&SPEC_FLAGS, &ENGINE_FLAGS])?.1 {
            ExploreRequest::Explore(cfg) => Ok((cfg.app, cfg)),
            other => Err(format!("resolved to a {} request", other.mode())),
        }
    }

    /// The request a local subcommand's arguments resolve to in `mode`.
    fn local(list: &[&str], cmd: &str, mode: &str) -> Result<ExploreRequest, String> {
        let binding = args(list);
        let rest: Vec<&String> = binding.iter().collect();
        Ok(local_request(&rest, cmd, mode, &[&SPEC_FLAGS, &ENGINE_FLAGS])?.1)
    }

    /// The request a `ddtr query` command line (after the endpoint)
    /// resolves to before it is sent.
    fn query_request(list: &[&str]) -> Result<ExploreRequest, String> {
        let binding = args(list);
        let rest: Vec<&String> = binding.iter().collect();
        let scanned = scan(&rest, "query", &[&SPEC_FLAGS, &QUERY_FLAGS])?;
        resolve(&job_spec(&scanned, "query", None)?)
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
            (&["explore", "drr", "--quick", "--stream"], "--stream"),
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
    fn every_subcommand_rejects_unknown_flags_and_stray_positionals() {
        // Each typo rides with an input that would fail anyway, or with a
        // read-only action, so a regression neither serves nor deletes.
        let tmp = ddtr_engine::testing::TempCacheDir::new("cli-strict");
        let dir = tmp.path().to_string_lossy().into_owned();
        for (list, needle) in [
            (
                &["serve", "--worker", "4", "--listen", "carrier-pigeon:coop"][..],
                "`--worker`",
            ),
            (
                &[
                    "serve",
                    "--max-conn",
                    "2",
                    "--listen",
                    "carrier-pigeon:coop",
                ],
                "`--max-conn`",
            ),
            (
                &["serve", "stdio", "--listen", "carrier-pigeon:coop"],
                "no positional arguments",
            ),
            (&["loadtest", "stdio", "--client", "3"], "`--client`"),
            (&["cache", "stats", "--cachedir", &dir], "`--cachedir`"),
            (&["cache", "stats", "extra", "--cache-dir", &dir], "no file"),
            (
                &["query", "tcp:127.0.0.1:1", "metrics", "--frobnicate"],
                "`--frobnicate`",
            ),
            (&["presets", "--bogus"], "`--bogus`"),
            (&["presets", "stray"], "no arguments"),
            (&["mem-presets", "--nope"], "`--nope`"),
            (&["trace", "BWY-I", "10", "extra"], "<preset> <packets>"),
            (&["params", "BWY-I", "10", "extra"], "<preset> <packets>"),
            (
                &["replay", "/nonexistent/logs.jsonl", "extra"],
                "<logs.jsonl>",
            ),
        ] {
            let err = run(&args(list)).unwrap_err();
            assert!(err.contains(needle), "{list:?}: {err}");
        }
    }

    #[test]
    fn local_subcommands_and_query_resolve_the_same_request() {
        for (mode, list) in [
            ("explore", &["drr", "--quick", "--mem", "l2"][..]),
            ("ga", &["nat", "--quick", "--seed", "7", "--stall", "2"]),
            ("scenarios", &["--quick", "--scenario", "ddos-syn", "url"]),
            (
                "sweep",
                &["--quick", "--packets", "40", "--mem", "embedded,deep"],
            ),
        ] {
            let local = local(list, mode, mode).expect("local spec resolves");
            let remote = query_request(&[&[mode][..], list].concat()).expect("query resolves");
            assert_eq!(
                serde_json::to_string(&local).expect("ser"),
                serde_json::to_string(&remote).expect("ser"),
                "{mode}: CLI and query must resolve one request"
            );
        }
    }

    #[test]
    fn query_carries_the_stall_window() {
        let request = query_request(&["ga", "drr", "--quick", "--stall", "2"]).expect("ga");
        let ExploreRequest::Ga(cfg) = request else {
            panic!("wrong mode {}", request.mode());
        };
        assert_eq!(cfg.stall_generations, Some(2));
        // The spec field, not the CLI, rejects it on every other mode.
        let err = run(&args(&[
            "query",
            "tcp:127.0.0.1:1",
            "explore",
            "drr",
            "--stall",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("`--stall`"), "{err}");
        let err = run(&args(&["scenarios", "drr", "--quick", "--stall", "2"])).unwrap_err();
        assert!(err.contains("`--stall`"), "{err}");
    }

    #[test]
    fn scenarios_take_scenario_columns() {
        let list = [
            "drr",
            "--quick",
            "--packets",
            "20",
            "--scenario",
            "ddos-syn",
        ];
        let request = local(&list, "scenarios", "scenarios").expect("resolves");
        let ExploreRequest::Scenarios(cfg) = request else {
            panic!("wrong mode {}", request.mode());
        };
        assert_eq!(cfg.scenarios, vec![Scenario::DdosSyn], "one column");
        assert_eq!(cfg.apps, vec![AppKind::Drr]);
        run(&args(
            &[&["scenarios"][..], &list, &["--no-cache"]].concat(),
        ))
        .expect("one-column matrix runs");
        // A misspelt field of another mode is named by its flag.
        let err = run(&args(&[
            "explore",
            "drr",
            "--quick",
            "--scenario",
            "bursty",
        ]))
        .unwrap_err();
        assert!(err.contains("`--scenario`"), "{err}");
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
        let err = run(&args(&["loadtest", "tcp:127.0.0.1:1", "--clients", "0"])).unwrap_err();
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

    /// The subcommands of README's reference table: the rows under the
    /// header row that contains "subcommand", each named by the first
    /// word of its first backticked cell.
    fn readme_subcommands() -> Vec<&'static str> {
        let mut rows = Vec::new();
        let mut in_table = false;
        for line in include_str!("../../../README.md").lines() {
            let line = line.trim();
            if !line.starts_with('|') {
                in_table = false;
            } else if !in_table {
                in_table = line.contains("subcommand") && !line.contains('`');
            } else if let Some(cell) = line.split('`').nth(1) {
                rows.extend(cell.split_whitespace().next());
            }
        }
        rows
    }

    #[test]
    fn readme_and_usage_list_every_subcommand() {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        let rows = readme_subcommands();
        let undocumented: Vec<_> = names.iter().filter(|n| !rows.contains(n)).collect();
        let stale: Vec<_> = rows.iter().filter(|r| !names.contains(r)).collect();
        assert!(
            undocumented.is_empty() && stale.is_empty(),
            "commands missing from README's subcommand table: {undocumented:?}; \
             README rows the CLI does not dispatch: {stale:?}"
        );
        for name in names {
            assert!(
                USAGE.lines().any(|line| {
                    let mut words = line.split_whitespace();
                    words.next() == Some("ddtr") && words.next() == Some(name)
                }),
                "USAGE has no `ddtr {name}` line"
            );
        }
    }
}
