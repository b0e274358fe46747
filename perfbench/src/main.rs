//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep-cold|replay-warm|serve-mix> --seed <n> [--seconds <s>] --trace <0|1>
//! ```
//!
//! Each workload drives the program only through its public library
//! entry points, checks its outputs against content digests, and prints
//! a human-readable report followed, as the last line of standard output,
//! by one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! second, traced pass with `--trace 1`. Every workload does a fixed
//! number of operations; `--seconds` is accepted and recorded, and sizes
//! nothing. See `perfbench/NOTES.md` for why each workload exists and how
//! the figures are made steady.

mod digest;
mod layers;
mod probes;
mod replay;
mod serve_mix;
mod stats;
mod sweep;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Host parallelism: worker threads and connections never exceed it.
    pub jobs: usize,
    /// Scratch directory of this run (result stores, sockets), removed
    /// at exit.
    pub work: PathBuf,
    /// Output directory (result records, Chrome traces).
    pub out: PathBuf,
}

/// The end-to-end figures every workload reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up time (process start to the first timed operation), s.
    pub setup_s: f64,
    /// Simulated packets per second of timed wall time.
    pub sim_pkts_per_s: f64,
    /// Completed requests per second of timed wall time.
    pub req_per_s: f64,
    /// Nearest-rank median request latency, ms.
    pub p50_ms: f64,
    /// Tail latency at `tail_pct`, ms.
    pub tail_ms: f64,
    /// The nearest-rank percentile `tail_ms` is taken at.
    pub tail_pct: usize,
    /// Samples behind `p50_ms` and `tail_ms`.
    pub samples: usize,
    /// Median latency of never-seen requests, ms.
    pub cold_p50_ms: f64,
}

impl EndToEnd {
    /// The figures as `(name, value, unit)` rows, in `BENCHMARK.json`
    /// order.
    fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("sim_pkts_per_s", self.sim_pkts_per_s, "packets/s"),
            ("req_per_s", self.req_per_s, "requests/s"),
            ("p50_ms", self.p50_ms, "ms"),
            ("tail_ms", self.tail_ms, "ms"),
            ("cold_p50_ms", self.cold_p50_ms, "ms"),
            ("peak_rss_mb", stats::peak_rss_mib(), "MiB"),
        ]
    }

    /// One human-readable line.
    pub fn line(&self, label: &str) -> String {
        format!(
            "{label}: setup_s={:.4} sim_pkts_per_s={:.0} req_per_s={:.2} p50_ms={:.3} tail_ms={:.3} (p{} of {}) cold_p50_ms={:.3}",
            self.setup_s,
            self.sim_pkts_per_s,
            self.req_per_s,
            self.p50_ms,
            self.tail_ms,
            self.tail_pct,
            self.samples,
            self.cold_p50_ms
        )
    }
}

/// What a workload hands back: operation accounting, the end-to-end
/// figures, the per-layer metrics of the traced pass (when run) and
/// free-form facts for the human-readable report.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (timed operations plus output checks).
    pub attempted: u64,
    /// Operations that failed an output check, errored or were dropped.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// End-to-end figures of the untraced pass.
    pub e2e: EndToEnd,
    /// Per-layer metrics of the traced pass.
    pub layers: Vec<layers::Row>,
    /// Facts recorded with the result (counts, digests, …).
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Counts `n` failed operations for `why`.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Checks one output: counts one attempted check, and one failure
    /// when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why());
        }
    }

    /// Records a fact for the report.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Compares a workload digest with the shipped golden one. The
    /// default and the held-out seed must have one; other seeds rely on
    /// the workloads' self-consistency checks.
    pub fn check_golden(&mut self, workload: &str, seed: u64, got: u64) {
        self.note("digest", format!("{got:016x}"));
        match digest::golden(workload, seed) {
            Some(want) => {
                self.note("golden", format!("{want:016x}"));
                self.check(want == got, || {
                    format!("digest {got:016x} differs from the golden {want:016x}")
                });
            }
            None if digest::has_golden(seed) => {
                self.check(false, || {
                    format!("no golden digest shipped for {workload} at seed {seed}")
                });
            }
            None => self.note(
                "golden",
                "none for this seed (self-consistency checks only)",
            ),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    /// Recorded only: every workload does a fixed number of operations.
    seconds: Option<u64>,
    trace: bool,
    /// Only set up, report `ready` and exit (see `stats::setup_samples`).
    setup_only: bool,
}

const WORKLOADS: [&str; 3] = ["sweep-cold", "replay-warm", "serve-mix"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--setup-only 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: digest::DEFAULT_SEED,
        seconds: None,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Some(number()?),
            "--trace" => args.trace = number()? != 0,
            "--setup-only" => args.setup_only = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(
        std::env::var("PERFBENCH_OUT").unwrap_or_else(|_| ".bench_build/perfbench".into()),
    );
    let work = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        trace: args.trace,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: work.clone(),
        out: out.clone(),
    };
    if args.setup_only {
        let ready = match args.workload.as_str() {
            "sweep-cold" => sweep::setup_only(&ctx),
            "replay-warm" => replay::setup_only(&ctx),
            _ => serve_mix::setup_only(&ctx),
        };
        let _ = std::fs::remove_dir_all(&work);
        return match ready {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {} set-up failed: {e}", args.workload);
                ExitCode::from(1)
            }
        };
    }
    let report = match args.workload.as_str() {
        "sweep-cold" => sweep::run(&ctx),
        "replay-warm" => replay::run(&ctx),
        _ => serve_mix::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    print_report(&args, &ctx, &report);
    let record = out.join(format!(
        "result-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&record, render_human(&args, &ctx, &report));
    ExitCode::SUCCESS
}

fn render_human(args: &Args, ctx: &Ctx, report: &Report) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut s = String::new();
    let mut line = |text: String| {
        s.push_str("# ");
        s.push_str(&text);
        s.push('\n');
    };
    line(format!(
        "perfbench workload={} seed={} (default {}, held-out {}) trace={} seconds={} (recorded only: \
         operation counts are fixed)",
        args.workload,
        args.seed,
        digest::DEFAULT_SEED,
        digest::HELD_OUT_SEED,
        u8::from(args.trace),
        args.seconds.map_or("-".to_string(), |s| s.to_string())
    ));
    line(format!(
        "host parallelism={} git_rev={} rustc={}",
        ctx.jobs,
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_RUSTC")
    ));
    line(
        "model: host time of a simulator whose CACTI-style energy model is not validated against \
         hardware; modelled caches start empty in every simulation"
            .into(),
    );
    for (k, v) in &report.info {
        line(format!("{k}: {v}"));
    }
    line(report.e2e.line("end-to-end (untraced)"));
    line(format!(
        "operations: attempted={} failed={} failed_frac={:.6}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    ));
    for why in &report.failures {
        line(format!("FAILED: {why}"));
    }
    if args.trace {
        for row in &report.layers {
            match row.value {
                Some(value) => line(format!("layer {} = {value:.6} {}", row.name, row.unit)),
                None => line(format!(
                    "layer {} = - (not exercised by this workload)",
                    row.name
                )),
            }
        }
    }
    s
}

/// Writes the traced pass's spans as a Chrome trace and collects the
/// per-layer metrics.
pub fn finish_trace(ctx: &Ctx, workload: &str, t: &tracer::Tracer, report: &mut Report) {
    let path = ctx
        .out
        .join(format!("trace-{workload}-seed{}.json", ctx.seed));
    match t.write_chrome(&path) {
        Ok(()) => report.note(
            "chrome trace",
            format!("{} ({} spans)", path.display(), t.len()),
        ),
        Err(e) => report.note("chrome trace", format!("not written: {e}")),
    }
    report.layers = layers::metrics(t);
    let missing: Vec<&str> = report
        .layers
        .iter()
        .filter(|row| row.listed && row.value.is_none())
        .map(|row| row.name.as_str())
        .collect();
    let missing = missing.join(", ");
    report.check(missing.is_empty(), || {
        format!("listed per-layer metrics not measured: {missing}")
    });
}

fn print_report(args: &Args, ctx: &Ctx, report: &Report) {
    print!("{}", render_human(args, ctx, report));
    let rows: Vec<(String, f64, &str)> = if args.trace {
        report
            .layers
            .iter()
            .filter(|row| row.listed)
            .map(|row| (row.name.clone(), row.value.unwrap_or(0.0), row.unit))
            .collect()
    } else {
        report
            .e2e
            .rows()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    };
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
