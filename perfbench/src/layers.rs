//! The per-layer metric catalog: every metric the traced pass reports,
//! computed from the spans and observations a [`Tracer`] collected.
//!
//! A metric of a layer the workload does not exercise has no value (its
//! spans and observations are absent). The metrics `BENCHMARK.json` lists
//! are the ones every workload exercises with its own work;
//! `perfbench/NOTES.md` lists which workload moves which layer.

use crate::tracer::Tracer;
use ddtr_apps::AppKind;

/// The span names of one application's build and per-packet work.
pub fn app_spans(app: AppKind) -> (&'static str, &'static str) {
    match app {
        AppKind::Route => ("app.route.build", "app.route.packet"),
        AppKind::Url => ("app.url.build", "app.url.packet"),
        AppKind::Ipchains => ("app.ipchains.build", "app.ipchains.packet"),
        AppKind::Drr => ("app.drr.build", "app.drr.packet"),
        AppKind::Nat => ("app.nat.build", "app.nat.packet"),
    }
}

/// Error codes the serve layer counts, by wire name.
pub const ERROR_CODES: [&str; 11] = [
    "Parse",
    "BadRequest",
    "AuthRequired",
    "AuthFailed",
    "UnsupportedProtocol",
    "RateLimited",
    "TooLarge",
    "DuplicateId",
    "UnknownTarget",
    "Overloaded",
    "Internal",
];

/// Layers whose self time is reported, by span-name prefix, and whether
/// `BENCHMARK.json` lists the layer's self time.
const LAYERS: [(&str, bool); 8] = [
    ("trace", true),
    ("app", true),
    ("sim", true),
    ("engine", true),
    ("store", true),
    ("core", true),
    ("pareto", true),
    ("serve", false),
];

/// One per-layer metric of a traced pass.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// The value; `None` when the workload does not exercise the layer.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Whether `BENCHMARK.json` lists the metric (every workload
    /// measures it).
    pub listed: bool,
}

/// How one metric is derived from the tracer.
enum Source {
    /// Median over spans of ns per unit, scaled by the factor.
    PerUnit(&'static str, f64),
    /// Sum of observations.
    Sum(&'static str),
    /// Median of observations.
    Median(&'static str),
    /// Ratio of two observation sums.
    Ratio(&'static str, &'static str),
}

/// Metrics `BENCHMARK.json` lists, besides the self times of the layers
/// marked in [`LAYERS`]: the ones every workload's traced pass measures.
const LISTED: [&str; 10] = [
    "trace.gen",
    "sim.packet",
    "sim.access",
    "mem.accesses_per_packet",
    "mem.l1.miss_ratio",
    "engine.key",
    "store.open",
    "store.get",
    "pareto.front",
    "tracing.overhead_pct",
];

/// The catalog (self times and error codes follow).
const CATALOG: [(&str, &str, Source); 46] = {
    use Source::*;
    [
        ("trace.gen", "ns/packet", PerUnit("trace.gen", 1.0)),
        (
            "app.route.build",
            "us/sim",
            PerUnit("app.route.build", 1e-3),
        ),
        ("app.url.build", "us/sim", PerUnit("app.url.build", 1e-3)),
        (
            "app.ipchains.build",
            "us/sim",
            PerUnit("app.ipchains.build", 1e-3),
        ),
        ("app.drr.build", "us/sim", PerUnit("app.drr.build", 1e-3)),
        ("app.nat.build", "us/sim", PerUnit("app.nat.build", 1e-3)),
        (
            "app.route.packet",
            "ns/packet",
            PerUnit("app.route.packet", 1.0),
        ),
        (
            "app.url.packet",
            "ns/packet",
            PerUnit("app.url.packet", 1.0),
        ),
        (
            "app.ipchains.packet",
            "ns/packet",
            PerUnit("app.ipchains.packet", 1.0),
        ),
        (
            "app.drr.packet",
            "ns/packet",
            PerUnit("app.drr.packet", 1.0),
        ),
        (
            "app.nat.packet",
            "ns/packet",
            PerUnit("app.nat.packet", 1.0),
        ),
        ("sim.packet", "ns/packet", PerUnit("sim.run", 1.0)),
        ("sim.access", "ns/access", Median("sim.access")),
        (
            "mem.accesses_per_packet",
            "accesses/packet",
            Ratio("mem.accesses", "mem.packets"),
        ),
        (
            "mem.l1.miss_ratio",
            "ratio",
            Ratio("mem.l1.misses", "mem.l1.accesses"),
        ),
        (
            "mem.l2.miss_ratio",
            "ratio",
            Ratio("mem.l2.misses", "mem.l2.accesses"),
        ),
        (
            "mem.allocs_per_packet",
            "allocs/packet",
            Ratio("mem.allocs", "mem.packets"),
        ),
        ("engine.key", "us/unit", PerUnit("engine.key", 1e-3)),
        (
            "engine.trace_fp",
            "us/trace",
            PerUnit("engine.trace_fp", 1e-3),
        ),
        ("engine.hit", "us/unit", PerUnit("engine.hit", 1e-3)),
        ("engine.miss", "us/unit", PerUnit("engine.miss", 1e-3)),
        (
            "engine.par_eff",
            "ratio",
            Ratio("engine.serial_ns", "engine.parallel_ns"),
        ),
        ("engine.hits", "count", Sum("engine.hits")),
        ("engine.executed", "count", Sum("engine.executed")),
        ("store.open", "us", PerUnit("store.open", 1e-3)),
        ("store.get", "us", PerUnit("store.get", 1e-3)),
        ("store.append", "us", PerUnit("store.append", 1e-3)),
        ("store.flush", "ms", PerUnit("store.flush", 1e-6)),
        (
            "store.bytes_per_record",
            "B/record",
            Median("store.bytes_per_record"),
        ),
        ("store.publishes", "records", Sum("store.publishes")),
        ("store.corrupt", "count", Sum("store.corrupt")),
        ("core.profile", "ms", PerUnit("core.profile", 1e-6)),
        ("core.step1", "ms", PerUnit("core.step1", 1e-6)),
        ("core.step2", "ms", PerUnit("core.step2", 1e-6)),
        ("core.step3", "ms", PerUnit("core.step3", 1e-6)),
        ("core.cell", "ms", PerUnit("core.cell", 1e-6)),
        ("core.encode", "ms", PerUnit("core.encode", 1e-6)),
        ("core.result_kb", "kB", Median("core.result_kb")),
        ("pareto.front", "us", PerUnit("pareto.front", 1e-3)),
        ("serve.connect", "ms", PerUnit("serve.connect", 1e-6)),
        ("serve.ping", "us", PerUnit("serve.ping", 1e-3)),
        ("serve.resolve", "us", PerUnit("serve.resolve", 1e-3)),
        ("serve.overhead", "ms", Median("serve.overhead_ms")),
        ("serve.worker_share", "ratio", Median("serve.worker_share")),
        ("serve.errors", "count", Sum("serve.errors")),
        ("tracing.overhead_pct", "%", Median("tracing.overhead_pct")),
    ]
};

/// Every per-layer metric, in catalog order.
pub fn metrics(t: &Tracer) -> Vec<Row> {
    let sum = |name: &str| {
        let values = t.values(name);
        (!values.is_empty()).then(|| values.iter().sum::<f64>())
    };
    let mut rows: Vec<Row> = CATALOG
        .iter()
        .map(|(name, unit, source)| {
            let value = match source {
                Source::PerUnit(span, scale) => t.ns_per_unit(span).map(|ns| ns * scale),
                Source::Sum(v) => sum(v),
                Source::Median(v) => {
                    let values = t.values(v);
                    (!values.is_empty()).then(|| crate::stats::median(&values))
                }
                Source::Ratio(a, b) => match (sum(a), sum(b)) {
                    (Some(a), Some(b)) if b > 0.0 => Some(a / b),
                    _ => None,
                },
            };
            Row {
                name: name.to_string(),
                value,
                unit,
                listed: LISTED.contains(name),
            }
        })
        .collect();
    for code in ERROR_CODES {
        rows.push(Row {
            name: format!("serve.errors.{code}"),
            value: sum(&format!("serve.errors.{code}")).or(sum("serve.errors").map(|_| 0.0)),
            unit: "count",
            listed: false,
        });
    }
    let self_ms = t.self_ms_by_layer();
    for (layer, listed) in LAYERS {
        rows.push(Row {
            name: format!("self_ms.{layer}"),
            value: self_ms.get(layer).copied(),
            unit: "ms",
            listed,
        });
    }
    rows
}
