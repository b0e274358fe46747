//! Golden pipeline results: a digest of everything a user reads off the
//! quick `explore`, `headline` and `ga` runs of every application (plus an
//! extended-library explore, two non-default platforms, a scenario matrix
//! and a platform sweep), checked part by part against
//! `data/golden_results.txt`.
//!
//! `ddtr_engine`'s `golden_costs` corpus pins single simulations; this
//! file pins what the methodology builds from them: workload construction,
//! parameter extraction, profiling, survivor selection, the fronts, the
//! headline baseline and the GA trajectory. Every `CostReport` is hashed
//! bit-exact (`energy_nj.to_bits()`) together with the combination,
//! network and parameter labels. The echoed configuration and the engine
//! counters are left out: they describe how a result was computed, not
//! what it says. A deliberate model change regenerates the file with
//! `cargo test -p ddtr_core --test golden_results -- --ignored regenerate`
//! and says so in its commit.

use ddtr_apps::AppKind;
use ddtr_core::{
    dispatch_with, ExploreRequest, ExploreResult, GaConfig, GaOutcome, HeadlineReport,
    MethodologyConfig, MethodologyOutcome, ParetoPoint, ScenarioConfig, ScenarioMatrix,
    SweepConfig, SweepMatrix,
};
use ddtr_ddt::DdtKind;
use ddtr_engine::testing::TempCacheDir;
use ddtr_engine::{fnv1a64, EngineConfig, ExploreEngine, SimLog};
use ddtr_mem::{CostReport, MemoryPreset};
use ddtr_trace::{NetworkPreset, Scenario};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_results.txt");
const GOLDEN: &str = include_str!("data/golden_results.txt");

/// A canonical byte encoding of result content, hashed with FNV-1a.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn report(&mut self, r: &CostReport) -> &mut Self {
        self.u64(r.accesses)
            .u64(r.cycles)
            .u64(r.energy_nj.to_bits())
            .u64(r.peak_footprint_bytes)
    }

    fn logs(&mut self, logs: &[SimLog]) -> &mut Self {
        self.u64(logs.len() as u64);
        for log in logs {
            self.str(&log.app.to_string())
                .str(&log.combo)
                .str(&log.network)
                .str(&log.params)
                .report(&log.report);
        }
        self
    }

    fn points(&mut self, points: &[ParetoPoint]) -> &mut Self {
        self.u64(points.len() as u64);
        for p in points {
            self.str(&p.combo).report(&p.report);
        }
        self
    }

    fn strs(&mut self, items: &[String]) -> &mut Self {
        self.u64(items.len() as u64);
        for s in items {
            self.str(s);
        }
        self
    }

    fn json<T: serde::Serialize>(&mut self, value: &T) -> &mut Self {
        self.str(&serde_json::to_string(value).expect("result parts serialise"))
    }

    fn finish(&self) -> String {
        format!("{:016x}", fnv1a64(&self.0))
    }
}

/// One named part of a result and its digest.
type Part = (String, String);

fn part(name: impl Into<String>, fill: impl FnOnce(&mut Digest)) -> Part {
    let mut d = Digest::default();
    fill(&mut d);
    (name.into(), d.finish())
}

/// One matrix cell's part, named `cell.<app>.<scenario>[.<preset>]`.
fn cell_part(
    app: AppKind,
    scenario: Scenario,
    preset: Option<MemoryPreset>,
    network: &str,
    evaluations: usize,
    front: &[SimLog],
) -> Part {
    let mut name = format!("cell.{}.{scenario}", app.to_string().to_lowercase());
    if let Some(preset) = preset {
        name = format!("{name}.{preset}");
    }
    part(name, |d| {
        d.str(&app.to_string()).str(&scenario.to_string());
        if let Some(preset) = preset {
            d.str(&preset.to_string());
        }
        d.str(network).u64(evaluations as u64).logs(front);
    })
}

fn explore_parts(o: &MethodologyOutcome) -> Vec<Part> {
    vec![
        part("profile", |d| {
            d.strs(&o.profile.dominant)
                .u64(o.profile.dominant_share.to_bits())
                .json(&o.profile.slots);
        }),
        part("step1.measurements", |d| {
            d.logs(&o.step1.measurements);
        }),
        part("step1.survivors", |d| {
            d.strs(&o.step1.survivors);
        }),
        part("step2.configs", |d| {
            d.json(&o.step2.configs);
        }),
        part("step2.logs", |d| {
            d.logs(&o.step2.logs);
        }),
        part("pareto.per_config", |d| {
            for front in &o.pareto.per_config {
                d.str(&front.config_key.to_string()).points(&front.front);
            }
        }),
        part("pareto.global_front", |d| {
            d.points(&o.pareto.global_front);
        }),
        part("pareto.tradeoffs", |d| {
            for t in &o.pareto.tradeoffs {
                d.u64(t.min.to_bits()).u64(t.max.to_bits());
            }
        }),
        part("counts", |d| {
            d.u64(o.counts.exhaustive as u64)
                .u64(o.counts.reduced as u64)
                .u64(o.counts.pareto_optimal as u64);
        }),
    ]
}

fn headline_parts(h: &HeadlineReport) -> Vec<Part> {
    vec![
        part("baseline", |d| {
            d.report(&h.baseline);
        }),
        part("best_energy", |d| {
            d.str(&h.best_energy_combo).report(&h.best_energy);
        }),
        part("best_time", |d| {
            d.str(&h.best_time_combo).report(&h.best_time);
        }),
    ]
}

fn ga_parts(o: &GaOutcome) -> Vec<Part> {
    vec![
        part("front", |d| {
            d.logs(&o.front);
        }),
        part("evaluations", |d| {
            d.u64(o.evaluations as u64);
        }),
        part("history", |d| {
            for h in &o.history {
                d.u64(h.generation as u64)
                    .u64(h.evaluations as u64)
                    .u64(h.front_size as u64);
            }
        }),
    ]
}

fn scenario_parts(m: &ScenarioMatrix) -> Vec<Part> {
    m.cells
        .iter()
        .map(|c| cell_part(c.app, c.scenario, None, &c.network, c.evaluations, &c.front))
        .collect()
}

fn sweep_parts(m: &SweepMatrix) -> Vec<Part> {
    let mut parts: Vec<Part> = m
        .cells
        .iter()
        .map(|c| {
            cell_part(
                c.app,
                c.scenario,
                Some(c.mem),
                &c.network,
                c.evaluations,
                &c.front,
            )
        })
        .collect();
    parts.push(part("survivors", |d| {
        d.u64(m.survivors.len() as u64);
        for s in &m.survivors {
            d.str(&s.combo).u64(s.cells_on_front as u64);
        }
    }));
    parts
}

fn parts_of(result: &ExploreResult) -> Vec<Part> {
    match result {
        ExploreResult::Explore(o) => explore_parts(o),
        ExploreResult::Headline(h) => headline_parts(h),
        ExploreResult::Ga(o) => ga_parts(o),
        ExploreResult::Scenarios(m) => scenario_parts(m),
        ExploreResult::Sweep(m) => sweep_parts(m),
    }
}

/// Every case as `(name, request)`, in file order. The three requests of
/// one application share an in-memory engine, so `headline` answers its
/// pipeline from the preceding `explore`.
fn cases() -> Vec<Vec<(String, ExploreRequest)>> {
    let mut groups: Vec<Vec<(String, ExploreRequest)>> = AppKind::EXTENDED_ALL
        .iter()
        .map(|&app| {
            let cfg = MethodologyConfig::quick(app);
            let name = app.to_string().to_lowercase();
            vec![
                (
                    format!("explore-{name}-quick"),
                    ExploreRequest::Explore(cfg.clone()),
                ),
                (
                    format!("headline-{name}-quick"),
                    ExploreRequest::Headline(cfg),
                ),
                (
                    format!("ga-{name}-quick"),
                    ExploreRequest::Ga(GaConfig::quick(app)),
                ),
            ]
        })
        .collect();
    let mut extended = MethodologyConfig::quick(AppKind::Drr);
    extended.candidates = DdtKind::EXTENDED.to_vec();
    let mut l2 = MethodologyConfig::quick(AppKind::Url);
    l2.mem = MemoryPreset::L2.config();
    let mut spm = GaConfig::quick(AppKind::Nat);
    spm.mem = MemoryPreset::Spm.config();
    groups.push(vec![(
        "explore-drr-quick-extended".into(),
        ExploreRequest::Explore(extended),
    )]);
    groups.push(vec![(
        "explore-url-quick-mem-l2".into(),
        ExploreRequest::Explore(l2),
    )]);
    groups.push(vec![(
        "ga-nat-quick-mem-spm".into(),
        ExploreRequest::Ga(spm),
    )]);
    // The matrix modes on a 4-kind candidate set and 40-packet streams.
    let candidates = vec![
        DdtKind::Array,
        DdtKind::Sll,
        DdtKind::DllRov,
        DdtKind::SllChunk,
    ];
    let mut scenarios = ScenarioConfig::quick(NetworkPreset::DartmouthBerry);
    scenarios.apps = vec![AppKind::Drr, AppKind::Url];
    scenarios.scenarios = vec![Scenario::Baseline, Scenario::FlashCrowd, Scenario::DdosSyn];
    scenarios.candidates = candidates.clone();
    scenarios.packets_per_sim = 40;
    let mut sweep = SweepConfig::quick(NetworkPreset::DartmouthBerry);
    sweep.mem_presets = vec![MemoryPreset::Embedded, MemoryPreset::L2, MemoryPreset::Spm];
    sweep.candidates = candidates;
    sweep.packets_per_sim = 40;
    groups.push(vec![(
        "scenarios-drr-url-4ddt".into(),
        ExploreRequest::Scenarios(scenarios),
    )]);
    groups.push(vec![(
        "sweep-drr-embedded-l2-spm-4ddt".into(),
        ExploreRequest::Sweep(sweep),
    )]);
    groups
}

/// One row per case and part of `group`, run on `engine`:
/// `case part digest`.
fn group_rows(engine: &mut ExploreEngine, group: &[(String, ExploreRequest)]) -> Vec<String> {
    let mut rows = Vec::new();
    for (name, request) in group {
        let result =
            dispatch_with(engine, request).unwrap_or_else(|e| panic!("case {name} failed: {e}"));
        for (part, digest) in parts_of(&result) {
            rows.push(format!("{name} {part} {digest}"));
        }
    }
    rows
}

/// Every row, each group on an in-memory engine of its own.
fn result_rows() -> Vec<String> {
    cases()
        .iter()
        .flat_map(|group| group_rows(&mut ExploreEngine::in_memory(), group))
        .collect()
}

/// Fails, naming the case and part, where `actual` differs from the
/// golden file.
fn assert_golden(actual: &[String]) {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    for (want, got) in expected.iter().zip(actual) {
        let mut fields = want.split(' ');
        let (case, part) = (fields.next().unwrap_or(""), fields.next().unwrap_or(""));
        assert_eq!(
            *want, got,
            "case `{case}` differs in `{part}`:\n  golden: {want}\n  actual: {got}"
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "golden file has {} rows, the pipeline produced {}",
        expected.len(),
        actual.len()
    );
}

#[test]
fn pipeline_results_match_the_golden_digests() {
    assert_golden(&result_rows());
}

/// The result store gives the golden rows too: each group runs on a
/// fresh on-disk store, then again from a fresh engine on the reopened
/// store, which must answer every unit from its records.
#[test]
fn a_reopened_store_replays_the_golden_digests_executing_nothing() {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for (g, group) in cases().iter().enumerate() {
        let tmp = TempCacheDir::new("golden-warm");
        let cfg = EngineConfig {
            cache_dir: Some(tmp.path().to_path_buf()),
            ..EngineConfig::default()
        };
        let mut engine = ExploreEngine::new(cfg.clone()).expect("cold engine");
        cold.extend(group_rows(&mut engine, group));
        drop(engine);
        let mut engine = ExploreEngine::new(cfg).expect("warm engine");
        warm.extend(group_rows(&mut engine, group));
        let stats = engine.stats();
        assert_eq!(
            stats.misses, 0,
            "group {g} ({}): the warm pass executed {} units",
            group[0].0, stats.misses
        );
        assert!(stats.hits > 0, "group {g}: the warm pass read no records");
    }
    assert_golden(&cold);
    assert_golden(&warm);
}

#[test]
#[ignore = "rewrites the golden results; run only for a deliberate model change"]
fn regenerate() {
    let mut text = String::from(
        "# Golden pipeline results; checked by tests/golden_results.rs.\n\
         # case part fnv1a64-digest\n",
    );
    for row in result_rows() {
        text.push_str(&row);
        text.push('\n');
    }
    std::fs::write(GOLDEN_PATH, text).expect("write the golden results");
}
