//! Golden `CostReport` corpus: every application × a combination sample
//! that puts each of the ten paper DDTs in each slot × every memory preset
//! and the platform variants no preset exercises (FIFO and Random
//! replacement in L1 and L2, best-fit and next-fit heaps, non-power-of-two
//! set counts), checked bit-for-bit against `data/golden_costs.txt`.
//!
//! The corpus is checked twice: one `Simulator` per platform, and one
//! engine batch per (application, combination) over all the platforms,
//! whose lane-compatible platforms (`embedded`, `l2`, `l2-small`) run as
//! the lanes of one pass.
//!
//! Self-consistency tests cannot catch a change that moves every run the
//! same way; this corpus can. Any change to `accesses`, `cycles`,
//! `peak_footprint_bytes` or the bits of `energy_nj` (including the
//! summation order of the `f64` energy ledger) fails it. A deliberate model
//! change regenerates the file with
//! `cargo test -p ddtr_engine --test golden_costs -- --ignored regenerate`
//! and says so in its commit.

use ddtr_apps::{AppKind, AppParams};
use ddtr_ddt::DdtKind;
use ddtr_engine::{
    combo_label, fingerprint_trace, Combo, EngineConfig, ExploreEngine, SimUnit, Simulator,
};
use ddtr_mem::{CacheConfig, CostReport, FitPolicy, MemoryConfig, MemoryPreset, ReplacementPolicy};
use ddtr_trace::{NetworkPreset, Trace};

const PACKETS: usize = 60;
const CORPUS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_costs.txt");
const CORPUS: &str = include_str!("data/golden_costs.txt");

/// Ten combinations in which every paper DDT occupies slot 0 once and
/// slot 1 once, never beside itself.
fn combos() -> Vec<Combo> {
    let kinds = DdtKind::ALL;
    (0..kinds.len())
        .map(|i| [kinds[i], kinds[(i + 3) % kinds.len()]])
        .collect()
}

fn with_replacement(l1: ReplacementPolicy, l2: ReplacementPolicy) -> MemoryConfig {
    let base = MemoryConfig::with_l2();
    MemoryConfig {
        l1: CacheConfig {
            replacement: l1,
            ..base.l1
        },
        l2: base.l2.map(|c| CacheConfig {
            replacement: l2,
            ..c
        }),
        ..base
    }
}

/// Every preset, then the configurations no preset reaches.
fn platforms() -> Vec<(String, MemoryConfig)> {
    let mut out: Vec<(String, MemoryConfig)> = MemoryPreset::ALL
        .iter()
        .map(|p| (p.name().to_owned(), p.config()))
        .collect();
    let embedded = MemoryConfig::embedded_default();
    out.extend([
        (
            "l1-fifo-l2-random".to_owned(),
            with_replacement(ReplacementPolicy::Fifo, ReplacementPolicy::Random),
        ),
        (
            "l1-random-l2-fifo".to_owned(),
            with_replacement(ReplacementPolicy::Random, ReplacementPolicy::Fifo),
        ),
        (
            "best-fit".to_owned(),
            MemoryConfig {
                fit_policy: FitPolicy::BestFit,
                ..embedded
            },
        ),
        (
            "next-fit".to_owned(),
            MemoryConfig {
                fit_policy: FitPolicy::NextFit,
                ..embedded
            },
        ),
        (
            // 192 L1 sets over 384 L2 sets: the modulo indexing path.
            "npot-l1-24k-l2-96k".to_owned(),
            MemoryConfig {
                l1: CacheConfig {
                    capacity_bytes: 24 * 1024,
                    ..embedded.l1
                },
                l2: Some(CacheConfig {
                    capacity_bytes: 96 * 1024,
                    line_bytes: 32,
                    ways: 8,
                    hit_cycles: 6,
                    replacement: ReplacementPolicy::Lru,
                }),
                ..embedded
            },
        ),
    ]);
    for (name, cfg) in &out {
        cfg.validate()
            .unwrap_or_else(|e| panic!("platform {name} is invalid: {e}"));
    }
    out
}

/// One corpus row:
/// `app combo platform accesses cycles peak_footprint_bytes energy_bits`.
fn row(app: AppKind, combo: Combo, platform: &str, r: &CostReport) -> String {
    format!(
        "{app} {} {platform} {} {} {} {:#018x}",
        combo_label(combo),
        r.accesses,
        r.cycles,
        r.peak_footprint_bytes,
        r.energy_nj.to_bits()
    )
}

/// One row per simulation, one `Simulator` per platform.
fn corpus_rows() -> Vec<String> {
    let trace: Trace = NetworkPreset::DartmouthBerry.generate(PACKETS);
    let params = AppParams::default();
    let combos = combos();
    let mut rows = Vec::new();
    for (name, cfg) in platforms() {
        let sim = Simulator::new(cfg);
        for app in AppKind::EXTENDED_ALL {
            for &combo in &combos {
                rows.push(row(
                    app,
                    combo,
                    &name,
                    &sim.run(app, combo, &params, &trace).report,
                ));
            }
        }
    }
    rows
}

/// The same rows, in the same order, from one engine batch per
/// (application, combination) over every platform.
fn corpus_rows_by_engine_batch() -> Vec<String> {
    let trace: Trace = NetworkPreset::DartmouthBerry.generate(PACKETS);
    let fp = fingerprint_trace(&trace);
    let params = AppParams::default();
    let combos = combos();
    let platforms = platforms();
    let apps = AppKind::EXTENDED_ALL;
    let mut engine = ExploreEngine::new(EngineConfig {
        jobs: 2,
        no_cache: true,
        ..EngineConfig::default()
    })
    .expect("in-memory engine");
    let mut rows = vec![String::new(); platforms.len() * apps.len() * combos.len()];
    for (a, &app) in apps.iter().enumerate() {
        for (c, &combo) in combos.iter().enumerate() {
            let units: Vec<SimUnit> = platforms
                .iter()
                .map(|(_, cfg)| SimUnit::with_fingerprint(app, combo, &params, &trace, fp, *cfg))
                .collect();
            let logs = engine.evaluate_batch(&units);
            for (p, ((name, _), log)) in platforms.iter().zip(&logs).enumerate() {
                rows[(p * apps.len() + a) * combos.len() + c] = row(app, combo, name, &log.report);
            }
        }
    }
    rows
}

fn energy_of(row: &str) -> f64 {
    row.rsplit(' ')
        .next()
        .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
        .map_or(f64::NAN, f64::from_bits)
}

fn assert_matches_the_corpus(actual: &[String]) {
    let expected: Vec<&str> = CORPUS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    for (i, (want, got)) in expected.iter().zip(actual).enumerate() {
        assert_eq!(
            *want,
            got,
            "first differing row {i}:\n  golden: {want} (energy {} nJ)\n  actual: {got} (energy {} nJ)",
            energy_of(want),
            energy_of(got)
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "corpus has {} rows, the simulator produced {}",
        expected.len(),
        actual.len()
    );
}

#[test]
fn cost_reports_match_the_golden_corpus() {
    assert_matches_the_corpus(&corpus_rows());
}

#[test]
fn lane_batches_match_the_golden_corpus() {
    assert_matches_the_corpus(&corpus_rows_by_engine_batch());
}

#[test]
fn combo_sample_puts_every_kind_in_every_slot() {
    let combos = combos();
    for slot in 0..2 {
        let mut seen: Vec<DdtKind> = combos.iter().map(|c| c[slot]).collect();
        seen.sort();
        assert_eq!(seen, DdtKind::ALL.to_vec(), "slot {slot}");
    }
    assert!(combos.iter().all(|c| c[0] != c[1]));
}

#[test]
#[ignore = "rewrites the golden corpus; run only for a deliberate model change"]
fn regenerate() {
    let mut text = String::from(
        "# Golden CostReport corpus; checked by tests/golden_costs.rs.\n\
         # app combo platform accesses cycles peak_footprint_bytes energy_nj.to_bits()\n",
    );
    for row in corpus_rows() {
        text.push_str(&row);
        text.push('\n');
    }
    std::fs::write(CORPUS_PATH, text).expect("write the golden corpus");
}
