//! The reproduction scorecard: every table, figure and study of the paper,
//! measured on one shared engine and printed as one markdown file.
//!
//! ```sh
//! cargo run --release -p ddtr_bench --bin reproduce > REPRODUCTION.md
//! ```
//!
//! The experiments run as [`ExploreRequest`]s through [`dispatch_with`] on
//! one [`ExploreEngine`], so a simulation that several sections need runs
//! once. Studies of a single DDT, of static sizing or of custom traffic
//! call the simulator directly. The output holds no timings or engine
//! counters, so it is the same on every host; CI regenerates the
//! checked-in `REPRODUCTION.md` and fails on any difference.

use ddtr_apps::{AppKind, AppParams};
use ddtr_core::{
    all_combos, combo_label, dispatch_with, parse_combo, render_pareto_chart, table1_markdown,
    table2_markdown, ConfigKey, ExploreEngine, ExploreRequest, ExploreResult, GaConfig,
    HeadlineReport, MethodologyConfig, MethodologyOutcome, ParetoChartPlane, SimLog, Simulator,
};
use ddtr_ddt::{ChunkedDdt, Ddt, DdtKind, TestRecord};
use ddtr_mem::{EnergyModel, FitPolicy, MemoryConfig, MemoryPreset, MemorySystem};
use ddtr_pareto::{curve_2d, hypervolume, hypervolume_2d, pareto_front_indices, ScatterChart};
use ddtr_trace::{BurstProfile, NetworkPreset, StreamSpec, TraceSpec};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Measures one section and renders it, opening with one sentence on what
/// it measures.
type Section = fn(&mut ExploreEngine) -> String;

/// The scorecard's sections, by title.
const SECTIONS: [(&str, Section); 21] = [
    ("Table 1: simulation-count reduction", table1),
    ("Table 2: trade-offs among Pareto-optimal points", table2),
    ("Figure 3: URL time-energy exploration space", fig3),
    ("Figure 4: Route Pareto charts", fig4),
    ("§4 headline: refined DDTs versus the original", headline),
    ("§1 motivation: static versus dynamic", static_vs_dynamic),
    ("§4 stability: variation across input traces", variance),
    ("Study: step-1 pruning fidelity", pruning),
    ("Study: survivor fraction", survivor_fraction),
    ("Study: chunk capacity", chunk_capacity),
    ("Study: roving pointers", roving_pointers),
    ("Study: energy-model sensitivity", energy_model),
    ("Study: DRR quantum (level of fairness)", drr_quantum),
    ("Study: traffic burstiness", burstiness),
    ("Study: heap fit policy", fit_policy),
    ("Study: L1 replacement policy", replacement_policy),
    ("Study: scratchpad descriptor placement", scratchpad),
    ("Study: NSGA-II hyper-parameters", ga_parameters),
    ("Extension: NSGA-II versus exhaustive step 1", heuristic),
    ("Extension: the 12-kind DDT library", extended_library),
    ("Extension: NAT gateway, a fifth application", nat_gateway),
];

const INTRO: &str = "Bartzas et al., *Dynamic data type refinement methodology for \
systematic performance-energy design exploration of network applications* \
(DATE 2006), reproduced on this repository's memory-hierarchy simulator. Each \
section says what it measures, then gives the measured values, with the \
paper's value as `(paper: ...)` wherever the paper reports one; studies beyond \
the paper follow its own artifacts.\n\nRegenerate with `cargo run --release -p \
ddtr_bench --bin reproduce > REPRODUCTION.md`; CI fails when this file differs \
from a fresh run.\n";

fn main() {
    let mut engine = ExploreEngine::in_memory();
    print!("# Reproduction scorecard\n\n{INTRO}");
    for (title, section) in SECTIONS {
        print!("\n## {title}\n\n{}", section(&mut engine));
    }
}

/// Dispatches one request on the engine and unwraps its result variant.
macro_rules! request {
    ($engine:expr, $mode:ident($cfg:expr)) => {
        match dispatch_with($engine, &ExploreRequest::$mode($cfg)) {
            Ok(ExploreResult::$mode(result)) => result,
            other => panic!("{} request failed: {other:?}", stringify!($mode)),
        }
    };
}

/// The paper-sized pipeline.
fn paper(engine: &mut ExploreEngine, app: AppKind) -> MethodologyOutcome {
    request!(engine, Explore(MethodologyConfig::paper(app)))
}

/// The paper-sized pipeline with every combination surviving step 1: the
/// exhaustive exploration.
fn exhaustive(engine: &mut ExploreEngine, app: AppKind) -> MethodologyOutcome {
    let mut cfg = MethodologyConfig::paper(app);
    cfg.survivor_fraction = 1.0;
    request!(engine, Explore(cfg))
}

/// A pipeline over one configuration, `network` with default parameters:
/// its step-1 measurements are every combination on that configuration.
fn one_config(app: AppKind, network: NetworkPreset, packets: usize) -> MethodologyConfig {
    let mut cfg = MethodologyConfig::paper(app);
    cfg.packets_per_sim = packets;
    cfg.reference_network = network;
    cfg.networks = vec![network];
    cfg.param_variants = vec![AppParams::default()];
    cfg
}

fn measure(engine: &mut ExploreEngine, cfg: MethodologyConfig) -> Vec<SimLog> {
    request!(engine, Explore(cfg)).step1.measurements
}

/// Every combination on [`GaConfig::paper`]'s configuration: the truth the
/// GA is scored against.
fn ga_truth(engine: &mut ExploreEngine, app: AppKind) -> Vec<SimLog> {
    let ga = GaConfig::paper(app);
    let mut cfg = one_config(app, ga.network, ga.packets_per_sim);
    cfg.param_variants = vec![ga.params];
    cfg.mem = ga.mem;
    measure(engine, cfg)
}

/// The combinations on the four-metric Pareto front of `logs`.
fn front(logs: &[SimLog]) -> BTreeSet<String> {
    let points: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
    let front = pareto_front_indices(&points);
    front.into_iter().map(|i| logs[i].combo.clone()).collect()
}

fn global_front(outcome: &MethodologyOutcome) -> BTreeSet<String> {
    let front = &outcome.pareto.global_front;
    front.iter().map(|p| p.combo.clone()).collect()
}

fn mean(logs: &[SimLog], metric: fn(&SimLog) -> f64) -> f64 {
    logs.iter().map(metric).sum::<f64>() / logs.len() as f64
}

fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// A markdown table; `header` and each row separate their cells by ` | `.
fn table(header: &str, rows: impl IntoIterator<Item = String>) -> String {
    let columns = header.matches(" | ").count() + 1;
    let mut out = format!("| {header} |\n|{}\n", "---|".repeat(columns));
    for row in rows {
        let _ = writeln!(out, "| {row} |");
    }
    out
}

/// A section that is its lead sentence and one table.
fn section(lead: &str, header: &str, rows: impl IntoIterator<Item = String>) -> String {
    format!("{lead}\n\n{}", table(header, rows))
}

/// A fenced plain-text block (charts, CSV, log lines).
fn text(body: &str) -> String {
    let body = body.strip_suffix('\n').unwrap_or(body);
    format!("```text\n{body}\n```\n")
}

fn stream(spec: TraceSpec, packets: usize) -> StreamSpec {
    StreamSpec::single(spec, packets).expect("reproduction workloads are valid")
}

fn paper_explores(engine: &mut ExploreEngine) -> Vec<MethodologyOutcome> {
    let apps = AppKind::EXTENDED_ALL;
    apps.iter().map(|&app| paper(engine, app)).collect()
}

fn table1(engine: &mut ExploreEngine) -> String {
    let outcomes = paper_explores(engine);
    format!(
        "Simulations the methodology runs against an exhaustive exploration of every \
         combination on every configuration, and the Pareto-optimal points it keeps \
         (NAT is not one of the paper's applications).\n\n{}",
        table1_markdown(&outcomes.iter().collect::<Vec<_>>())
    )
}

fn table2(engine: &mut ExploreEngine) -> String {
    let outcomes = paper_explores(engine);
    format!(
        "Per metric, (worst - best) / worst over the global Pareto front: how much a \
         designer trades by moving along it.\n\n{}",
        table2_markdown(&outcomes.iter().collect::<Vec<_>>())
    )
}

fn fig3(engine: &mut ExploreEngine) -> String {
    let logs = paper(engine, AppKind::Url).step1.measurements;
    let te = |l: &SimLog| [l.report.cycles as f64, l.report.energy_nj];
    let points: Vec<[f64; 2]> = logs.iter().map(te).collect();
    let labels: Vec<String> = logs.iter().map(|l| l.combo.clone()).collect();
    let chart = ScatterChart::new("execution time [cycles]", "energy [nJ]");
    // The paper's step-3 tool prunes over all four metrics, then plots the
    // survivors in the time-energy plane; points optimal on accesses or
    // footprint sit slightly off the 2-D hull.
    let points4: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
    let mut front4 = pareto_front_indices(&points4);
    front4.sort_by(|&a, &b| points4[a][1].total_cmp(&points4[b][1]));
    let header = "combo | time [cycles] | energy [nJ] | accesses | footprint [B]";
    let rows = front4.iter().map(|&i| {
        let ([e, t, a, f], combo) = (points4[i], &logs[i].combo);
        format!("{combo} | {t:.0} | {e:.1} | {a:.0} | {f:.0}")
    });
    format!(
        "URL's {} combinations on the reference network BWY-I (step 1 of the \
         paper-sized run) in the time-energy plane (3a), and the {} points \
         Pareto-optimal over all four metrics (3b).\n\n{}\n{}\nThe data of Figure \
         3a:\n\n{}",
        logs.len(),
        front4.len(),
        text(&chart.render(&points)),
        table(header, rows),
        text(&chart.to_csv(&labels, &points)),
    )
}

fn fig4(engine: &mut ExploreEngine) -> String {
    let outcome = paper(engine, AppKind::Route);
    let mut curves = Vec::new();
    for front in &outcome.pareto.per_config {
        if front.config_key.params != "radix128" {
            continue;
        }
        let network = &front.config_key.network;
        let mut points: Vec<_> = front.front.iter().collect();
        points.sort_by_key(|p| p.report.cycles);
        for p in points {
            let (combo, cycles, energy) = (&p.combo, p.report.cycles, p.report.energy_nj);
            curves.push(format!("{network} | {combo} | {cycles} | {energy:.1}"));
        }
    }
    // Figures 4b/4c and the factors span the full 100-combination space on
    // the Berry radix-256 configuration: the paper compares the Pareto
    // curve against the points off it, which step 1 prunes away.
    let full = exhaustive(engine, AppKind::Route);
    let key = ConfigKey::new("BWY-I", "radix256");
    let logs = full.step2.logs_for(&key);
    // The paper highlights a balanced Pareto point (AR+DLL in its run):
    // the front point minimising the normalised energy + time sum.
    let points: Vec<[f64; 4]> = logs.iter().map(|l| l.objectives()).collect();
    let te: Vec<[f64; 2]> = points.iter().map(|p| [p[1], p[0]]).collect();
    let max = |d: usize| te.iter().map(|p| p[d]).fold(f64::MIN, f64::max);
    let score = |i: usize| te[i][0] / max(0) + te[i][1] / max(1);
    let front = curve_2d(&te, 0, 1).into_iter();
    let balanced = front.min_by(|&a, &b| score(a).total_cmp(&score(b)));
    let balanced = logs[balanced.expect("front is non-empty")];
    // §4: "a reduction in memory accesses up to a factor of 8, for memory
    // footprint up to a factor of 12, for dissipated energy up to a factor
    // of 11 and for execution time up to a factor of 2" versus points off
    // the Pareto-optimal curve.
    let front4 = pareto_front_indices(&points);
    let metrics = ["energy", "time", "accesses", "footprint"];
    let factors = [11, 2, 8, 12].iter().enumerate().map(|(d, paper)| {
        let on_front = front4.iter().map(|&i| points[i][d]);
        let best_front = on_front.fold(f64::INFINITY, f64::min);
        let worst_any = points.iter().map(|p| p[d]).fold(f64::MIN, f64::max);
        let (metric, factor) = (metrics[d], worst_any / best_front);
        format!("{metric} | x{factor:.1} (paper: up to x{paper})")
    });
    let chart = |plane| text(&render_pareto_chart(&logs, plane));
    format!(
        "Route's time-energy Pareto curves at radix 128 on seven networks (4a), its \
         full space at radix 256 on {key} in both planes (4b, 4c), and the factors \
         between its worst point and its best Pareto point.\n\n### 4a\n\n{}\n### \
         4b\n\n{}\nBalanced Pareto point (paper run: AR+DLL): `{}`, `{}`.\n\n### \
         4c\n\n{}\n### Factors on {key}\n\n{}",
        table("network | combo | time [cycles] | energy [nJ]", curves),
        chart(ParetoChartPlane::TimeEnergy),
        balanced.combo,
        balanced.report,
        chart(ParetoChartPlane::AccessesFootprint),
        table("metric | worst point / best Pareto point", factors),
    )
}

fn headline(engine: &mut ExploreEngine) -> String {
    let mut reports = Vec::new();
    for app in AppKind::ALL {
        let cfg = MethodologyConfig::paper(app);
        reports.push((app, request!(engine, Headline(cfg))));
    }
    let average = |gain: fn(&HeadlineReport) -> f64| {
        let sum: f64 = reports.iter().map(|(_, h)| gain(h)).sum();
        pct(sum / reports.len() as f64)
    };
    let rows = reports.iter().map(|(app, h)| {
        let (energy, time) = (&h.best_energy_combo, &h.best_time_combo);
        let cuts = [h.energy_saving(), h.access_reduction()].map(pct);
        let (footprint, faster) = (pct(h.footprint_reduction()), pct(h.time_improvement()));
        let cuts = cuts.join(" | ");
        format!("{app} | {energy} | {cuts} | {footprint} | {time} | {faster}")
    });
    let header = "application | best-energy point | energy saving | access cut | \
                  footprint cut | best-time point | time improvement";
    format!(
        "Gains of the best-energy and best-time global Pareto points over the original \
         NetBench implementation (both dominant DDTs singly linked lists), whose \
         metrics are averaged over the application's configurations.\n\n{}\nAverage \
         over the four applications: energy saving {} (paper: 80%), time improvement \
         {} (paper: 22%).\n",
        table(header, rows),
        average(HeadlineReport::energy_saving),
        average(HeadlineReport::time_improvement),
    )
}

/// The worst-case reservation a compile-time design makes: every record
/// slot of every table at its maximum, with the modelled record sizes of
/// the application crates.
fn static_worst_case(app: AppKind, params: &AppParams) -> u64 {
    match app {
        // Radix nodes (2n-1 for n prefixes) and the rtentry table, both
        // at the larger 256-entry configuration a static design assumes.
        AppKind::Route => (2 * 256 - 1) * 32 + 256 * 56,
        // Pattern table at max and a session slot per possible flow.
        AppKind::Url => params.url_patterns as u64 * 48 + 512 * 48,
        // Rule chain at the 64-rule maximum and a conntrack entry per flow.
        AppKind::Ipchains => 64 * 64 + 512 * 40,
        // A flow-state slot per possible flow and a full-depth queue.
        AppKind::Drr => 512 * 40 + 256 * 24,
        // A binding slot per possible flow and the full port pool.
        AppKind::Nat => 512 * 32 + params.nat_ports as u64 * 16,
    }
}

fn static_vs_dynamic(_: &mut ExploreEngine) -> String {
    let sim = Simulator::new(MemoryConfig::default());
    let params = AppParams::default();
    let rows = AppKind::ALL.map(|app| {
        // Dynamic allocation is judged on its worst observed case too.
        let peak = |net: &NetworkPreset| {
            let workload = stream(net.spec(), 400);
            let log = sim.run_spec(app, [DdtKind::Sll; 2], &params, &workload);
            log.report.peak_footprint_bytes
        };
        let dynamic = app.networks().iter().map(peak).max().unwrap_or(0);
        let reserved = static_worst_case(app, &params);
        let saving = (1.0 - dynamic as f64 / reserved as f64) * 100.0;
        format!("{app} | {reserved} | {dynamic} | {saving:.0}%")
    });
    section(
        "Peak footprint of the SLL+SLL implementation, the maximum over the \
         application's networks at 400 packets, against the worst-case static \
         reservation a compile-time design makes.",
        "application | static [B] | dynamic peak [B] | saving",
        rows,
    )
}

fn variance(_: &mut ExploreEngine) -> String {
    // The simulator is deterministic for a fixed trace, so the analogue of
    // the paper's run-to-run noise is trace-to-trace variation: ten seeds
    // of one network.
    let cv = |values: &[f64]| {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        if mean == 0.0 {
            0.0
        } else {
            var.sqrt() / mean
        }
    };
    let sim = Simulator::new(MemoryConfig::embedded_default());
    let params = AppParams::default();
    let refined = [DdtKind::Array, DdtKind::SllChunk];
    let rows = AppKind::ALL.map(|app| {
        let mut metrics: [Vec<f64>; 4] = Default::default();
        let mut ranking_stable = true;
        for seed in 0..10u64 {
            let mut spec = NetworkPreset::DartmouthBerry.spec();
            spec.seed = spec.seed.wrapping_add(seed * 7919);
            let workload = stream(spec, 400);
            let orig = sim.run_spec(app, [DdtKind::Sll; 2], &params, &workload);
            let better = sim.run_spec(app, refined, &params, &workload);
            for (series, value) in metrics.iter_mut().zip(orig.objectives()) {
                series.push(value);
            }
            ranking_stable &= better.report.cycles < orig.report.cycles;
        }
        let cvs = metrics.map(|m| format!("{:.2}%", cv(&m) * 100.0));
        let stable = if ranking_stable { "yes" } else { "no" };
        format!("{app} | {} | {stable}", cvs.join(" | "))
    });
    section(
        "Coefficient of variation of the SLL+SLL metrics over 10 seeds of the BWY-I \
         trace at 400 packets (paper: <2% variation across 10 runs of the same \
         input), and whether AR+SLL(AR) beats SLL+SLL on cycles under every seed.",
        "application | energy | time | accesses | footprint | ranking stable",
        rows,
    )
}

fn pruning(engine: &mut ExploreEngine) -> String {
    use AppKind::{Drr, Ipchains, Route, Url};
    let mut rows = Vec::new();
    for app in [Url, Drr, Route, Ipchains] {
        let (methodology, full) = (paper(engine, app), exhaustive(engine, app));
        let (pruned, truth) = (global_front(&methodology), global_front(&full));
        let missed: Vec<&str> = truth.difference(&pruned).map(String::as_str).collect();
        let spurious = pruned.difference(&truth).count();
        let fronts = format!("{} | {}", truth.len(), pruned.len());
        let missed = format!("{} | {}", missed.len(), missed.join(", "));
        let sims = format!("{} | {}", full.counts.reduced, methodology.counts.reduced);
        rows.push(format!("{app} | {fronts} | {missed} | {spurious} | {sims}"));
    }
    section(
        "The global front of the paper-sized methodology against that of the \
         exhaustive exploration (every combination through steps 2 and 3), and the \
         simulations each runs.",
        "application | exhaustive front | methodology front | missed | missed combos | \
         spurious | exhaustive simulations | methodology simulations",
        rows,
    )
}

fn survivor_fraction(engine: &mut ExploreEngine) -> String {
    let full = exhaustive(engine, AppKind::Drr);
    let truth = global_front(&full);
    let header = "fraction | survivors | simulations | recovered | recall";
    let mut rows = Vec::new();
    for fraction in [0.05, 0.10, 0.15, 0.20, 0.30, 0.50] {
        let mut cfg = MethodologyConfig::paper(AppKind::Drr);
        cfg.survivor_fraction = fraction;
        let outcome = request!(engine, Explore(cfg));
        let recovered = truth.intersection(&global_front(&outcome)).count();
        let (survivors, sims) = (outcome.step1.survivors.len(), outcome.counts.reduced);
        let (of, percent) = (truth.len(), fraction * 100.0);
        let recall = recovered as f64 / of as f64 * 100.0;
        let row = format!("{percent:.0}% | {survivors} | {sims} | {recovered}/{of} | {recall:.0}%");
        rows.push(row);
    }
    format!(
        "DRR's step-1 survivor fraction against the survivors, the total simulations \
         and the share of the exhaustive front ({} points, {} simulations) the \
         methodology recovers.\n\n{}",
        truth.len(),
        full.counts.exhaustive,
        table(header, rows)
    )
}

fn chunk_capacity(_: &mut ExploreEngine) -> String {
    type Rec = TestRecord<48>;
    let rows = [2usize, 4, 8, 16, 32, 64].map(|capacity| {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut list = ChunkedDdt::<Rec>::with_chunk_capacity(&mut mem, false, false, capacity);
        for i in 0..200 {
            list.insert(Rec { id: i, tag: i }, &mut mem);
        }
        // Reads at `indices`, by position or by key.
        let mut cost = |by_key: bool, indices: &mut dyn Iterator<Item = usize>| {
            let before = mem.stats().accesses();
            for i in indices {
                if by_key {
                    list.get(i as u64, &mut mem);
                } else {
                    list.get_nth(i, &mut mem);
                }
            }
            mem.stats().accesses() - before
        };
        let seq = cost(false, &mut (0..200));
        let lcg = std::iter::successors(Some(7), |i| Some((i * 73 + 11) % 200));
        let rand = cost(false, &mut lcg.skip(1).take(200));
        let search = cost(true, &mut (0..200).map(|i| (i * 37) % 200));
        let footprint = list.footprint_bytes();
        format!("{capacity} | {seq} | {rand} | {search} | {footprint}")
    });
    section(
        "Memory accesses of 200 sequential, 200 random and 200 key-search reads, and \
         the footprint, of an SLL(AR) holding 200 records at each chunk capacity.",
        "capacity | sequential | random | search | footprint [B]",
        rows,
    )
}

fn roving_pointers(_: &mut ExploreEngine) -> String {
    use DdtKind::{Sll, SllChunk, SllChunkRov, SllRov};
    type Rec = TestRecord<32>;
    const N: usize = 128;
    // 512 positional reads mixing sequential steps with random jumps at
    // the given percentage, from a fixed LCG.
    let positions = |random_pct: usize| {
        let (mut pos, mut noise) = (0usize, 13usize);
        (0..512).map(move |_| {
            noise = noise.wrapping_mul(6364136223846793005);
            noise = noise.wrapping_add(1442695040888963407);
            let jump = noise % 100 < random_pct;
            pos = if jump { noise / 7 % N } else { (pos + 1) % N };
            pos
        })
    };
    let accesses = |kind: DdtKind, random_pct: usize| {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut ddt = kind.instantiate::<Rec>(&mut mem);
        for i in 0..N as u64 {
            ddt.insert(Rec { id: i, tag: 0 }, &mut mem);
        }
        let before = mem.stats().accesses();
        for pos in positions(random_pct) {
            ddt.get_nth(pos, &mut mem);
        }
        mem.stats().accesses() - before
    };
    let kinds = [Sll, SllRov, SllChunk, SllChunkRov];
    let rows = [0usize, 10, 25, 50, 75, 100].map(|pct| {
        let [sll, sll_o, chunk, chunk_o] = kinds.map(|kind| accesses(kind, pct));
        let (gain, chunk_gain) = (sll as f64 / sll_o as f64, chunk as f64 / chunk_o as f64);
        format!("{pct} | {sll} | {sll_o} | {gain:.1}x | {chunk} | {chunk_o} | {chunk_gain:.1}x")
    });
    section(
        "Memory accesses of 512 positional reads over 128 records, with and without a \
         roving pointer, as the share of random jumps grows.",
        "random % | SLL | SLL(O) | gain | SLL(AR) | SLL(ARO) | gain",
        rows,
    )
}

/// The front of DRR's 100 combinations on BWY-I (300 packets) under an
/// energy model whose on-chip (L1 and data array) and backing-store
/// energies are scaled independently: a uniform scale cannot reorder one
/// metric, a ratio change can. The scaling lives outside `MemoryConfig`,
/// and so outside the engine's cache key, so this study drives the memory
/// system itself.
fn front_under(on_chip_scale: f64, dram_scale: f64) -> BTreeSet<String> {
    let mem_cfg = MemoryConfig::embedded_default();
    let energy = EnergyModel::from_configs(&mem_cfg.l1, &mem_cfg.dram)
        .scaled_apart(on_chip_scale, dram_scale);
    let params = AppParams::default();
    let workload = stream(NetworkPreset::DartmouthBerry.spec(), 300);
    let simulate = |combo| {
        let mut mem = MemorySystem::with_energy_model(mem_cfg, energy);
        let mut app = AppKind::Drr.instantiate(combo, &params, &mut mem);
        workload
            .stream()
            .for_each(|pkt| app.process(&pkt, &mut mem));
        (combo_label(combo), mem.report().as_array())
    };
    let (labels, points): (Vec<String>, Vec<[f64; 4]>) =
        all_combos().into_iter().map(simulate).unzip();
    let front = pareto_front_indices(&points);
    front.into_iter().map(|i| labels[i].clone()).collect()
}

fn energy_model(_: &mut ExploreEngine) -> String {
    let nominal = front_under(1.0, 1.0);
    let scales = [(0.25, 1.0), (4.0, 1.0), (1.0, 0.25), (1.0, 4.0), (0.5, 2.0)];
    let rows = scales.map(|(on_chip, dram)| {
        let perturbed = front_under(on_chip, dram);
        let (size, kept) = (perturbed.len(), nominal.intersection(&perturbed).count());
        let jaccard = kept as f64 / nominal.union(&perturbed).count() as f64;
        let of = nominal.len();
        format!("x{on_chip} | x{dram} | {size} | {kept}/{of} | {jaccard:.2}")
    });
    let members: Vec<&str> = nominal.iter().map(String::as_str).collect();
    format!(
        "DRR's Pareto front on BWY-I at 300 packets when the on-chip (L1 and data \
         array) and backing-store access energies are scaled apart; the nominal front \
         has {} points: {}.\n\n{}",
        nominal.len(),
        members.join(", "),
        table(
            "on-chip | backing | front | nominal retained | Jaccard",
            rows
        )
    )
}

fn drr_quantum(engine: &mut ExploreEngine) -> String {
    let mut rows = Vec::new();
    for quantum in [300u32, 600, 1500, 3000] {
        let mut cfg = one_config(AppKind::Drr, NetworkPreset::DartmouthDorm, 400);
        cfg.param_variants[0].drr_quantum = quantum;
        let logs = measure(engine, cfg);
        let nj = |l: &&SimLog| l.report.energy_nj;
        let best = logs.iter().min_by(|a, b| nj(a).total_cmp(&nj(b)));
        let best = best.expect("combinations were simulated");
        let (combo, r) = (&best.combo, &best.report);
        let (energy, cycles, accesses) = (r.energy_nj, r.cycles, r.accesses);
        let row = format!("{quantum} | {combo} | {energy:.1} | {cycles} | {accesses}");
        rows.push(row);
    }
    section(
        "DRR's best-energy combination and its metrics on the DRM trace at 400 \
         packets as the quantum (the paper's level of fairness) grows.",
        "quantum | best-energy combo | energy [nJ] | cycles | accesses",
        rows,
    )
}

fn burstiness(_: &mut ExploreEngine) -> String {
    let sim = Simulator::new(MemoryConfig::embedded_default());
    let params = AppParams::default();
    // URL's front over one traffic shape, and the access gain of
    // SLL(O)+SLL(O) over SLL+SLL: a roving pointer pays off when lookups
    // repeat, as they do in packet trains.
    let sweep = |burstiness: Option<BurstProfile>| {
        let builder = TraceSpec::builder("burst-sweep").nodes(64).flows(96);
        let mut spec = builder.flow_skew(0.9).seed(0xB0057).build();
        spec.burstiness = burstiness;
        let workload = stream(spec, 400);
        let run = |combo| sim.run_spec(AppKind::Url, combo, &params, &workload);
        let logs: Vec<SimLog> = all_combos().into_iter().map(run).collect();
        let accesses = |label: &str| {
            let log = logs.iter().find(|l| l.combo == label);
            log.expect("combination simulated").report.accesses as f64
        };
        let gain = 1.0 - accesses("SLL(O)+SLL(O)") / accesses("SLL+SLL");
        (front(&logs), gain * 100.0)
    };
    let (smooth, gain) = sweep(None);
    let size = smooth.len();
    let mut rows = vec![format!("smooth Poisson | {size} | {gain:+.1}% | -")];
    for trains in [4.0, 8.0, 16.0] {
        let (front, gain) = sweep(Some(BurstProfile {
            mean_burst_pkts: trains,
            off_gap_factor: 20.0,
            locality: 0.9,
        }));
        let (size, kept) = (front.len(), smooth.intersection(&front).count());
        let of = smooth.len();
        rows.push(format!(
            "trains of ~{trains} | {size} | {gain:+.1}% | {kept}/{of}"
        ));
    }
    section(
        "URL's Pareto front over its 100 combinations (400 packets) and the access \
         gain of SLL(O)+SLL(O) over SLL+SLL as the traffic turns into packet trains.",
        "traffic | front | roving-pointer access gain | smooth front retained",
        rows,
    )
}

/// Every combination of `app` on BWY-I at 300 packets on each platform:
/// front retention against the first platform, and the mean cycles,
/// energy and footprint with their change against the first. Returns the
/// table and each platform's measurements.
fn platform_table(
    engine: &mut ExploreEngine,
    app: AppKind,
    platforms: &[(String, MemoryConfig)],
) -> (String, Vec<Vec<SimLog>>) {
    let mut runs = Vec::new();
    for (_, mem) in platforms {
        let mut cfg = one_config(app, NetworkPreset::DartmouthBerry, 300);
        cfg.mem = *mem;
        runs.push(measure(engine, cfg));
    }
    let nominal = front(&runs[0]);
    let metrics: [fn(&SimLog) -> f64; 3] = [
        |l| l.report.cycles as f64,
        |l| l.report.energy_nj,
        |l| l.report.peak_footprint_bytes as f64,
    ];
    let rows = platforms.iter().zip(&runs).map(|((name, _), logs)| {
        let means = metrics.map(|metric| {
            let (base, value) = (mean(&runs[0], metric), mean(logs, metric));
            format!("{value:.0} ({:+.2}%)", 100.0 * (value - base) / base)
        });
        let front = front(logs);
        let (size, kept) = (front.len(), nominal.intersection(&front).count());
        let (of, means) = (nominal.len(), means.join(" | "));
        format!("{name} | {size} | {kept}/{of} | {means}")
    });
    let header = "platform | front | first front retained | mean cycles | mean energy [nJ] \
                  | mean footprint [B]";
    (table(header, rows), runs)
}

fn fit_policy(engine: &mut ExploreEngine) -> String {
    let policies = [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::NextFit];
    let platforms = policies.map(|policy| {
        let mut mem = MemoryConfig::embedded_default();
        mem.fit_policy = policy;
        (policy.to_string(), mem)
    });
    format!(
        "URL's 100 combinations on BWY-I at 300 packets under first-fit, best-fit and \
         next-fit heaps.\n\n{}",
        platform_table(engine, AppKind::Url, &platforms).0
    )
}

fn replacement_policy(engine: &mut ExploreEngine) -> String {
    use ddtr_mem::ReplacementPolicy::{Fifo, Lru, Random};
    let platforms = [Lru, Fifo, Random].map(|policy| {
        // A small 2-way L1, so the routing table overflows it and the
        // victim choice matters; the default 32 KiB L1 holds the whole
        // working set and masks the policy entirely.
        let mut mem = MemoryConfig::embedded_default();
        mem.l1.capacity_bytes = 2 * 1024;
        mem.l1.ways = 2;
        mem.l1.replacement = policy;
        (policy.to_string(), mem)
    });
    format!(
        "Route's 100 combinations on BWY-I at 300 packets behind a 2 KiB 2-way L1 \
         with LRU, FIFO and random replacement.\n\n{}",
        platform_table(engine, AppKind::Route, &platforms).0
    )
}

fn scratchpad(engine: &mut ExploreEngine) -> String {
    let presets = [MemoryPreset::Embedded, MemoryPreset::Spm];
    let platforms = presets.map(|p| (p.to_string(), p.config()));
    let (table, runs) = platform_table(engine, AppKind::Drr, &platforms);
    // Per-combination cycle gain: descriptor-heavy structures (linked
    // lists touch the head pointer on every walk) gain the most.
    let gain = |(off, on): (&SimLog, &SimLog)| {
        let (off_c, on_c) = (off.report.cycles as f64, on.report.cycles as f64);
        (100.0 * (off_c - on_c) / off_c, off.combo.clone())
    };
    let gains: Vec<(f64, String)> = runs[0].iter().zip(&runs[1]).map(gain).collect();
    let (mut largest, mut smallest) = (&gains[0], &gains[0]);
    for g in &gains {
        largest = if g.0 > largest.0 { g } else { largest };
        smallest = if g.0 < smallest.0 { g } else { smallest };
    }
    format!(
        "DRR's 100 combinations on BWY-I at 300 packets with the DDT descriptors in \
         DRAM and in a 4 KiB scratchpad (the `spm` preset).\n\n{table}\nCycle gain of \
         the scratchpad per combination: largest {:+.2}% ({}), smallest {:+.2}% ({}).\n",
        largest.0, largest.1, smallest.0, smallest.1
    )
}

fn ga_parameters(engine: &mut ExploreEngine) -> String {
    const SEEDS: [u64; 5] = [1, 7, 42, 1234, 0xDD7];
    type Tweak = fn(&mut GaConfig);
    let truth = front(&ga_truth(engine, AppKind::Drr));
    let settings: [(&str, Tweak); 7] = [
        ("defaults (pop 16, mut .15)", |_| {}),
        ("population 8", |c| c.population = 8),
        ("population 24", |c| c.population = 24),
        ("mutation 0.05", |c| c.mutation_rate = 0.05),
        ("mutation 0.3", |c| c.mutation_rate = 0.30),
        ("crossover 0.5", |c| c.crossover_rate = 0.5),
        ("early stop (stall 2)", |c| c.stall_generations = Some(2)),
    ];
    let mut rows = Vec::new();
    for (setting, tweak) in settings {
        let (mut evaluations, mut recovered) = (0, 0);
        for seed in SEEDS {
            let mut cfg = GaConfig::paper(AppKind::Drr);
            cfg.seed = seed;
            tweak(&mut cfg);
            let outcome = request!(engine, Ga(cfg));
            evaluations += outcome.evaluations;
            let found: BTreeSet<String> = outcome.front_labels().into_iter().collect();
            recovered += truth.intersection(&found).count();
        }
        let sims = evaluations as f64 / SEEDS.len() as f64;
        let recall = recovered as f64 / (SEEDS.len() * truth.len()) as f64 * 100.0;
        rows.push(format!("{setting} | {sims:.1} | {recall:.0}%"));
    }
    format!(
        "Mean simulations and recall of the true front ({} members) of NSGA-II on DRR \
         (`GaConfig::paper`'s configuration) over 5 seeds per setting.\n\n{}",
        truth.len(),
        table("setting | mean simulations | recall", rows)
    )
}

fn heuristic(engine: &mut ExploreEngine) -> String {
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let outcome = request!(engine, Ga(GaConfig::paper(app)));
        let truth = ga_truth(engine, app);
        let points4: Vec<[f64; 4]> = truth.iter().map(SimLog::objectives).collect();
        let found: BTreeSet<String> = outcome.front_labels().into_iter().collect();
        let true_front = front(&truth);
        let recovered = true_front.intersection(&found).count();
        // Hypervolume ratios in the time-energy plane (the paper's Figure
        // 3/4 plane) and over all four objectives; the reference is the
        // worst observed point per metric, scaled out slightly.
        let worst = |acc: [f64; 4], p: &[f64; 4]| std::array::from_fn(|d| acc[d].max(p[d] * 1.01));
        let reference: [f64; 4] = points4.iter().fold([0.0; 4], worst);
        let ga_points: Vec<[f64; 4]> = outcome.front.iter().map(SimLog::objectives).collect();
        let te = |pts: &[[f64; 4]]| -> Vec<[f64; 2]> { pts.iter().map(|p| [p[0], p[1]]).collect() };
        let te_reference = [reference[0], reference[1]];
        let hv2 = hypervolume_2d(&te(&ga_points), te_reference)
            / hypervolume_2d(&te(&points4), te_reference);
        let hv4 = hypervolume(&ga_points, &reference) / hypervolume(&points4, &reference);
        let (sims, of, size) = (outcome.evaluations, truth.len(), outcome.front.len());
        let recall = format!("{recovered}/{}", true_front.len());
        let row = format!("{app} | {sims} | {of} | {recall} | {size} | {hv2:.3} | {hv4:.3}");
        rows.push(row);
    }
    section(
        "Simulations NSGA-II (`GaConfig::paper`) runs, the share of the exhaustive \
         step-1 front it recovers on the same configuration (BWY-I, 400 packets), and \
         its hypervolume relative to the exhaustive space.",
        "application | simulations | of | recall | front | time-energy hypervolume | \
         4-metric hypervolume",
        rows,
    )
}

fn extended_library(engine: &mut ExploreEngine) -> String {
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let mut cfg = one_config(app, NetworkPreset::DartmouthBerry, 400);
        cfg.candidates = DdtKind::EXTENDED.to_vec();
        let logs = measure(engine, cfg);
        let points: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
        let front = pareto_front_indices(&points);
        let extends = |label: &&str| {
            let combo = parse_combo(label).expect("logged labels parse");
            combo.iter().any(|k| k.is_extension())
        };
        let labels = front.iter().map(|&i| logs[i].combo.as_str());
        let members: Vec<&str> = labels.filter(extends).collect();
        let (size, of, uses) = (front.len(), logs.len(), members.len());
        let members = members.join(", ");
        rows.push(format!("{app} | {size}/{of} | {uses} | {members}"));
    }
    section(
        "The Pareto front of every combination of the paper's ten DDTs and the \
         extension DDTs HSH and AVL on BWY-I at 400 packets, and its members that use \
         an extension DDT.",
        "application | front | with an extension DDT | members",
        rows,
    )
}

fn nat_gateway(engine: &mut ExploreEngine) -> String {
    let outcome = paper(engine, AppKind::Nat);
    let h = request!(engine, Headline(MethodologyConfig::paper(AppKind::Nat)));
    let (cfg, step1) = (&outcome.config, &outcome.step1);
    let mut choices = String::new();
    for p in &outcome.pareto.global_front {
        let _ = writeln!(choices, "{:20} {}", p.combo, p.report);
    }
    format!(
        "The paper-sized pipeline on a NAT gateway ({} networks x {} pool sizes), which \
         is not one of the paper's applications; its Table 1 and Table 2 rows are \
         above.\n\nStep 1 simulated {} combinations and kept {} ({:.0}% pruned); step \
         2 ran {} simulations over {} configurations. The Pareto-optimal \
         choices:\n\n{}\nAgainst the all-SLL baseline: {:.0}% energy saving, {:.0}% \
         faster.\n",
        cfg.networks.len(),
        cfg.param_variants.len(),
        step1.measurements.len(),
        step1.survivors.len(),
        step1.pruned_fraction() * 100.0,
        outcome.step2.simulations(),
        cfg.configurations(),
        text(&choices),
        h.energy_saving() * 100.0,
        h.time_improvement() * 100.0,
    )
}
