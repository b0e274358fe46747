//! Integration tests of the extension features: the 12-kind extended DDT
//! library inside the full pipeline, the NSGA-II heuristic explorer's
//! consistency with exhaustive simulation, and the scratchpad platform.

use ddtr::apps::AppKind;
use ddtr::core::{
    all_combos, combo_label, explore_heuristic, GaConfig, Methodology, MethodologyConfig, Simulator,
};
use ddtr::ddt::DdtKind;
use ddtr::mem::MemoryConfig;
use ddtr::pareto::dominates;
use ddtr::trace::NetworkPreset;

#[test]
fn pipeline_runs_on_the_extended_candidate_set() {
    let mut cfg = MethodologyConfig::quick(AppKind::Url);
    cfg.candidates = DdtKind::EXTENDED.to_vec();
    let outcome = Methodology::new(cfg).run().expect("pipeline runs");
    assert_eq!(
        outcome.step1.measurements.len(),
        144,
        "12^2 combinations at the application level"
    );
    assert!(
        outcome.step1.pruned_fraction() >= 0.5,
        "pruned only {:.0}%",
        outcome.step1.pruned_fraction() * 100.0
    );
    assert!(!outcome.pareto.global_front.is_empty());
    // Every extended-space label parses back (including HSH/AVL members).
    for label in &outcome.step1.survivors {
        ddtr::core::parse_combo(label).expect("survivor label parses");
    }
}

#[test]
fn extended_front_is_at_least_as_good_as_the_paper_front() {
    // Adding candidates can only improve (or preserve) the attainable
    // front: every paper-library front point must not dominate the whole
    // extended front.
    let run = |candidates: Vec<DdtKind>| {
        let mut cfg = MethodologyConfig::quick(AppKind::Ipchains);
        cfg.candidates = candidates;
        Methodology::new(cfg).run().expect("pipeline runs")
    };
    let paper = run(DdtKind::ALL.to_vec());
    let extended = run(DdtKind::EXTENDED.to_vec());
    for ext_point in &extended.pareto.global_front {
        let ext = ext_point.report.as_array();
        // No paper point may strictly dominate an extended front point:
        // the extended exploration saw every paper combination too.
        for paper_point in &paper.pareto.global_front {
            assert!(
                !dominates(&paper_point.report.as_array(), &ext),
                "{} dominates {} — extended front lost a point it had seen",
                paper_point.combo,
                ext_point.combo
            );
        }
    }
}

#[test]
fn heuristic_results_agree_with_exhaustive_simulation() {
    // Every combination the GA evaluated must report exactly the metrics
    // an exhaustive sweep measures for that combination (memoised
    // simulation is still the same simulation).
    let cfg = GaConfig::quick(AppKind::Drr);
    let outcome = explore_heuristic(&cfg).expect("ga runs");
    let sim = Simulator::new(cfg.mem);
    let trace = cfg.network.generate(cfg.packets_per_sim);
    for log in &outcome.front {
        let combo = ddtr::core::parse_combo(&log.combo).expect("front label parses");
        let reference = sim.run(cfg.app, combo, &cfg.params, &trace);
        assert_eq!(
            log.report.accesses, reference.report.accesses,
            "{}",
            log.combo
        );
        assert_eq!(log.report.cycles, reference.report.cycles, "{}", log.combo);
    }
}

#[test]
fn heuristic_front_is_non_dominated_within_the_true_space() {
    // GA front points may miss true-front members but must never be
    // *dominated by another combination the GA itself evaluated*; against
    // the full space, any dominating combination must be one the GA did
    // not visit. Verify the stronger subset property: every GA front point
    // that coincides with a true-front combo has identical metrics.
    let cfg = GaConfig::quick(AppKind::Url);
    let outcome = explore_heuristic(&cfg).expect("ga runs");
    let sim = Simulator::new(cfg.mem);
    let trace = cfg.network.generate(cfg.packets_per_sim);
    let full: Vec<(String, [f64; 4])> = all_combos()
        .into_iter()
        .map(|c| {
            let log = sim.run(cfg.app, c, &cfg.params, &trace);
            (combo_label(c), log.objectives())
        })
        .collect();
    for log in &outcome.front {
        let ga_point = log.objectives();
        let dominators = full.iter().filter(|(_, p)| dominates(p, &ga_point)).count();
        // The dominating combos (if any) were necessarily unvisited; the
        // GA found a locally optimal archive.
        let visited_dominators = outcome
            .front
            .iter()
            .filter(|other| dominates(&other.objectives(), &ga_point))
            .count();
        assert_eq!(
            visited_dominators, 0,
            "{} dominated within archive",
            log.combo
        );
        assert!(
            dominators <= full.len() / 4,
            "{} dominated by {dominators} combos — archive far from the front",
            log.combo
        );
    }
}

#[test]
fn nat_extension_app_runs_the_full_pipeline() {
    let cfg = MethodologyConfig::quick(AppKind::Nat);
    let outcome = Methodology::new(cfg).run().expect("pipeline runs");
    assert_eq!(outcome.step1.measurements.len(), 100);
    assert!(
        outcome.step1.pruned_fraction() >= 0.5,
        "pruned only {:.0}%",
        outcome.step1.pruned_fraction() * 100.0
    );
    assert!(!outcome.pareto.global_front.is_empty());
    assert!(outcome.pareto.global_front.len() <= 20);
}

#[test]
fn nat_baseline_is_dominated_like_the_paper_apps() {
    use ddtr::core::{headline_comparison, ExploreEngine};
    let cfg = MethodologyConfig::quick(AppKind::Nat);
    let mut engine = ExploreEngine::in_memory();
    let outcome = Methodology::new(cfg.clone())
        .run_with(&mut engine)
        .expect("pipeline runs");
    let headline = headline_comparison(&mut engine, &cfg, &outcome).expect("headline");
    assert!(
        headline.energy_saving() > 0.0,
        "the SLL baseline must be beatable on energy"
    );
    assert!(
        headline.time_improvement() > 0.0,
        "the SLL baseline must be beatable on time"
    );
}

#[test]
fn report_tables_render_the_nat_row() {
    use ddtr::core::{table1_markdown, table2_markdown};
    let cfg = MethodologyConfig::quick(AppKind::Nat);
    let outcome = Methodology::new(cfg).run().expect("pipeline runs");
    let t1 = table1_markdown(&[&outcome]);
    let t2 = table2_markdown(&[&outcome]);
    assert!(t1.contains("NAT"), "table 1 must carry the NAT row:\n{t1}");
    assert!(t2.contains("NAT"), "table 2 must carry the NAT row:\n{t2}");
}

#[test]
fn nat_profile_finds_its_two_dominant_containers() {
    use ddtr::core::profile_application;
    let cfg = MethodologyConfig::quick(AppKind::Nat);
    let report = profile_application(&cfg).expect("profile runs");
    assert_eq!(report.dominant.len(), 2);
    assert!(report.dominant.contains(&"binding_table".to_string()));
    assert!(report.dominant_share > 0.5);
}

#[test]
fn scratchpad_platform_runs_the_full_pipeline() {
    let mut cfg = MethodologyConfig::quick(AppKind::Drr);
    cfg.mem = MemoryConfig::with_spm();
    let outcome = Methodology::new(cfg).run().expect("pipeline runs");
    assert!(!outcome.pareto.global_front.is_empty());
}

#[test]
fn scratchpad_lowers_costs_without_reordering_the_reference_combo() {
    // Same simulation on both platforms: the SPM one must be strictly
    // cheaper in cycles (descriptor accesses dominate container metadata
    // traffic) and report fewer or equal heap footprint bytes.
    let trace = NetworkPreset::DartmouthBerry.generate(200);
    let params = ddtr::apps::AppParams::default();
    let combo = [DdtKind::Sll, DdtKind::Sll];
    let plain =
        Simulator::new(MemoryConfig::embedded_default()).run(AppKind::Url, combo, &params, &trace);
    let spm = Simulator::new(MemoryConfig::with_spm()).run(AppKind::Url, combo, &params, &trace);
    assert!(
        spm.report.cycles < plain.report.cycles,
        "spm {} vs plain {}",
        spm.report.cycles,
        plain.report.cycles
    );
    assert!(spm.report.peak_footprint_bytes <= plain.report.peak_footprint_bytes);
}
