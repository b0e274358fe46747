//! End-to-end integration tests: the full three-step methodology across
//! all four applications, spanning every crate of the workspace.

use ddtr::apps::AppKind;
use ddtr::core::{
    headline_comparison, table1_markdown, table2_markdown, tradeoff_percentages, ExploreEngine,
    Methodology, MethodologyConfig,
};
use ddtr::ddt::DdtKind;

/// The pipeline completes and produces sane artefacts for every app.
#[test]
fn pipeline_runs_for_every_application() {
    for app in AppKind::ALL {
        let cfg = MethodologyConfig::quick(app);
        let outcome = Methodology::new(cfg).run().expect("pipeline runs");
        assert_eq!(outcome.step1.measurements.len(), 100, "{app}");
        assert!(
            outcome.step1.pruned_fraction() >= 0.5,
            "{app}: pruned only {:.0}%",
            outcome.step1.pruned_fraction() * 100.0
        );
        assert!(
            !outcome.pareto.global_front.is_empty(),
            "{app}: empty Pareto set"
        );
        assert!(
            outcome.pareto.global_front.len() <= 20,
            "{app}: Pareto set too large ({})",
            outcome.pareto.global_front.len()
        );
        assert!(outcome.profile.matches_declared(), "{app}");
        assert_eq!(
            outcome.counts.reduced,
            100 + outcome.step1.survivors.len() * outcome.config.configurations(),
            "{app}: accounting"
        );
    }
}

/// The whole pipeline is deterministic end to end.
#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Url))
            .run()
            .expect("pipeline runs");
        (
            outcome.step1.survivors.clone(),
            outcome
                .pareto
                .global_front
                .iter()
                .map(|p| (p.combo.clone(), p.report.accesses))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// Every global Pareto point is mutually non-dominated (step-3 contract).
#[test]
fn global_front_is_mutually_nondominated() {
    let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Drr))
        .run()
        .expect("pipeline runs");
    let front = &outcome.pareto.global_front;
    for a in front {
        for b in front {
            if a.combo != b.combo {
                assert!(
                    !a.report.dominates(&b.report),
                    "{} dominates {} inside the front",
                    a.combo,
                    b.combo
                );
            }
        }
    }
}

/// The headline comparison always favours (or ties) the refined points —
/// the original SLL implementation is in the explored space.
#[test]
fn refined_points_beat_or_match_baseline() {
    for app in AppKind::ALL {
        let cfg = MethodologyConfig::quick(app);
        let mut engine = ExploreEngine::in_memory();
        let outcome = Methodology::new(cfg.clone())
            .run_with(&mut engine)
            .expect("pipeline runs");
        let h = headline_comparison(&mut engine, &cfg, &outcome).expect("headline computes");
        assert!(h.energy_saving() >= -0.01, "{app}: {}", h.energy_saving());
        assert!(
            h.time_improvement() >= -0.01,
            "{app}: {}",
            h.time_improvement()
        );
    }
}

/// Outcome serialises to JSON and back with the Pareto set intact.
#[test]
fn outcome_round_trips_through_json() {
    let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Ipchains))
        .run()
        .expect("pipeline runs");
    let json = serde_json::to_string(&outcome).expect("serialises");
    let back: ddtr::core::MethodologyOutcome = serde_json::from_str(&json).expect("deserialises");
    assert_eq!(
        back.pareto.global_front.len(),
        outcome.pareto.global_front.len()
    );
    assert_eq!(back.counts, outcome.counts);
}

/// Report tables render for a mixed set of outcomes.
#[test]
fn report_tables_render() {
    let a = Methodology::new(MethodologyConfig::quick(AppKind::Url))
        .run()
        .expect("pipeline runs");
    let b = Methodology::new(MethodologyConfig::quick(AppKind::Drr))
        .run()
        .expect("pipeline runs");
    let t1 = table1_markdown(&[&a, &b]);
    assert!(t1.contains("URL") && t1.contains("DRR"));
    let t2 = table2_markdown(&[&a, &b]);
    assert!(t2.lines().count() >= 4);
    for pct in tradeoff_percentages(&a) {
        assert!(pct <= 100);
    }
}

/// The survivor set always contains the per-metric winners of step 1.
#[test]
fn survivors_contain_every_metric_winner() {
    let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Route))
        .run()
        .expect("pipeline runs");
    for dim in 0..4 {
        let winner = outcome
            .step1
            .measurements
            .iter()
            .min_by(|a, b| a.objectives()[dim].total_cmp(&b.objectives()[dim]))
            .expect("measurements exist");
        assert!(
            outcome.step1.survivors.contains(&winner.combo),
            "metric {dim} winner {} was pruned",
            winner.combo
        );
    }
}

/// All ten DDT kinds appear somewhere in the explored combinations.
#[test]
fn exploration_covers_all_ten_ddts() {
    let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Url))
        .run()
        .expect("pipeline runs");
    for kind in DdtKind::ALL {
        let name = kind.to_string();
        assert!(
            outcome
                .step1
                .measurements
                .iter()
                .any(|m| m.combo.contains(&name)),
            "{name} never simulated"
        );
    }
}
