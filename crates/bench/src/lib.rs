//! Shared helpers for the table/figure harness binaries.
//!
//! Each binary under `src/bin/` but two regenerates one table or figure of
//! the paper, or runs one ablation or extension study, and prints it as
//! markdown; the table binaries print each paper-reported value beside
//! the measured one ([`vs_paper`]):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — simulation-count reduction |
//! | `table2` | Table 2 — trade-offs among Pareto-optimal points |
//! | `fig3` | Figure 3 — URL time–energy exploration space + Pareto points |
//! | `fig4` | Figure 4 — Route Pareto charts (both planes, per network) |
//! | `headline` | §4 headline — gains versus the original SLL implementation |
//! | `static_vs_dynamic` | §1 motivation — dynamic vs compile-time worst-case footprint |
//! | `variance` | §4 stability — metric variation across input traces |
//! | `ablation_pruning` | pruning-fidelity ablation (step 1 vs exhaustive) |
//! | `ablation_fraction` | survivor-fraction sweep (pruning rate vs front recall) |
//! | `ablation_chunk` | chunk-capacity sweep for the chunked DDTs |
//! | `ablation_rov` | roving-pointer benefit under access-pattern sweeps |
//! | `ablation_energy` | Pareto-front stability under a perturbed energy model |
//! | `ablation_fairness` | DRR quantum (level of fairness) sweep |
//! | `ablation_burst` | DDT choice vs traffic burstiness (packet trains) |
//! | `ablation_alloc` | exploration robustness vs heap fit policy |
//! | `ablation_replacement` | exploration robustness vs L1 replacement policy |
//! | `ablation_spm` | scratchpad placement of DDT descriptors |
//! | `ablation_ga` | NSGA-II hyper-parameter robustness sweep |
//! | `heuristic` | NSGA-II heuristic exploration vs exhaustive step 1 |
//! | `extended_library` | 12-kind extended candidate set vs the paper's 10 |
//! | `extension_app` | full pipeline on the NAT gateway (fifth application) |
//!
//! The other two back CI gates rather than a paper result:
//!
//! | binary | gate |
//! |---|---|
//! | `obs_overhead` | exits non-zero unless a recording quick explore stays within 5% of one with `ddtr_obs` off |
//! | `stream_smoke` | prints wall time and peak RSS of one streamed DRR simulation; CI requires equal peak RSS at 100k and 1M packets |

use ddtr_apps::AppKind;
use ddtr_core::{ExploreError, Methodology, MethodologyConfig, MethodologyOutcome};

/// Paper-reported rows of Table 1: (app, exhaustive, reduced, pareto).
pub const PAPER_TABLE1: [(&str, usize, usize, usize); 4] = [
    ("Route", 1400, 271, 7),
    ("URL", 500, 110, 4),
    ("IPchains", 2100, 546, 6),
    ("DRR", 500, 60, 3),
];

/// Paper-reported rows of Table 2: (app, energy%, time%, accesses%,
/// footprint%).
pub const PAPER_TABLE2: [(&str, u32, u32, u32, u32); 4] = [
    ("Route", 90, 20, 88, 30),
    ("URL", 52, 13, 70, 82),
    ("IPchains", 38, 3, 87, 63),
    ("DRR", 93, 48, 53, 80),
];

/// Runs the paper-sized methodology for one application.
///
/// # Errors
///
/// Propagates [`ExploreError`] from the pipeline.
pub fn paper_outcome(app: AppKind) -> Result<MethodologyOutcome, ExploreError> {
    Methodology::new(MethodologyConfig::paper(app)).run()
}

/// Formats a measured-vs-paper comparison cell.
#[must_use]
pub fn vs_paper(measured: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{measured} (paper: {paper})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_cover_all_apps() {
        assert_eq!(PAPER_TABLE1.len(), 4);
        assert_eq!(PAPER_TABLE2.len(), 4);
        for app in AppKind::ALL {
            assert!(PAPER_TABLE1.iter().any(|r| r.0 == app.to_string()));
            assert!(PAPER_TABLE2.iter().any(|r| r.0 == app.to_string()));
        }
    }

    #[test]
    fn vs_paper_formats() {
        assert_eq!(vs_paper(5, 7), "5 (paper: 7)");
    }
}
