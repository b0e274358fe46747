//! Reproduces the paper's §1 motivation: "a static memory allocation at
//! compile time is not efficient at all, because the worst case situation
//! has to be assumed … great memory footprint size gains in comparison to a
//! statically allocated compile-time memory solution can be achieved."
//!
//! For each application we compare the measured peak dynamic footprint
//! against the worst-case static allocation a compile-time design would
//! reserve (every table at its configured maximum simultaneously).
//!
//! Run with `cargo run -p ddtr_bench --bin static_vs_dynamic --release`.

use ddtr_apps::{AppKind, AppParams};
use ddtr_ddt::DdtKind;
use ddtr_mem::{MemoryConfig, MemorySystem};
use ddtr_trace::NetworkPreset;

/// Worst-case static reservation per application: every record slot of
/// every table at its maximum, using the modelled record sizes.
fn static_worst_case(app: AppKind, params: &AppParams) -> u64 {
    // Modelled record sizes match the `Record::SIZE` constants of the
    // application crates.
    match app {
        AppKind::Route => {
            // Radix nodes (2n-1 for n prefixes) + rtentry table, both at
            // the larger 256-entry configuration a static design must
            // assume.
            let n = 256u64;
            (2 * n - 1) * 32 + n * 56
        }
        AppKind::Url => {
            // Pattern table at max + a session slot for every possible
            // concurrent flow (the worst case a designer must reserve).
            params.url_patterns as u64 * 48 + 512 * 48
        }
        AppKind::Ipchains => {
            // Rule chain at the 64-rule maximum + one conntrack entry per
            // possible flow.
            64 * 64 + 512 * 40
        }
        AppKind::Drr => {
            // A flow-state slot per possible flow + a full-depth queue.
            512 * 40 + 256 * 24
        }
        AppKind::Nat => {
            // A binding slot per possible concurrent flow + the full pool.
            512 * 32 + params.nat_ports as u64 * 16
        }
    }
}

fn main() {
    println!("Static worst-case reservation vs measured dynamic peak footprint\n");
    println!(
        "{:10} | {:>14} | {:>16} | {:>8}",
        "app", "static B", "dynamic peak B", "saving"
    );
    let params = AppParams::default();
    for app in AppKind::ALL {
        // Measure the peak across all of the app's networks — the dynamic
        // allocation must be judged on its worst observed case too.
        let mut dynamic_peak = 0u64;
        for &net in app.networks() {
            let trace = NetworkPreset::generate(net, 400);
            let mut mem = MemorySystem::new(MemoryConfig::default());
            let mut instance = app.instantiate([DdtKind::Sll, DdtKind::Sll], &params, &mut mem);
            for pkt in &trace {
                instance.process(pkt, &mut mem);
            }
            dynamic_peak = dynamic_peak.max(mem.report().peak_footprint_bytes);
        }
        let static_bytes = static_worst_case(app, &params);
        let saving = 1.0 - dynamic_peak as f64 / static_bytes as f64;
        println!(
            "{:10} | {:>14} | {:>16} | {:>7.0}%",
            app.to_string(),
            static_bytes,
            dynamic_peak,
            saving * 100.0
        );
    }
    println!("\nShape check: dynamic allocation undercuts the compile-time worst");
    println!("case wherever tables are demand-driven (URL/IPchains/DRR); Route's");
    println!("table is resident by design, so its gain is smallest.");
}
