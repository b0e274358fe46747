//! Output checks: content digests of exploration results and the golden
//! digests the benchmark ships.
//!
//! A digest covers what a user reads off a result — every `CostReport`
//! bit-exact, the Pareto fronts, the step-1 survivors and the sweep
//! survivors — and nothing an implementation may legitimately change:
//! not the embedded configurations, not the engine's hit/executed
//! counters, not cache keys or store bytes.

use ddtr_core::{ExploreResult, MethodologyOutcome};
use ddtr_engine::{fnv1a64, SimLog};
use ddtr_mem::CostReport;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The held-out seed: no tuning was done on it, and a later claim must
/// hold on it as well as on the default seed.
pub const HELD_OUT_SEED: u64 = 2006;

/// Golden digests: `workload seed digest` per line, for the default and
/// the held-out seed.
const GOLDEN: &str = include_str!("../golden.txt");

/// Whether golden digests must exist for `seed`: the default and the
/// held-out seed.
pub fn has_golden(seed: u64) -> bool {
    seed == DEFAULT_SEED || seed == HELD_OUT_SEED
}

/// The shipped digest of `workload` at `seed`, when one exists.
pub fn golden(workload: &str, seed: u64) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// A canonical byte encoding of result content, hashed with the engine's
/// FNV-1a.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Appends a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a cost report, floats by their bits.
    pub fn report(&mut self, r: &CostReport) -> &mut Self {
        self.u64(r.accesses)
            .u64(r.cycles)
            .u64(r.energy_nj.to_bits())
            .u64(r.peak_footprint_bytes)
    }

    /// Appends one simulation log.
    pub fn log(&mut self, log: &SimLog) -> &mut Self {
        self.str(&log.app.to_string())
            .str(&log.combo)
            .str(&log.network)
            .str(&log.params)
            .report(&log.report)
    }

    /// Appends a list of logs.
    pub fn logs(&mut self, logs: &[SimLog]) -> &mut Self {
        self.u64(logs.len() as u64);
        for log in logs {
            self.log(log);
        }
        self
    }

    /// The digest of everything appended.
    pub fn finish(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

fn outcome(d: &mut Digest, o: &MethodologyOutcome) {
    d.u64(o.profile.dominant.len() as u64);
    for name in &o.profile.dominant {
        d.str(name);
    }
    d.logs(&o.step1.measurements);
    d.u64(o.step1.survivors.len() as u64);
    for s in &o.step1.survivors {
        d.str(s);
    }
    d.logs(&o.step2.logs);
    for front in &o.pareto.per_config {
        d.str(&front.config_key.to_string());
        for p in &front.front {
            d.str(&p.combo).report(&p.report);
        }
    }
    for p in &o.pareto.global_front {
        d.str(&p.combo).report(&p.report);
    }
    d.u64(o.counts.exhaustive as u64)
        .u64(o.counts.reduced as u64)
        .u64(o.counts.pareto_optimal as u64);
}

/// The digest of one exploration result.
pub fn result(r: &ExploreResult) -> u64 {
    let mut d = Digest::default();
    d.str(r.mode());
    match r {
        ExploreResult::Explore(o) => outcome(&mut d, o),
        ExploreResult::Ga(o) => {
            d.logs(&o.front).u64(o.evaluations as u64);
        }
        ExploreResult::Scenarios(m) => {
            for cell in &m.cells {
                d.str(&cell.app.to_string())
                    .str(&cell.scenario.to_string())
                    .logs(&cell.front);
            }
        }
        ExploreResult::Sweep(m) => {
            for cell in &m.cells {
                d.str(&cell.app.to_string())
                    .str(&cell.scenario.to_string())
                    .str(&cell.mem.to_string())
                    .str(&cell.network)
                    .u64(cell.evaluations as u64)
                    .logs(&cell.front);
            }
            for s in &m.survivors {
                d.str(&s.combo).u64(s.cells_on_front as u64);
            }
        }
        ExploreResult::Headline(h) => {
            d.report(&h.baseline)
                .report(&h.best_energy)
                .str(&h.best_energy_combo)
                .report(&h.best_time)
                .str(&h.best_time_combo);
        }
    }
    d.finish()
}

/// Combines digests in order.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    for x in digests {
        d.u64(x);
    }
    d.finish()
}
