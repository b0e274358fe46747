//! The catalog of every metric and span name the workspace records.
//!
//! A [`Name`] can only be made here, and every function of this crate
//! that takes a name takes a [`Name`], so an uncataloged name does not
//! compile. Each constant below is also in [`ALL`]: one macro generates
//! both. `docs/OBSERVABILITY.md` lists the same names, which the test
//! at the bottom of this file checks in both directions.

/// A cataloged metric or span name (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(&'static str);

impl Name {
    /// The dotted name, as snapshots, traces and the exposition carry it.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        self.0
    }

    /// Member `index` of an indexed family: its `<N>` replaced by the
    /// index (`serve.worker<N>.inflight` → `serve.worker3.inflight`).
    pub(crate) fn render(self, index: usize) -> String {
        self.0.replacen("<N>", &index.to_string(), 1)
    }
}

/// Declares one `pub const` per name and the [`ALL`] list of them.
macro_rules! catalog {
    ($($(#[$doc:meta])* $konst:ident = $name:literal;)+) => {
        $(
            #[doc = concat!("`", $name, "` (see `docs/OBSERVABILITY.md`).")]
            $(#[$doc])*
            pub const $konst: Name = Name($name);
        )+

        /// Every cataloged name, in declaration order.
        pub const ALL: &[Name] = &[$($konst),+];
    };
}

catalog! {
    // Counters.
    ENGINE_CACHE_HIT = "engine.cache.hit";
    ENGINE_CACHE_MISS = "engine.cache.miss";
    ENGINE_CACHE_LOAD = "engine.cache.load";
    ENGINE_CACHE_STORE = "engine.cache.store";
    ENGINE_STORE_CORRUPT = "engine.store.corrupt";
    ENGINE_STORE_READ_BYTES = "engine.store.read_bytes";
    ENGINE_SIM_EXECUTED = "engine.sim.executed";
    ENGINE_SIM_PASSES = "engine.sim.passes";
    SERVE_REQUEST_HELLO = "serve.request.hello";
    SERVE_REQUEST_PING = "serve.request.ping";
    SERVE_REQUEST_STATS = "serve.request.stats";
    SERVE_REQUEST_METRICS = "serve.request.metrics";
    SERVE_REQUEST_RUN = "serve.request.run";
    SERVE_REQUEST_CANCEL = "serve.request.cancel";
    SERVE_REQUEST_SHUTDOWN = "serve.request.shutdown";
    SERVE_REQUEST_MALFORMED = "serve.request.malformed";
    SERVE_REJECT_AUTH = "serve.reject.auth";
    SERVE_REJECT_RATE = "serve.reject.rate";
    SERVE_REJECT_OVERSIZE = "serve.reject.oversize";
    SERVE_REJECT_OVERLOAD = "serve.reject.overload";

    // Gauges.
    SERVE_CONN_ACTIVE = "serve.conn.active";
    SERVE_INFLIGHT = "serve.inflight";
    /// A family, one gauge per fleet worker: resolve a member with
    /// [`crate::indexed_gauge`].
    SERVE_WORKER_INFLIGHT = "serve.worker<N>.inflight";

    // Histograms.
    ENGINE_JOBS_POOL_WAIT = "engine.jobs_pool.wait";
    SERVE_REQUEST_LATENCY = "serve.request.latency";
    SERVE_REQUEST_QUEUE_WAIT = "serve.request.queue_wait";

    // Spans.
    ENGINE_BATCH = "engine.batch";
    ENGINE_SCHEDULE = "engine.schedule";
    ENGINE_EXECUTE = "engine.execute";
    CORE_PROFILE = "core.profile";
    CORE_STEP1 = "core.step1";
    CORE_STEP2 = "core.step2";
    CORE_STEP3 = "core.step3";
    CORE_GA_GENERATION = "core.ga.generation";
    CORE_SWEEP_CELL = "core.sweep.cell";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn observability_doc_lists_exactly_the_catalog() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let documented: BTreeSet<&str> = doc
            .lines()
            .flat_map(|line| line.split('`').skip(1).step_by(2))
            .filter(|span| {
                ["engine.", "serve.", "core."]
                    .iter()
                    .any(|p| span.starts_with(p))
            })
            .collect();
        let cataloged: BTreeSet<&str> = ALL.iter().map(|n| n.as_str()).collect();
        let undocumented: Vec<_> = cataloged.difference(&documented).collect();
        let uncataloged: Vec<_> = documented.difference(&cataloged).collect();
        assert!(
            undocumented.is_empty() && uncataloged.is_empty(),
            "docs/OBSERVABILITY.md lacks {undocumented:?}; names outside the catalog: \
             {uncataloged:?}"
        );
    }
}
