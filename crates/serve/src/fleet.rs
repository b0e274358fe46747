//! The worker fleet: N shared-nothing [`EngineSession`]s behind one
//! listener, with requests routed by content fingerprint.
//!
//! Each worker owns its own in-memory result cache and FIFO jobs pool;
//! what they share is the on-disk pile store (every session appends its
//! own `O_EXCL` segment and reads everyone's — the PR 9 verified-on-read
//! discipline), so workers never contend on an in-process lock and a
//! result any worker persisted warms the whole fleet after a reopen.
//!
//! Routing is deterministic: a request's resolved [`ExploreRequest`] is
//! fingerprinted by FNV-1a over its canonical JSON
//! ([`fingerprint_value`]), and the fingerprint picks the worker.
//! Identical requests therefore always land on the same worker and hit
//! its warm in-memory cache — a repeated run executes zero simulations
//! without any cross-worker chatter.

use crate::server::ServeError;
use ddtr_core::ExploreRequest;
use ddtr_engine::{fingerprint_value, EngineConfig, EngineSession};

/// Everything a fleet [`crate::Server`] can be configured with beyond
/// the per-worker engine settings.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-worker engine configuration (jobs budget, cache directory).
    pub engine: EngineConfig,
    /// Worker sessions behind the listener; clamped to at least 1.
    pub workers: usize,
    /// Shared secret clients must present in a `Hello` request before
    /// anything else is served; `None` leaves the server open.
    pub auth_token: Option<String>,
    /// Concurrent connections accepted before new ones are rejected
    /// with an `Overloaded` error.
    pub max_connections: usize,
    /// Concurrent `Run` requests per connection before further ones are
    /// rejected with an `Overloaded` error.
    pub max_inflight: usize,
    /// Requests per second per connection; `None` disables rate
    /// limiting.
    pub rate_limit: Option<u32>,
    /// Longest accepted request line in bytes; longer lines are
    /// discarded unread and answered with a `TooLarge` error.
    pub max_request_bytes: usize,
}

impl ServerConfig {
    /// The defaults around an engine configuration: one worker, open
    /// auth, 1024 connection slots, 64 in-flight runs per connection, no
    /// rate limit, 4 MiB request lines.
    #[must_use]
    pub fn new(engine: EngineConfig) -> Self {
        ServerConfig {
            engine,
            workers: 1,
            auth_token: None,
            max_connections: 1024,
            max_inflight: 64,
            rate_limit: None,
            max_request_bytes: 4 * 1024 * 1024,
        }
    }
}

/// The deterministic request → worker routing function.
///
/// Exposed so tests (and operators debugging placement) can predict
/// where a request lands: the resolved request's content fingerprint —
/// FNV-1a over its canonical JSON — modulo the worker count.
#[must_use]
pub fn route_worker(request: &ExploreRequest, workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    (fingerprint_value(request) % workers as u64) as usize
}

/// Opens the fleet's worker sessions, all over the same engine
/// configuration (and thus the same shared cache directory).
pub(crate) fn open_workers(cfg: &ServerConfig) -> Result<Vec<EngineSession>, ServeError> {
    let count = cfg.workers.max(1);
    let mut workers = Vec::with_capacity(count);
    for _ in 0..count {
        workers.push(EngineSession::new(cfg.engine.clone()).map_err(ServeError::Engine)?);
    }
    Ok(workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobSpec;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let a = JobSpec {
            quick: true,
            ..JobSpec::preset("explore", Some("drr"))
        }
        .resolve()
        .expect("resolves");
        let b = JobSpec {
            quick: true,
            ..JobSpec::preset("explore", Some("url"))
        }
        .resolve()
        .expect("resolves");
        for workers in [1, 2, 3, 8] {
            let wa = route_worker(&a, workers);
            assert_eq!(wa, route_worker(&a, workers), "stable");
            assert!(wa < workers, "in range");
            assert!(route_worker(&b, workers) < workers);
        }
        // A single-worker fleet routes everything to worker 0.
        assert_eq!(route_worker(&a, 1), 0);
        assert_eq!(route_worker(&b, 0), 0);
    }
}
