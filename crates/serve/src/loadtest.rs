//! The concurrent load-driving harness behind `ddtr loadtest`.
//!
//! One [`run`] drives `clients` concurrent connections against a live
//! server, each performing the same scripted workload — handshake,
//! pings, preset explores — while recording per-operation latency and
//! counting every way the edge can push back (dropped connections,
//! protocol `Error` events). The aggregated [`LoadtestReport`] carries
//! nearest-rank p50/p99 in microseconds plus the engine counters that
//! prove cache warmth (a repeated run against the same fleet must
//! report `executed == 0`).
//!
//! The harness lives in `ddtr_serve`, inside the serve boundary, so it
//! is held to the same no-panic discipline as the server it exercises.

use crate::client::Client;
use crate::endpoint::Endpoint;
use crate::protocol::{Event, JobSpec, Request, RequestBody};
use serde::Serialize;
use std::time::{Duration, Instant};

/// What each simulated client does, and how the fleet is reached.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// The server to drive (tcp:/unix: — stdio cannot be load-tested).
    pub endpoint: Endpoint,
    /// Concurrent client connections.
    pub clients: usize,
    /// `Ping` round trips per client.
    pub pings: usize,
    /// Preset explore requests per client.
    pub explores: usize,
    /// Run explores with the reduced `--quick` configuration.
    pub quick: bool,
    /// Apps cycled across clients (client *i* explores
    /// `apps[i % apps.len()]`); empty behaves like `["drr"]`.
    pub apps: Vec<String>,
    /// Auth token to present in the handshake.
    pub auth: Option<String>,
    /// Extra connect attempts per client before counting the connection
    /// as dropped.
    pub connect_retries: u32,
    /// Delay between connect attempts.
    pub retry_delay: Duration,
}

impl LoadtestConfig {
    /// The `ddtr loadtest` defaults: 4 clients, 50 pings and 4 quick
    /// `drr` explores each, one connect retry.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        LoadtestConfig {
            endpoint,
            clients: 4,
            pings: 50,
            explores: 4,
            quick: true,
            apps: vec!["drr".to_string()],
            auth: None,
            connect_retries: 1,
            retry_delay: Duration::from_millis(50),
        }
    }
}

/// Latency summary of one operation kind, in whole microseconds
/// (nearest-rank percentiles over every recorded sample).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: usize,
    /// 50th percentile (nearest rank).
    pub p50_us: u64,
    /// 99th percentile (nearest rank).
    pub p99_us: u64,
    /// Slowest sample.
    pub max_us: u64,
}

impl LatencyStats {
    /// Summarises a sample set (sorted internally).
    #[must_use]
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencyStats {
            count: samples.len(),
            p50_us: percentile(&samples, 50),
            p99_us: percentile(&samples, 99),
            max_us: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set (integer
/// arithmetic; 0 for an empty set).
#[must_use]
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// The aggregated outcome of one [`run`].
#[derive(Debug, Clone, Serialize)]
pub struct LoadtestReport {
    /// Clients the run was configured with.
    pub clients: usize,
    /// Clients that completed their full workload.
    pub completed_clients: usize,
    /// Connections that failed to establish or died mid-workload.
    pub dropped_connections: usize,
    /// `Error` events received (any request, any client).
    pub protocol_errors: usize,
    /// Simulations the fleet executed for this run's explores.
    pub executed: usize,
    /// Simulations answered from the fleet's caches.
    pub cache_hits: usize,
    /// Ping round-trip latency.
    pub ping: LatencyStats,
    /// Explore end-to-end latency.
    pub explore: LatencyStats,
    /// Wall-clock time of the whole run, in milliseconds.
    pub wall_ms: u64,
}

impl LoadtestReport {
    /// Whether the run saw neither dropped connections nor protocol
    /// errors — the smoke-gate predicate.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.dropped_connections == 0 && self.protocol_errors == 0
    }
}

/// What one client brought home.
#[derive(Debug, Default)]
struct ClientOutcome {
    pings_us: Vec<u64>,
    explores_us: Vec<u64>,
    protocol_errors: usize,
    executed: usize,
    cache_hits: usize,
    completed: bool,
    dropped: bool,
}

/// Drives the configured workload and aggregates the report.
///
/// Every client failure mode is counted, never propagated — the report
/// is the result, even (especially) when the server pushed back.
#[must_use]
pub fn run(cfg: &LoadtestConfig) -> LoadtestReport {
    let started = Instant::now();
    let mut outcomes: Vec<ClientOutcome> = Vec::with_capacity(cfg.clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| scope.spawn(move || drive_client(cfg, i)))
            .collect();
        for handle in handles {
            outcomes.push(handle.join().unwrap_or_else(|_| ClientOutcome {
                dropped: true,
                ..ClientOutcome::default()
            }));
        }
    });
    let mut pings = Vec::new();
    let mut explores = Vec::new();
    let mut report = LoadtestReport {
        clients: cfg.clients,
        completed_clients: 0,
        dropped_connections: 0,
        protocol_errors: 0,
        executed: 0,
        cache_hits: 0,
        ping: LatencyStats::default(),
        explore: LatencyStats::default(),
        wall_ms: 0,
    };
    for outcome in outcomes {
        pings.extend_from_slice(&outcome.pings_us);
        explores.extend_from_slice(&outcome.explores_us);
        report.protocol_errors += outcome.protocol_errors;
        report.executed += outcome.executed;
        report.cache_hits += outcome.cache_hits;
        report.completed_clients += usize::from(outcome.completed);
        report.dropped_connections += usize::from(outcome.dropped);
    }
    report.ping = LatencyStats::from_samples(pings);
    report.explore = LatencyStats::from_samples(explores);
    report.wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    report
}

/// One client's scripted workload.
fn drive_client(cfg: &LoadtestConfig, index: usize) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let mut builder =
        Client::builder(cfg.endpoint.clone()).retry_connect(cfg.connect_retries, cfg.retry_delay);
    if let Some(token) = &cfg.auth {
        builder = builder.auth_token(token.clone());
    }
    let mut client = match builder.connect() {
        Ok(client) => client,
        Err(_) => {
            outcome.dropped = true;
            return outcome;
        }
    };
    for p in 0..cfg.pings {
        let request = Request::new(format!("c{index}-ping{p}"), RequestBody::Ping);
        let begun = Instant::now();
        match client.call(&request, |_| {}) {
            Ok(Event::Pong { .. }) => outcome.pings_us.push(elapsed_us(begun)),
            Ok(Event::Error { .. }) => outcome.protocol_errors += 1,
            Ok(_) => outcome.protocol_errors += 1,
            Err(_) => {
                outcome.dropped = true;
                return outcome;
            }
        }
    }
    let app = cfg
        .apps
        .get(index % cfg.apps.len().max(1))
        .map_or("drr", String::as_str);
    for e in 0..cfg.explores {
        let spec = JobSpec {
            quick: cfg.quick,
            ..JobSpec::preset("explore", Some(app))
        };
        let request = Request::run(format!("c{index}-explore{e}"), spec);
        let begun = Instant::now();
        match client.call(&request, |_| {}) {
            Ok(Event::Result {
                executed,
                cache_hits,
                ..
            }) => {
                outcome.explores_us.push(elapsed_us(begun));
                outcome.executed += executed;
                outcome.cache_hits += cache_hits;
            }
            Ok(Event::Error { .. }) => outcome.protocol_errors += 1,
            Ok(_) => outcome.protocol_errors += 1,
            Err(_) => {
                outcome.dropped = true;
                return outcome;
            }
        }
    }
    outcome.completed = true;
    outcome
}

/// Elapsed whole microseconds since `begun`, saturating.
fn elapsed_us(begun: Instant) -> u64 {
    u64::try_from(begun.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50), 50);
        assert_eq!(percentile(&samples, 99), 99);
        assert_eq!(percentile(&samples, 100), 100);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
        let stats = LatencyStats::from_samples(vec![30, 10, 20]);
        assert_eq!(stats.count, 3);
        assert_eq!(stats.p50_us, 20);
        assert_eq!(stats.max_us, 30);
    }

    #[test]
    fn reports_judge_cleanliness() {
        let clean = LoadtestReport {
            clients: 1,
            completed_clients: 1,
            dropped_connections: 0,
            protocol_errors: 0,
            executed: 0,
            cache_hits: 0,
            ping: LatencyStats::default(),
            explore: LatencyStats::default(),
            wall_ms: 1,
        };
        assert!(clean.clean());
        let dirty = LoadtestReport {
            protocol_errors: 1,
            ..clean.clone()
        };
        assert!(!dirty.clean());
    }
}
