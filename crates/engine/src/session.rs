//! Session-shared execution state: one result cache and one worker-permit
//! pool served to any number of concurrent batch runners.
//!
//! A single [`crate::ExploreEngine`] is enough for a one-shot CLI run. A
//! *resident* process — `ddtr serve` answering exploration requests for
//! hours — needs more: every in-flight request must see the same
//! content-addressed result cache (so one client's exploration warms the
//! next client's), the total number of concurrently executing simulations
//! must stay bounded by one shared `--jobs` budget no matter how many
//! requests are running, and a request must be cancellable mid-batch.
//! [`EngineSession`] owns that shared state and hands out engines bound to
//! it; [`JobsPool`] is the FIFO permit pool that makes the sharing *fair*
//! (a million-packet job cannot starve a small query, because permits are
//! granted strictly in request order, one simulation at a time); and
//! [`BatchControl`] carries the per-request [`CancelToken`] and progress
//! counters the server streams back to clients.

use crate::cache::{CacheStats, SimCache};
use crate::engine::{EngineConfig, EngineError, ExploreEngine};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A cooperative cancellation flag shared between a batch runner and its
/// controller.
///
/// Cancellation is observed *between* simulations: workers check the token
/// before starting each unit, so an in-flight simulation finishes but no
/// further one starts, and the batch returns [`Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A batch was abandoned because its [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Cumulative batch progress of one engine: units resolved (from cache or
/// execution) over units scheduled so far. `total` grows as further
/// batches are scheduled — a multi-phase exploration does not know its
/// full extent up front.
///
/// `done = executed + hits + duplicates resolved by identity`; because
/// the counters belong to one engine's control, they are exact for that
/// engine's run even when its result cache is shared with concurrently
/// running engines (unlike deltas of the shared [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchProgress {
    /// Units resolved so far (cache hits count immediately).
    pub done: usize,
    /// Units scheduled so far.
    pub total: usize,
    /// Units this engine actually simulated.
    pub executed: usize,
    /// Units answered from the (possibly shared) result cache.
    pub hits: usize,
}

type ProgressFn = dyn Fn(BatchProgress) + Send + Sync;

/// Controller attached to an engine: cancellation plus progress
/// observation.
///
/// Clones share state — a server keeps one clone per in-flight request to
/// cancel it, while the engine holds another. The observer (if any) is
/// invoked from worker threads; because workers race between updating the
/// shared counters and reporting them, observed `done` values may arrive
/// momentarily out of order. Values are always exact snapshots, so sinks
/// that need monotone output simply drop non-increasing ones.
#[derive(Clone, Default)]
pub struct BatchControl {
    cancel: CancelToken,
    observer: Option<Arc<ProgressFn>>,
    done: Arc<AtomicUsize>,
    total: Arc<AtomicUsize>,
    executed: Arc<AtomicUsize>,
    hits: Arc<AtomicUsize>,
}

impl BatchControl {
    /// A control with no observer (progress still counted).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A control whose progress updates invoke `observer`.
    #[must_use]
    pub fn observed(observer: impl Fn(BatchProgress) + Send + Sync + 'static) -> Self {
        BatchControl {
            observer: Some(Arc::new(observer)),
            ..Self::default()
        }
    }

    /// The control's cancellation token.
    #[must_use]
    pub fn token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests cancellation of the controlled engine's current and future
    /// batches.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The current progress snapshot.
    #[must_use]
    pub fn progress(&self) -> BatchProgress {
        BatchProgress {
            done: self.done.load(Ordering::SeqCst),
            total: self.total.load(Ordering::SeqCst),
            executed: self.executed.load(Ordering::SeqCst),
            hits: self.hits.load(Ordering::SeqCst),
        }
    }

    pub(crate) fn add_total(&self, n: usize) {
        self.total.fetch_add(n, Ordering::SeqCst);
        self.emit();
    }

    /// `n` units simulated by the controlled engine: the lanes of one
    /// pass.
    pub(crate) fn add_executed(&self, n: usize) {
        self.executed.fetch_add(n, Ordering::SeqCst);
        self.done.fetch_add(n, Ordering::SeqCst);
        self.emit();
    }

    /// `n` units answered from the result cache.
    pub(crate) fn add_hits(&self, n: usize) {
        if n > 0 {
            self.hits.fetch_add(n, Ordering::SeqCst);
            self.done.fetch_add(n, Ordering::SeqCst);
        }
        self.emit();
    }

    /// `n` in-batch duplicates resolved by identity (neither executed nor
    /// cache hits).
    pub(crate) fn add_resolved(&self, n: usize) {
        if n > 0 {
            self.done.fetch_add(n, Ordering::SeqCst);
            self.emit();
        }
    }

    fn emit(&self) {
        if let Some(observer) = &self.observer {
            observer(self.progress());
        }
    }
}

impl fmt::Debug for BatchControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchControl")
            .field("cancelled", &self.is_cancelled())
            .field("progress", &self.progress())
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

/// A FIFO permit pool bounding concurrent simulations across every engine
/// of a session.
///
/// Permits are granted strictly in arrival order (ticket lock), one per
/// simulation: a long-running batch re-queues for a permit after every
/// unit, so a later, smaller request's units interleave with it instead of
/// waiting for the whole batch — request-level fairness at unit
/// granularity.
#[derive(Debug)]
pub struct JobsPool {
    permits: usize,
    state: Mutex<PoolState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct PoolState {
    /// Next ticket to hand out.
    next: u64,
    /// Lowest ticket not yet granted.
    serving: u64,
    /// Permits currently held.
    held: usize,
}

impl JobsPool {
    /// A pool of `permits` concurrent simulation slots (at least one).
    #[must_use]
    pub fn new(permits: usize) -> Self {
        JobsPool {
            permits: permits.max(1),
            state: Mutex::new(PoolState::default()),
            cv: Condvar::new(),
        }
    }

    /// The pool's permit count.
    #[must_use]
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Blocks until this caller's turn comes *and* a permit is free, then
    /// takes the permit. Returns a guard releasing it on drop.
    ///
    /// The time spent queueing is recorded into the
    /// `engine.jobs_pool.wait` histogram (see `docs/OBSERVABILITY.md`) —
    /// the direct measure of how contended the session's `--jobs` budget
    /// is.
    pub fn acquire(&self) -> JobsPermit<'_> {
        let queued_at = std::time::Instant::now();
        let mut state = self.state.lock().expect("jobs pool poisoned");
        let ticket = state.next;
        state.next += 1;
        while state.serving != ticket || state.held >= self.permits {
            state = self.cv.wait(state).expect("jobs pool poisoned");
        }
        state.serving += 1;
        state.held += 1;
        drop(state);
        ddtr_obs::histogram(ddtr_obs::names::ENGINE_JOBS_POOL_WAIT)
            .record_duration(queued_at.elapsed());
        // Later tickets may now be eligible (serving advanced).
        self.cv.notify_all();
        JobsPermit { pool: self }
    }
}

/// A held [`JobsPool`] permit; dropping it frees the slot.
#[derive(Debug)]
pub struct JobsPermit<'a> {
    pool: &'a JobsPool,
}

impl Drop for JobsPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.pool.state.lock().expect("jobs pool poisoned");
        state.held -= 1;
        drop(state);
        self.pool.cv.notify_all();
    }
}

/// Shared execution state for a resident process: one result cache and one
/// jobs pool, served to any number of concurrently running engines.
///
/// Every engine handed out by [`EngineSession::engine`] resolves against
/// the same content-addressed cache (one request's executions answer the
/// next request's lookups) and draws its worker permits from the same FIFO
/// [`JobsPool`], so the session's total simulation concurrency is the
/// configured `--jobs` regardless of how many requests run at once.
///
/// # Example
///
/// ```
/// use ddtr_engine::{EngineConfig, EngineSession, SimUnit};
/// use ddtr_apps::{AppKind, AppParams};
/// use ddtr_ddt::DdtKind;
/// use ddtr_mem::MemoryConfig;
/// use ddtr_trace::NetworkPreset;
///
/// let session = EngineSession::new(EngineConfig::with_jobs(2))?;
/// let trace = NetworkPreset::DartmouthBerry.generate(30);
/// let params = AppParams::default();
/// let unit = SimUnit::new(AppKind::Drr, [DdtKind::Array, DdtKind::Sll], &params,
///                         &trace, MemoryConfig::embedded_default());
/// // Two engines, one cache: the second request is answered without
/// // executing anything.
/// session.engine().evaluate_batch(std::slice::from_ref(&unit));
/// session.engine().evaluate_batch(std::slice::from_ref(&unit));
/// assert_eq!(session.stats().misses, 1);
/// assert_eq!(session.stats().hits, 1);
/// # Ok::<(), ddtr_engine::EngineError>(())
/// ```
pub struct EngineSession {
    cfg: EngineConfig,
    cache: Arc<Mutex<SimCache>>,
    pool: Arc<JobsPool>,
}

impl EngineSession {
    /// Opens the session's shared cache (persistent when the configuration
    /// names a directory) and sizes its jobs pool.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the cache directory cannot be created
    /// or its store cannot be read.
    pub fn new(cfg: EngineConfig) -> Result<Self, EngineError> {
        let cache = ExploreEngine::open_cache(&cfg)?;
        let pool = Arc::new(JobsPool::new(crate::scheduler::effective_jobs(cfg.jobs)));
        Ok(EngineSession {
            cfg,
            cache: Arc::new(Mutex::new(cache)),
            pool,
        })
    }

    /// The session's total concurrent-simulation budget.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.pool.permits()
    }

    /// An engine bound to the session's cache and jobs pool, with a fresh
    /// default [`BatchControl`].
    #[must_use]
    pub fn engine(&self) -> ExploreEngine {
        self.engine_with(BatchControl::new())
    }

    /// An engine bound to the session's cache and jobs pool, controlled by
    /// `control` (the server keeps a clone to cancel or observe it).
    #[must_use]
    pub fn engine_with(&self, control: BatchControl) -> ExploreEngine {
        ExploreEngine::for_session(self.cfg.clone(), &self.cache, &self.pool, control)
    }

    /// The shared cache's counters so far, across every engine of the
    /// session.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.lock().expect("session cache poisoned").stats()
    }
}

impl fmt::Debug for EngineSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSession")
            .field("cfg", &self.cfg)
            .field("jobs", &self.jobs())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn cancel_token_flips_once() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        token.cancel();
        assert!(token.is_cancelled());
        let clone = token.clone();
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn batch_control_counts_and_observes() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let control = BatchControl::observed(move |p| sink.lock().unwrap().push(p));
        control.add_total(4);
        control.add_hits(1);
        control.add_executed(1);
        control.add_executed(1);
        control.add_resolved(1);
        assert_eq!(
            control.progress(),
            BatchProgress {
                done: 4,
                total: 4,
                executed: 2,
                hits: 1
            }
        );
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4].done, 4);
        assert_eq!(seen[4].executed, 2);
    }

    #[test]
    fn jobs_pool_grants_permits_in_fifo_order() {
        // One permit; a holder pins it while three waiters queue up in a
        // known order. Releasing must serve them strictly in that order.
        let pool = Arc::new(JobsPool::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let admitted = Arc::new(AtomicU64::new(0));
        let first = pool.acquire();
        let mut handles = Vec::new();
        for i in 0..3u64 {
            let waiter_pool = Arc::clone(&pool);
            let order = Arc::clone(&order);
            let admitted = Arc::clone(&admitted);
            handles.push(std::thread::spawn(move || {
                let _permit = waiter_pool.acquire();
                admitted.fetch_add(1, Ordering::SeqCst);
                order.lock().unwrap().push(i);
            }));
            // Let thread i reach the queue before spawning i+1 so the
            // ticket order is deterministic.
            while pool.state.lock().unwrap().next != i + 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 0, "permit still held");
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "FIFO service");
    }

    #[test]
    fn jobs_pool_bounds_concurrency() {
        let pool = Arc::new(JobsPool::new(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = Arc::clone(&pool);
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                let _permit = pool.acquire();
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "never over the budget");
    }

    #[test]
    fn zero_permit_pool_still_serves() {
        let pool = JobsPool::new(0);
        assert_eq!(pool.permits(), 1);
        let _permit = pool.acquire();
    }
}
