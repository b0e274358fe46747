//! Behaviour with recording disabled — isolated in its own test binary
//! (and therefore its own process) because [`ddtr_obs::set_enabled`]
//! flips process-global state that would race the other tests.

use ddtr_obs::names::{
    CORE_STEP1, ENGINE_BATCH, ENGINE_SIM_EXECUTED, SERVE_INFLIGHT, SERVE_REQUEST_LATENCY,
};
use ddtr_obs::{counter, gauge, histogram, set_enabled, snapshot, Span};

#[test]
fn disabled_recording_is_a_complete_no_op() {
    set_enabled(false);
    counter(ENGINE_SIM_EXECUTED).add(5);
    gauge(SERVE_INFLIGHT).inc();
    histogram(SERVE_REQUEST_LATENCY).record(123);
    {
        let _s = Span::enter(ENGINE_BATCH);
    }
    let snap = snapshot();
    assert_eq!(snap.counters.get("engine.sim.executed"), Some(&0));
    assert_eq!(snap.gauges.get("serve.inflight"), Some(&0));
    assert_eq!(snap.histograms["serve.request.latency"].count, 0);
    assert_eq!(ddtr_obs::trace_len(), 0);

    // Re-enabling restores recording on the same handles.
    set_enabled(true);
    counter(ENGINE_SIM_EXECUTED).add(2);
    histogram(SERVE_REQUEST_LATENCY).record(7);
    {
        let _s = Span::enter(CORE_STEP1);
    }
    let snap = snapshot();
    assert_eq!(snap.counters.get("engine.sim.executed"), Some(&2));
    assert_eq!(snap.histograms["serve.request.latency"].count, 1);
    assert_eq!(ddtr_obs::trace_len(), 1);
    assert!(ddtr_obs::chrome_trace_json().contains("core.step1"));
}
