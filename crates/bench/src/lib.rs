//! The workspace's reproduction and CI gate binaries; the library holds no
//! code. `reproduce` prints the reproduction scorecard checked in as
//! `REPRODUCTION.md`, one section per entry of its `SECTIONS` list, and CI
//! fails when that file differs from a fresh run. `obs_overhead` and
//! `stream_smoke` back the observability-overhead and streamed-memory gates.
