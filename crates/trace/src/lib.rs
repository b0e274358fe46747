//! Network traces for the DDT exploration methodology.
//!
//! The DATE 2006 paper drives its network-level exploration (step 2) with
//! ten packet traces from eight real networks — three NLANR backbone/campus
//! measurement points and five Dartmouth campus wireless buildings. Those
//! raw traces are not redistributable, so this crate provides the closest
//! synthetic equivalent, driven by the same network parameters the paper
//! extracts and step 2 varies:
//!
//! * [`TraceSpec`] — the *network parameters* the paper's Perl tool
//!   extracts from raw traces (node count, throughput, packet-size mixture,
//!   flow-popularity skew, application payload share),
//! * [`TraceGenerator`] — a seeded, deterministic packet-stream synthesiser
//!   (Poisson arrivals, Zipf flow popularity, trimodal packet sizes),
//! * [`NetworkPreset`] — ten named parameter sets standing in for the ten
//!   paper traces (`BWY I` = [`NetworkPreset::DartmouthBerry`]),
//! * [`TraceWriter`]/[`TraceReader`] — a text serialisation so the
//!   parameter-extraction path parses real files exactly like the original
//!   tool flow,
//! * [`NetworkParams`] — the extractor itself,
//! * [`PacketStream`]/[`StreamSpec`] — constant-memory streaming
//!   generation for million-packet workloads, packet-for-packet identical
//!   to the materializing path,
//! * [`Scenario`] — the workload-scenario catalog (bursty, flash-crowd,
//!   ddos-syn, phase-shift) layered over the presets.
//!
//! # Example
//!
//! ```
//! use ddtr_trace::{NetworkParams, NetworkPreset};
//!
//! let trace = NetworkPreset::DartmouthBerry.generate(500);
//! let params = NetworkParams::extract(&trace);
//! assert!(params.nodes_observed > 1);
//! assert!(params.throughput_pps > 0.0);
//! ```

mod format;
mod gen;
mod packet;
mod params;
mod presets;
mod spec;
mod stream;

pub use format::{ParseTraceError, TraceReader, TraceWriter};
pub use gen::{TraceGenerator, URL_STEMS};
pub use packet::{Packet, Payload, Protocol, Trace};
pub use params::{NetworkParams, SizeHistogram};
pub use presets::{NetworkPreset, Scenario};
pub use spec::{BurstProfile, SizeProfile, TraceError, TraceSpec};
pub use stream::{PacketStream, StreamChain, StreamPhase, StreamSpec};
