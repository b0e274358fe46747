//! The wire protocol of `ddtr serve`: newline-delimited JSON.
//!
//! Every line the client writes is one [`Request`]; every line the server
//! writes is one [`Event`]. Values use serde's external tagging — a unit
//! variant is its name as a string (`"Ping"`), a data-carrying variant a
//! single-key object (`{"Run": {…}}`). The full schema, with a worked
//! `ddtr query` transcript, is documented in `docs/PROTOCOL.md` at the
//! workspace root.
//!
//! Requests carry a client-chosen `id`; every event about a request echoes
//! that id, so events of concurrently running requests can interleave
//! freely on one connection. Exploration work is named either *inline* —
//! a full [`ExploreRequest`] configuration — or by *preset*: mode, app
//! and the same flags the CLI subcommands take ([`JobSpec::resolve`] is
//! the one place both spellings meet).
//!
//! The types may only change compatibly. Two recorded transcripts in this
//! crate's `tests/data/`, `wire_requests.jsonl` and `wire_events.jsonl`,
//! hold every request and event shape as it first shipped, v1 lines
//! first. `tests/wire_transcripts.rs` decodes each line with today's
//! types and requires the re-encoding to keep every key of the line.

use ddtr_apps::AppKind;
use ddtr_core::{
    CacheStats, ExploreRequest, ExploreResult, GaConfig, MemoryPreset, MethodologyConfig,
    ScenarioConfig, SweepConfig,
};
use ddtr_ddt::DdtKind;
use ddtr_obs::MetricsSnapshot;
use ddtr_trace::{NetworkPreset, Scenario};
use serde::{Deserialize, Serialize};

/// Version of the wire protocol; servers announce it in [`Event::Hello`]
/// and reject a [`RequestBody::Hello`] naming any other version with
/// [`ErrorCode::UnsupportedProtocol`]. Everything since v1 is additive —
/// the recorded v1 transcripts still decode (see the module docs) — so
/// the number has not moved.
pub const PROTOCOL_VERSION: u32 = 1;

/// Capability names a fleet server advertises in [`Event::Hello`] /
/// [`Event::Welcome`]: what this build can do beyond the bare v1 wire
/// shape. Clients must ignore names they do not know.
pub const SERVER_CAPABILITIES: &[&str] = &["auth", "cancel", "cells", "codes", "fleet", "metrics"];

/// Stable machine-readable classification of an [`Event::Error`].
///
/// Codes are additive: a client must treat an unknown code (or an absent
/// one, from a pre-`codes` server) as [`ErrorCode::Internal`]-like and
/// fall back to the human-readable `error` text. The full table, with
/// which codes end the connection, lives in `docs/PROTOCOL.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request line was not valid JSON for a [`Request`].
    Parse,
    /// The request parsed but is semantically invalid (bad mode, app,
    /// preset or flag combination — everything [`ResolveError`] covers).
    BadRequest,
    /// The server requires an auth token and the connection has not
    /// presented one: send [`RequestBody::Hello`] with `auth` first.
    AuthRequired,
    /// The presented auth token is wrong. The server closes the
    /// connection after this error.
    AuthFailed,
    /// The client's [`RequestBody::Hello`] named a `proto_version` this
    /// server does not speak.
    UnsupportedProtocol,
    /// The connection exceeded its request-rate budget; retry after
    /// backing off. The connection stays open.
    RateLimited,
    /// The request line exceeded the server's size ceiling and was
    /// discarded unread. The connection stays open.
    TooLarge,
    /// A `Run` re-used the id of a request still in flight.
    DuplicateId,
    /// A `Cancel` named an id that is not in flight.
    UnknownTarget,
    /// The server is at capacity (connection slots or per-connection
    /// in-flight budget exhausted).
    Overloaded,
    /// The engine failed while executing the request.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code (the serde variant name).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "Parse",
            ErrorCode::BadRequest => "BadRequest",
            ErrorCode::AuthRequired => "AuthRequired",
            ErrorCode::AuthFailed => "AuthFailed",
            ErrorCode::UnsupportedProtocol => "UnsupportedProtocol",
            ErrorCode::RateLimited => "RateLimited",
            ErrorCode::TooLarge => "TooLarge",
            ErrorCode::DuplicateId => "DuplicateId",
            ErrorCode::UnknownTarget => "UnknownTarget",
            ErrorCode::Overloaded => "Overloaded",
            ErrorCode::Internal => "Internal",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a [`JobSpec`] failed to resolve into an [`ExploreRequest`].
///
/// Every variant maps onto [`ErrorCode::BadRequest`] on the wire; the
/// structure exists so in-process callers (the CLI validates specs before
/// sending them) can branch on the kind instead of grepping a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// `inline` was combined with preset fields.
    InlineWithPreset,
    /// Neither `inline` nor `mode` was given.
    MissingMode,
    /// `mode` names no known exploration mode.
    UnknownMode(String),
    /// The mode requires `app` and none was given.
    MissingApp {
        /// The mode that needed it.
        mode: String,
    },
    /// An app/network/scenario/platform name failed to parse; the
    /// message lists the valid catalog.
    UnknownName(String),
    /// A flag was set that the chosen mode does not take.
    FlagNotApplicable {
        /// The offending `JobSpec` field.
        flag: String,
        /// The mode that rejects it.
        mode: String,
    },
    /// A non-sweep mode was given more than one `mem` preset.
    MemArity {
        /// The mode that takes exactly one platform.
        mode: String,
    },
    /// The spec resolved but the resulting configuration failed
    /// validation.
    Invalid(String),
}

impl ResolveError {
    /// The wire code for this failure (always [`ErrorCode::BadRequest`]).
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        ErrorCode::BadRequest
    }
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::InlineWithPreset => f.write_str("inline configs take no preset fields"),
            ResolveError::MissingMode => f.write_str("missing `mode` (or `inline`)"),
            ResolveError::UnknownMode(mode) => write!(
                f,
                "unknown mode `{mode}` (expected explore, ga, scenarios, sweep or headline)"
            ),
            ResolveError::MissingApp { mode } => write!(f, "mode `{mode}` requires `app`"),
            ResolveError::UnknownName(msg) | ResolveError::Invalid(msg) => f.write_str(msg),
            ResolveError::FlagNotApplicable { flag, mode } => {
                write!(f, "`{flag}` does not apply to mode `{mode}`")
            }
            ResolveError::MemArity { mode } => write!(
                f,
                "mode `{mode}` takes exactly one `mem` preset (the sweep mode takes a list)"
            ),
        }
    }
}

impl std::error::Error for ResolveError {}

/// One client → server line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen identifier echoed on every event about this request.
    pub id: String,
    /// What to do.
    pub body: RequestBody,
}

impl Request {
    /// Convenience constructor.
    #[must_use]
    pub fn new(id: impl Into<String>, body: RequestBody) -> Self {
        Request {
            id: id.into(),
            body,
        }
    }

    /// A `Run` request for `spec`.
    #[must_use]
    pub fn run(id: impl Into<String>, spec: JobSpec) -> Self {
        Request::new(id, RequestBody::Run(Box::new(spec)))
    }
}

/// The action a [`Request`] asks for.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RequestBody {
    /// Versioned handshake; answered with [`Event::Welcome`] (or
    /// [`Event::Error`] carrying [`ErrorCode::UnsupportedProtocol`] /
    /// [`ErrorCode::AuthFailed`]). Optional on open servers; mandatory
    /// first request when the server was started with `--auth-token`.
    Hello {
        /// The protocol version the client speaks; must equal
        /// [`PROTOCOL_VERSION`].
        proto_version: u32,
        /// The shared secret, when the server requires one.
        #[serde(default)]
        auth: Option<String>,
        /// Capability names the client understands (informational; the
        /// server never rejects on them).
        #[serde(default)]
        capabilities: Vec<String>,
    },
    /// Liveness check; answered with [`Event::Pong`].
    Ping,
    /// Report the session's shared cache counters and jobs budget;
    /// answered with [`Event::Stats`].
    Stats,
    /// Report the process's full metrics in the Prometheus text
    /// exposition format; answered with [`Event::Metrics`]. `ddtr query
    /// <endpoint> metrics` prints the text verbatim.
    Metrics,
    /// Schedule one exploration; answered with [`Event::Queued`], a
    /// stream of [`Event::Running`], and finally [`Event::Result`],
    /// [`Event::Cancelled`] or [`Event::Error`]. (Boxed: a full inline
    /// configuration dwarfs the other variants.)
    Run(Box<JobSpec>),
    /// Cancel the in-flight request whose id is `target`. The cancelled
    /// request answers with [`Event::Cancelled`]; an unknown or already
    /// finished target answers with [`Event::Error`] on *this* request's
    /// id.
    Cancel {
        /// The id of the request to cancel.
        target: String,
    },
    /// Finish in-flight work, close the connection and — when the server
    /// listens on a socket — stop accepting new connections.
    Shutdown,
}

/// One exploration to schedule: either a full inline configuration or an
/// app/mode preset with CLI-equivalent flags.
///
/// Preset resolution mirrors the CLI exactly: `mode` is one of
/// `"explore"`, `"ga"`, `"scenarios"`, `"sweep"`, `"headline"`; `quick`
/// selects the reduced configuration; `extended` widens the DDT candidate
/// set; `mem` names platform presets from the [`MemoryPreset`] catalog
/// (one for the single-platform modes, the platform axis for `sweep`).
/// Fields that do not apply to the chosen mode are rejected, not ignored.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobSpec {
    /// Full inline configuration; when present every preset field must be
    /// absent.
    #[serde(default)]
    pub inline: Option<ExploreRequest>,
    /// Exploration mode: `explore`, `ga`, `scenarios`, `sweep` or
    /// `headline`.
    #[serde(default)]
    pub mode: Option<String>,
    /// Application preset (required for `explore`/`ga`/`headline`;
    /// optional row restriction for `scenarios`).
    #[serde(default)]
    pub app: Option<String>,
    /// Use the reduced (`--quick`) configuration.
    #[serde(default)]
    pub quick: bool,
    /// Explore the extended 12-kind DDT library (`--extended`).
    #[serde(default)]
    pub extended: bool,
    /// Base network preset (`scenarios`/`sweep` only; default `BWY-I`).
    #[serde(default)]
    pub base: Option<String>,
    /// Scenario columns (`scenarios`/`sweep` only; default: all).
    #[serde(default)]
    pub scenarios: Option<Vec<String>>,
    /// Packets per simulation override (`scenarios`/`sweep` only).
    #[serde(default)]
    pub packets: Option<usize>,
    /// RNG seed override (`ga` only).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Early-stop window: end the GA after this many generations without
    /// a front improvement (`ga` only; `--stall`).
    #[serde(default)]
    pub stall: Option<usize>,
    /// Memory presets: exactly one for `explore`/`ga`/`scenarios`/
    /// `headline` (the platform to run on), any distinct set for `sweep`
    /// (the platform axis; default: the whole catalog). Unknown names are
    /// rejected with an error listing the valid presets.
    #[serde(default)]
    pub mem: Option<Vec<String>>,
}

impl JobSpec {
    /// A preset spec for `mode` over `app`, CLI defaults.
    #[must_use]
    pub fn preset(mode: &str, app: Option<&str>) -> Self {
        JobSpec {
            mode: Some(mode.to_string()),
            app: app.map(str::to_string),
            ..Self::default()
        }
    }

    /// An inline spec wrapping a full configuration.
    #[must_use]
    pub fn inline(request: ExploreRequest) -> Self {
        JobSpec {
            inline: Some(request),
            ..Self::default()
        }
    }

    /// Resolves the spec into the [`ExploreRequest`] to dispatch,
    /// validating it.
    ///
    /// # Errors
    ///
    /// Returns a [`ResolveError`] describing the first problem: unknown
    /// mode, app or scenario names, a flag that does not apply to the
    /// mode, or an invalid resolved configuration.
    pub fn resolve(&self) -> Result<ExploreRequest, ResolveError> {
        let request = self.build()?;
        request
            .validate()
            .map_err(|e| ResolveError::Invalid(e.to_string()))?;
        Ok(request)
    }

    fn build(&self) -> Result<ExploreRequest, ResolveError> {
        if let Some(inline) = &self.inline {
            if self.mode.is_some() || self.app.is_some() {
                return Err(ResolveError::InlineWithPreset);
            }
            return Ok(inline.clone());
        }
        let mode = self.mode.as_deref().ok_or(ResolveError::MissingMode)?;
        let unknown = |e: &dyn std::fmt::Display| ResolveError::UnknownName(e.to_string());
        let optional_app = || -> Result<Option<AppKind>, ResolveError> {
            match &self.app {
                Some(name) => name.parse().map(Some).map_err(|e| unknown(&e)),
                None => Ok(None),
            }
        };
        let required_app = || -> Result<AppKind, ResolveError> {
            optional_app()?.ok_or_else(|| ResolveError::MissingApp {
                mode: mode.to_string(),
            })
        };
        let reject = |field: &str, set: bool| -> Result<(), ResolveError> {
            if set {
                Err(ResolveError::FlagNotApplicable {
                    flag: field.to_string(),
                    mode: mode.to_string(),
                })
            } else {
                Ok(())
            }
        };
        // The single platform of a non-sweep mode, when `mem` is given.
        let single_mem = || -> Result<Option<MemoryPreset>, ResolveError> {
            match &self.mem {
                None => Ok(None),
                Some(names) => match names.as_slice() {
                    [name] => name.parse().map(Some).map_err(|e| unknown(&e)),
                    _ => Err(ResolveError::MemArity {
                        mode: mode.to_string(),
                    }),
                },
            }
        };
        match mode {
            "explore" | "headline" => {
                let app = required_app()?;
                reject("base", self.base.is_some())?;
                reject("scenarios", self.scenarios.is_some())?;
                reject("packets", self.packets.is_some())?;
                reject("seed", self.seed.is_some())?;
                reject("stall", self.stall.is_some())?;
                let mut cfg = if self.quick {
                    MethodologyConfig::quick(app)
                } else {
                    MethodologyConfig::paper(app)
                };
                if self.extended {
                    cfg.candidates = DdtKind::EXTENDED.to_vec();
                }
                if let Some(preset) = single_mem()? {
                    cfg.mem = preset.config();
                }
                Ok(if mode == "explore" {
                    ExploreRequest::Explore(cfg)
                } else {
                    ExploreRequest::Headline(cfg)
                })
            }
            "ga" => {
                let app = required_app()?;
                reject("base", self.base.is_some())?;
                reject("scenarios", self.scenarios.is_some())?;
                reject("packets", self.packets.is_some())?;
                let mut cfg = if self.quick {
                    GaConfig::quick(app)
                } else {
                    GaConfig::paper(app)
                };
                if self.extended {
                    cfg.candidates = DdtKind::EXTENDED.to_vec();
                }
                if let Some(seed) = self.seed {
                    cfg.seed = seed;
                }
                if let Some(window) = self.stall {
                    cfg.stall_generations = Some(window);
                }
                if let Some(preset) = single_mem()? {
                    cfg.mem = preset.config();
                }
                Ok(ExploreRequest::Ga(cfg))
            }
            "scenarios" => {
                reject("seed", self.seed.is_some())?;
                reject("stall", self.stall.is_some())?;
                let base: NetworkPreset = match &self.base {
                    Some(name) => name.parse().map_err(|e| unknown(&e))?,
                    None => NetworkPreset::DartmouthBerry,
                };
                let mut cfg = if self.quick {
                    ScenarioConfig::quick(base)
                } else {
                    ScenarioConfig::paper(base)
                };
                if self.extended {
                    cfg.candidates = DdtKind::EXTENDED.to_vec();
                }
                if let Some(app) = optional_app()? {
                    cfg.apps = vec![app];
                }
                if let Some(names) = &self.scenarios {
                    cfg.scenarios = names
                        .iter()
                        .map(|n| n.parse::<Scenario>().map_err(|e| unknown(&e)))
                        .collect::<Result<_, _>>()?;
                }
                if let Some(packets) = self.packets {
                    cfg.packets_per_sim = packets;
                }
                if let Some(preset) = single_mem()? {
                    cfg.mem = preset.config();
                }
                Ok(ExploreRequest::Scenarios(cfg))
            }
            "sweep" => {
                reject("seed", self.seed.is_some())?;
                reject("stall", self.stall.is_some())?;
                let base: NetworkPreset = match &self.base {
                    Some(name) => name.parse().map_err(|e| unknown(&e))?,
                    None => NetworkPreset::DartmouthBerry,
                };
                let mut cfg = if self.quick {
                    SweepConfig::quick(base)
                } else {
                    SweepConfig::paper(base)
                };
                if self.extended {
                    cfg.candidates = DdtKind::EXTENDED.to_vec();
                }
                if let Some(app) = optional_app()? {
                    cfg.apps = vec![app];
                }
                if let Some(names) = &self.scenarios {
                    cfg.scenarios = names
                        .iter()
                        .map(|n| n.parse::<Scenario>().map_err(|e| unknown(&e)))
                        .collect::<Result<_, _>>()?;
                }
                if let Some(packets) = self.packets {
                    cfg.packets_per_sim = packets;
                }
                if let Some(names) = &self.mem {
                    cfg.mem_presets = names
                        .iter()
                        .map(|n| n.parse::<MemoryPreset>().map_err(|e| unknown(&e)))
                        .collect::<Result<_, _>>()?;
                }
                Ok(ExploreRequest::Sweep(cfg))
            }
            other => Err(ResolveError::UnknownMode(other.to_string())),
        }
    }
}

/// One server → client line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Event {
    /// First line of every connection: protocol version, server build and
    /// the session's concurrent-simulation budget.
    Hello {
        /// [`PROTOCOL_VERSION`] of the server.
        protocol: u32,
        /// Server build identifier.
        server: String,
        /// Concurrent-simulation budget of each worker session.
        jobs: usize,
        /// Capability names of this server build (see
        /// [`SERVER_CAPABILITIES`]); empty from a pre-fleet server.
        #[serde(default)]
        capabilities: Vec<String>,
        /// Worker sessions behind the listener; `0` from a pre-fleet
        /// server (read it as one).
        #[serde(default)]
        workers: usize,
    },
    /// Answer to [`RequestBody::Hello`]: the handshake was accepted and
    /// the connection is authenticated (when auth is configured).
    Welcome {
        /// Echoed request id.
        id: String,
        /// [`PROTOCOL_VERSION`] of the server.
        protocol: u32,
        /// Capability names of this server build.
        capabilities: Vec<String>,
    },
    /// Answer to [`RequestBody::Ping`].
    Pong {
        /// Echoed request id.
        id: String,
    },
    /// A [`RequestBody::Run`] was accepted and scheduled.
    Queued {
        /// Echoed request id.
        id: String,
    },
    /// Progress of a running request. `done`/`total` count simulation
    /// units (cache hits resolve instantly); `total` grows as later
    /// exploration phases are scheduled.
    Running {
        /// Echoed request id.
        id: String,
        /// Units resolved so far.
        done: usize,
        /// Units scheduled so far.
        total: usize,
    },
    /// One completed cell of a running `sweep` request: the platform
    /// family streams in as it is explored, without waiting for the
    /// aggregated [`Event::Result`]. Cells arrive in deterministic
    /// `apps × scenarios × presets` order; `done`/`total` count cells.
    Cell {
        /// Echoed request id.
        id: String,
        /// Cells completed so far (this one included).
        done: usize,
        /// Total cells of the sweep.
        total: usize,
        /// Application of the completed cell.
        app: AppKind,
        /// Scenario of the completed cell.
        scenario: Scenario,
        /// Platform (memory preset) of the completed cell.
        mem: MemoryPreset,
        /// The cell's Pareto-front combination labels, in order.
        front: Vec<String>,
    },
    /// Terminal success of a request. `executed`/`cache_hits` are this
    /// request's exact engine counters; `result` is deterministic — byte
    /// -identical for equal requests at any jobs count and interleaving.
    Result {
        /// Echoed request id.
        id: String,
        /// Simulations this request actually executed (0 on a warm
        /// cache).
        executed: usize,
        /// Simulations answered from the session's shared cache.
        cache_hits: usize,
        /// The typed exploration answer (boxed: it dwarfs every other
        /// event).
        result: Box<ExploreResult>,
    },
    /// Answer to [`RequestBody::Stats`].
    Stats {
        /// Echoed request id.
        id: String,
        /// Counters of the session's shared cache.
        stats: CacheStats,
        /// Concurrent-simulation budget of the session.
        jobs: usize,
        /// Full metrics snapshot of the server process: request latency
        /// histograms, cache counters, in-flight gauge (see
        /// `docs/OBSERVABILITY.md`). Defaults to empty when talking to a
        /// pre-metrics server. (Boxed: it dwarfs the other fields.)
        #[serde(default)]
        metrics: Box<MetricsSnapshot>,
    },
    /// Answer to [`RequestBody::Metrics`]: the process metrics rendered
    /// in the Prometheus text exposition format.
    Metrics {
        /// Echoed request id.
        id: String,
        /// Prometheus-style exposition text (`ddtr_*` families).
        text: String,
    },
    /// Terminal reply of a cancelled request.
    Cancelled {
        /// Echoed request id.
        id: String,
    },
    /// A request failed (or a line could not be parsed — then `id` is
    /// null and the connection stays usable).
    Error {
        /// Echoed request id; null for unparseable lines.
        id: Option<String>,
        /// Human-readable description.
        error: String,
        /// Stable machine-readable classification; absent from pre-
        /// `codes` servers.
        #[serde(default)]
        code: Option<ErrorCode>,
    },
    /// Last line before the server closes the connection.
    Bye,
}

impl Event {
    /// The request id the event concerns, if any.
    #[must_use]
    pub fn id(&self) -> Option<&str> {
        match self {
            Event::Hello { .. } | Event::Bye => None,
            Event::Pong { id }
            | Event::Welcome { id, .. }
            | Event::Queued { id }
            | Event::Running { id, .. }
            | Event::Cell { id, .. }
            | Event::Result { id, .. }
            | Event::Stats { id, .. }
            | Event::Metrics { id, .. }
            | Event::Cancelled { id } => Some(id),
            Event::Error { id, .. } => id.as_deref(),
        }
    }

    /// Whether this event is the last one about its request: `Result`,
    /// `Cancelled` or `Error`, or the single reply to a `Hello`, `Ping`,
    /// `Stats` or `Metrics` request (`Welcome`, `Pong`, `Stats`,
    /// `Metrics`).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Result { .. }
                | Event::Cancelled { .. }
                | Event::Error { .. }
                | Event::Pong { .. }
                | Event::Welcome { .. }
                | Event::Stats { .. }
                | Event::Metrics { .. }
        )
    }

    /// The machine-readable code when this is an [`Event::Error`].
    #[must_use]
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Event::Error { code, .. } => *code,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request::new("a", RequestBody::Ping),
            Request::new("b", RequestBody::Stats),
            Request::run("c", JobSpec::preset("explore", Some("drr"))),
            Request::new("d", RequestBody::Cancel { target: "c".into() }),
            Request::new("e", RequestBody::Shutdown),
        ];
        for request in requests {
            let json = serde_json::to_string(&request).expect("ser");
            let back: Request = serde_json::from_str(&json).expect("de");
            assert_eq!(back.id, request.id);
            assert_eq!(serde_json::to_string(&back).expect("ser"), json, "lossless");
        }
    }

    #[test]
    fn events_round_trip_and_classify() {
        let events = vec![
            Event::Hello {
                protocol: PROTOCOL_VERSION,
                server: "test".into(),
                jobs: 2,
                capabilities: SERVER_CAPABILITIES.iter().map(|s| s.to_string()).collect(),
                workers: 4,
            },
            Event::Welcome {
                id: "h".into(),
                protocol: PROTOCOL_VERSION,
                capabilities: vec!["fleet".into()],
            },
            Event::Queued { id: "r".into() },
            Event::Running {
                id: "r".into(),
                done: 3,
                total: 10,
            },
            Event::Cell {
                id: "r".into(),
                done: 1,
                total: 4,
                app: AppKind::Drr,
                scenario: Scenario::Baseline,
                mem: MemoryPreset::Deep,
                front: vec!["AR+SLL(AR)".into()],
            },
            Event::Cancelled { id: "r".into() },
            Event::Error {
                id: None,
                error: "bad line".into(),
                code: Some(ErrorCode::Parse),
            },
            Event::Bye,
        ];
        for event in events {
            let json = serde_json::to_string(&event).expect("ser");
            let back: Event = serde_json::from_str(&json).expect("de");
            assert_eq!(back.id(), event.id());
            assert_eq!(back.is_terminal(), event.is_terminal());
            assert_eq!(back.error_code(), event.error_code());
        }
        assert!(!Event::Queued { id: "r".into() }.is_terminal());
        assert!(Event::Cancelled { id: "r".into() }.is_terminal());
    }

    #[test]
    fn v1_peers_survive_the_fleet_additions() {
        // A v1 server's greeting and error lines carry none of the
        // post-v1 fields; they must still deserialize.
        let hello: Event =
            serde_json::from_str(r#"{"Hello":{"protocol":1,"server":"old","jobs":2}}"#)
                .expect("v1 Hello");
        let Event::Hello {
            capabilities,
            workers,
            ..
        } = hello
        else {
            panic!("wrong event");
        };
        assert!(capabilities.is_empty());
        assert_eq!(workers, 0);
        let error: Event =
            serde_json::from_str(r#"{"Error":{"id":null,"error":"boom"}}"#).expect("v1 Error");
        assert_eq!(error.error_code(), None);
        // A minimal client handshake needs only the version.
        let req: Request =
            serde_json::from_str(r#"{"id":"h","body":{"Hello":{"proto_version":1}}}"#)
                .expect("minimal Hello");
        let RequestBody::Hello {
            proto_version,
            auth,
            capabilities,
        } = req.body
        else {
            panic!("wrong body");
        };
        assert_eq!(proto_version, PROTOCOL_VERSION);
        assert_eq!(auth, None);
        assert!(capabilities.is_empty());
        // Codes round-trip as bare variant-name strings.
        let json = serde_json::to_string(&ErrorCode::RateLimited).expect("ser");
        assert_eq!(json, r#""RateLimited""#);
        let back: ErrorCode = serde_json::from_str(&json).expect("de");
        assert_eq!(back, ErrorCode::RateLimited);
        assert_eq!(back.as_str(), "RateLimited");
    }

    #[test]
    fn preset_specs_resolve_like_the_cli() {
        let spec = JobSpec {
            quick: true,
            extended: true,
            ..JobSpec::preset("explore", Some("drr"))
        };
        let request = spec.resolve().expect("resolves");
        let ExploreRequest::Explore(cfg) = &request else {
            panic!("wrong mode {}", request.mode());
        };
        assert_eq!(cfg.candidates.len(), 12, "--extended");
        assert_eq!(cfg.networks.len(), 2, "--quick");
    }

    #[test]
    fn inline_v1_configs_with_a_streaming_field_still_decode() {
        // Configs written while `streaming` was a field still carry it; it
        // is ignored on decode.
        for request in [
            ExploreRequest::Explore(MethodologyConfig::quick(AppKind::Drr)),
            ExploreRequest::Ga(GaConfig::quick(AppKind::Url)),
        ] {
            // `{"Explore":{…}}` → `{"Explore":{"streaming":true,…}}`.
            let config = serde_json::to_string(&request).expect("ser").replacen(
                ":{",
                r#":{"streaming":true,"#,
                1,
            );
            assert!(config.contains(r#"{"streaming":true,"app""#), "{config}");
            let line = format!(r#"{{"id":"v1","body":{{"Run":{{"inline":{config}}}}}}}"#);
            let back: Request = serde_json::from_str(&line).expect("v1 inline decodes");
            let RequestBody::Run(spec) = back.body else {
                panic!("wrong body");
            };
            let resolved = spec.resolve().expect("resolves");
            assert_eq!(
                serde_json::to_string(&resolved).expect("ser"),
                serde_json::to_string(&request).expect("ser"),
            );
        }
    }

    #[test]
    fn stall_reaches_the_ga_and_no_other_mode() {
        let spec = JobSpec {
            quick: true,
            stall: Some(2),
            ..JobSpec::preset("ga", Some("drr"))
        };
        let request = spec.resolve().expect("resolves");
        let ExploreRequest::Ga(cfg) = &request else {
            panic!("wrong mode {}", request.mode());
        };
        assert_eq!(cfg.stall_generations, Some(2));
        for mode in ["explore", "headline", "scenarios", "sweep"] {
            let err = JobSpec {
                stall: Some(2),
                ..JobSpec::preset(mode, Some("drr"))
            }
            .resolve()
            .unwrap_err();
            assert_eq!(
                err,
                ResolveError::FlagNotApplicable {
                    flag: "stall".into(),
                    mode: mode.into()
                }
            );
        }
        // A `Run` line from before `stall` existed still decodes.
        let line = r#"{"id":"g","body":{"Run":{"mode":"ga","app":"drr","quick":true,"seed":7}}}"#;
        let back: Request = serde_json::from_str(line).expect("decodes without `stall`");
        let RequestBody::Run(spec) = back.body else {
            panic!("wrong body");
        };
        assert_eq!(spec.stall, None);
        assert_eq!(spec.resolve().expect("resolves").mode(), "ga");
    }

    #[test]
    fn scenario_specs_resolve_names() {
        let spec = JobSpec {
            quick: true,
            scenarios: Some(vec!["flash-crowd".into(), "ddos-syn".into()]),
            packets: Some(64),
            base: Some("NLANR-AIX".into()),
            ..JobSpec::preset("scenarios", Some("url"))
        };
        let request = spec.resolve().expect("resolves");
        let ExploreRequest::Scenarios(cfg) = &request else {
            panic!("wrong mode {}", request.mode());
        };
        assert_eq!(cfg.scenarios, vec![Scenario::FlashCrowd, Scenario::DdosSyn]);
        assert_eq!(cfg.packets_per_sim, 64);
        assert_eq!(cfg.apps, vec![AppKind::Url]);
    }

    #[test]
    fn sweep_specs_resolve_the_platform_axis() {
        let spec = JobSpec {
            quick: true,
            mem: Some(vec!["embedded".into(), "deep".into(), "spm".into()]),
            scenarios: Some(vec!["baseline".into(), "ddos-syn".into()]),
            packets: Some(40),
            ..JobSpec::preset("sweep", Some("url"))
        };
        let request = spec.resolve().expect("resolves");
        let ExploreRequest::Sweep(cfg) = &request else {
            panic!("wrong mode {}", request.mode());
        };
        assert_eq!(
            cfg.mem_presets,
            vec![
                MemoryPreset::Embedded,
                MemoryPreset::Deep,
                MemoryPreset::Spm
            ]
        );
        assert_eq!(cfg.scenarios, vec![Scenario::Baseline, Scenario::DdosSyn]);
        assert_eq!(cfg.apps, vec![AppKind::Url]);
        assert_eq!(cfg.packets_per_sim, 40);
        // Without `mem`, the paper-sized sweep covers the whole catalog.
        let full = JobSpec::preset("sweep", None).resolve().expect("resolves");
        let ExploreRequest::Sweep(cfg) = &full else {
            panic!("wrong mode");
        };
        assert_eq!(cfg.mem_presets, MemoryPreset::ALL.to_vec());
    }

    #[test]
    fn single_platform_modes_accept_one_mem_preset() {
        let spec = JobSpec {
            quick: true,
            mem: Some(vec!["l2".into()]),
            ..JobSpec::preset("explore", Some("drr"))
        };
        let request = spec.resolve().expect("resolves");
        let ExploreRequest::Explore(cfg) = &request else {
            panic!("wrong mode {}", request.mode());
        };
        assert!(cfg.mem.l2.is_some(), "--mem l2 reaches the platform config");
        // More than one preset only makes sense for a sweep.
        let err = JobSpec {
            quick: true,
            mem: Some(vec!["l2".into(), "deep".into()]),
            ..JobSpec::preset("explore", Some("drr"))
        }
        .resolve()
        .unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
    }

    #[test]
    fn unknown_mem_presets_are_rejected_listing_the_catalog() {
        for mode in ["explore", "sweep"] {
            let err = JobSpec {
                quick: true,
                mem: Some(vec!["quantum".into()]),
                ..JobSpec::preset(mode, Some("drr"))
            }
            .resolve()
            .unwrap_err()
            .to_string();
            assert!(err.contains("quantum"), "{mode}: {err}");
            for preset in MemoryPreset::ALL {
                assert!(err.contains(preset.name()), "{mode}: {err} misses {preset}");
            }
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let missing = JobSpec::default().resolve().unwrap_err();
        assert_eq!(missing, ResolveError::MissingMode);
        assert!(missing.to_string().contains("mode"), "{missing}");
        let unknown = JobSpec::preset("frobnicate", None).resolve().unwrap_err();
        assert_eq!(unknown, ResolveError::UnknownMode("frobnicate".into()));
        assert!(unknown.to_string().contains("frobnicate"), "{unknown}");
        let no_app = JobSpec::preset("explore", None).resolve().unwrap_err();
        assert!(no_app.to_string().contains("requires `app`"), "{no_app}");
        let bad_app = JobSpec::preset("ga", Some("nfs")).resolve().unwrap_err();
        assert!(matches!(bad_app, ResolveError::UnknownName(_)), "{bad_app}");
        assert!(bad_app.to_string().contains("nfs"), "{bad_app}");
        let stray = JobSpec {
            seed: Some(7),
            ..JobSpec::preset("explore", Some("drr"))
        }
        .resolve()
        .unwrap_err();
        assert!(stray.to_string().contains("seed"), "{stray}");
        let both = JobSpec {
            mode: Some("explore".into()),
            ..JobSpec::inline(ExploreRequest::Explore(MethodologyConfig::quick(
                AppKind::Drr,
            )))
        }
        .resolve()
        .unwrap_err();
        assert_eq!(both, ResolveError::InlineWithPreset);
        assert!(both.to_string().contains("preset"), "{both}");
    }

    #[test]
    fn inline_specs_round_trip_and_resolve() {
        let request = ExploreRequest::Ga(GaConfig::quick(AppKind::Nat));
        let spec = JobSpec::inline(request);
        let json = serde_json::to_string(&Request::run("q", spec)).expect("ser");
        let back: Request = serde_json::from_str(&json).expect("de");
        let RequestBody::Run(spec) = back.body else {
            panic!("wrong body");
        };
        let resolved = spec.resolve().expect("resolves");
        assert_eq!(resolved.mode(), "ga");
    }
}
