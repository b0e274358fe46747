//! `ddtr_serve` — the long-running exploration service.
//!
//! The paper's flow is explore-once: run the methodology, read the Pareto
//! fronts, done. At production scale the economics invert — many clients
//! ask many overlapping exploration questions, and the expensive part
//! (the simulation sweep) is exactly what the engine's content-addressed
//! cache amortizes. This crate turns the workspace into a resident
//! service around that cache:
//!
//! * [`protocol`] — the newline-delimited JSON wire format: [`Request`]
//!   lines in (`Hello`/`Ping`/`Stats`/`Run`/`Cancel`/`Shutdown`),
//!   [`Event`] lines out (`Hello`/`Welcome`, `Queued`, `Running`
//!   progress, `Result`/`Cancelled`/`Error` — errors carrying a stable
//!   [`protocol::ErrorCode`] — and `Bye`), with exploration work named
//!   either by app/mode preset or as a full inline configuration
//!   ([`JobSpec`]).
//! * [`Server`] — serves stdin/stdout, TCP, or Unix-socket connections
//!   (`ddtr serve --listen …`) on a fleet of worker
//!   [`ddtr_engine::EngineSession`]s sharing one on-disk store: every
//!   `Run` routes deterministically to a worker by content fingerprint
//!   ([`route_worker`]) and gets its own engine bound to that worker's
//!   result cache and FIFO `--jobs` pool, so a million-packet job cannot
//!   starve a small query, repeated requests answer from the same warm
//!   cache with zero simulations, and results are byte-identical to the
//!   CLI's regardless of fleet size or request interleaving. The edge is
//!   hardened ([`ServerConfig`]): optional auth at `Hello`, bounded
//!   connection slots, per-connection rate and in-flight limits, and a
//!   request-size ceiling — every violation a structured coded error.
//! * [`Client`] — the blocking client behind `ddtr query` and the
//!   integration tests, with [`ClientBuilder`] layering connect retries
//!   and the versioned handshake with auth on top.
//! * [`loadtest`] — the concurrent load harness behind `ddtr loadtest`.
//!
//! See `docs/PROTOCOL.md` for the full wire schema with a worked
//! transcript and `docs/ARCHITECTURE.md` for where the service sits in
//! the workspace.
//!
//! # Example
//!
//! ```
//! use ddtr_serve::{Client, Event, JobSpec, Request, RequestBody, Server};
//! use ddtr_engine::EngineConfig;
//! use std::net::TcpListener;
//!
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! let endpoint = ddtr_serve::Endpoint::Tcp(listener.local_addr()?.to_string());
//! let server = Server::new(EngineConfig::with_jobs(2)).expect("server");
//! std::thread::scope(|scope| -> std::io::Result<()> {
//!     let server = &server;
//!     scope.spawn(move || server.serve_tcp(&listener));
//!     let mut client = Client::connect(&endpoint)?;
//!     let spec = JobSpec {
//!         quick: true,
//!         ..JobSpec::preset("explore", Some("drr"))
//!     };
//!     let reply = client.call(&Request::run("q1", spec), |_| {})?;
//!     assert!(matches!(reply, Event::Result { .. }));
//!     client.send(&Request::new("bye", RequestBody::Shutdown))?;
//!     Ok(())
//! })?;
//! # Ok::<(), std::io::Error>(())
//! ```

mod client;
mod endpoint;
mod fleet;
mod limits;
pub mod loadtest;
pub mod protocol;
mod server;

pub use client::{Client, ClientBuilder, ClientError};
pub use endpoint::{Endpoint, EndpointErrorKind, EndpointParseError};
pub use fleet::{route_worker, ServerConfig};
pub use protocol::{
    ErrorCode, Event, JobSpec, Request, RequestBody, ResolveError, PROTOCOL_VERSION,
};
pub use server::{write_pidfile, ServeError, Server};
