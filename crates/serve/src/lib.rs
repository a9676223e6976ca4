//! A long-running analysis service for nAdroid-rs.
//!
//! Analyzing an app is expensive (points-to fixpoint, filter pipeline,
//! provenance derivation) but **deterministic**: the same program under
//! the same configuration always yields the byte-identical warning set
//! — the determinism regression suite pins this. That makes results
//! perfectly cacheable, and this crate turns the batch pipeline into a
//! daemon exploiting it:
//!
//! - [`server::Server`] — a TCP daemon speaking newline-delimited JSON
//!   ([`protocol`], schema `nadroid-serve/1`) over `std::net`.
//! - A bounded worker [`pool`] with **admission control**: a full queue
//!   answers `rejected` + `retry_after_ms` instead of buffering without
//!   bound.
//! - A content-addressed result [`cache`] keyed by
//!   `(program-hash, config-hash)` under an LRU byte budget; warm
//!   requests are a lookup, not a re-solve. An entry holds only what
//!   its requests needed: `analyze` the ids, `explain` also the
//!   provenance, `confirm` also the verdicts.
//! - **Per-request deadlines** riding the cooperative cancellation
//!   checkpoints in the solver loops (`nadroid_obs::cancel`); an
//!   expired deadline is a structured `deadline_exceeded` response and
//!   the worker survives.
//!
//! Everything reports through [`nadroid_obs`]: `serve.request` /
//! `serve.analyze` spans, `serve.*` counters, queue-depth / inflight /
//! cache-bytes gauges. The workspace stays dependency-free: encoding
//! reuses `nadroid_core::json`, transport is `std::net`.
//!
//! # Example
//!
//! ```
//! use nadroid_serve::client::Client;
//! use nadroid_serve::protocol::{AnalyzeOpts, Response};
//! use nadroid_serve::server::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let program = "app Demo\nactivity A {\n  field f: A\n  cb onCreate { f = new A }\n}\n";
//! let cold = client.analyze(program, AnalyzeOpts::default()).unwrap();
//! let warm = client.analyze(program, AnalyzeOpts::default()).unwrap();
//! match (cold, warm) {
//!     (Response::Analyze { cached: c1, .. }, Response::Analyze { cached: c2, .. }) => {
//!         assert!(!c1 && c2, "second request is served from the cache");
//!     }
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use cache::{CacheKey, CacheStats, CachedResult, ResultCache};
pub use client::Client;
pub use protocol::{AnalyzeOpts, Request, Response, SCHEMA};
pub use server::{ServeConfig, Server};
pub use telemetry::{Telemetry, TelemetryConfig};
