//! A concurrent floorplanning service over the DAC'90 pipeline.
//!
//! The paper's floorplanner is a batch algorithm: one netlist in, one
//! placement out. This crate wraps the whole pipeline (successive
//! augmentation → improvement → global routing) in a service shape so many
//! instances can be solved concurrently with bounded resources:
//!
//! * **Typed jobs** ([`JobRequest`] / [`JobResponse`]) with a line-delimited
//!   flat-JSON codec ([`protocol`]) reusing `fp_obs`'s hand-rolled trace
//!   parser — no external JSON dependency.
//! * **A bounded MPMC queue** ([`queue::Bounded`]) feeding a worker pool
//!   ([`Engine`]); each worker runs the full pipeline per job. The queue
//!   pins a close/drain ordering guarantee (no job accepted after close,
//!   every accepted job delivered) that clean shutdown is built on.
//! * **Single-flight coalescing** ([`singleflight::Inflight`]): N
//!   concurrent identical jobs share one solve, fanned out to N waiters,
//!   with the same canonical-text collision check as the cache.
//! * **Admission control**: bounded per-shard and global queue depth;
//!   overload answers a typed `retry_after_ms` load-shed response
//!   ([`JobResponse::is_shed`]) instead of silently queueing latency.
//! * **Per-job deadlines** measured from submission (queue wait counts
//!   against the budget) with *graceful degradation*: a job that exceeds its
//!   budget returns the greedy bottom-left skyline placement flagged
//!   `degraded: true` instead of an error.
//! * **A fingerprint solution cache** ([`cache::SolutionCache`]): instances
//!   are keyed by an FNV-1a hash over canonical (sorted) module/net data
//!   plus the solve parameters ([`fingerprint`]), with hit/miss counters
//!   surfaced as [`fp_obs::Event::CacheHit`] / [`fp_obs::Event::CacheMiss`]
//!   trace events.
//! * **A sharded event-loop TCP front end** ([`Server`]): nonblocking
//!   sockets, one poll(2) thread per shard owning its connections' buffers
//!   and framing (unix; other targets fall back to a thread per
//!   connection). Plus an in-process [`Client`] for embedding and benches.
//!
//! # Example
//!
//! ```
//! use fp_serve::{Engine, JobRequest, ServeConfig};
//!
//! let engine = Engine::start(ServeConfig::default().with_workers(2));
//! let client = engine.client();
//! let netlist = fp_netlist::generator::ProblemGenerator::new(4, 7).generate();
//! let resp = client.call(JobRequest::new(1, &netlist));
//! assert!(resp.ok, "{:?}", resp.error);
//! assert!(!resp.placement.is_empty());
//! engine.shutdown();
//! ```

// `deny` rather than `forbid`: the `sys` module lifts it for exactly one
// poll(2) FFI call (see its module docs); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod delta;
mod engine;
pub mod fingerprint;
mod portfolio;
pub mod protocol;
pub mod queue;
mod server;
#[cfg(unix)]
mod shard;
pub mod singleflight;
#[cfg(unix)]
mod sys;

pub use delta::{apply as apply_delta, parse_ops as parse_delta_ops, DeltaOp, DeltaOutcome};
pub use engine::{Client, Engine, EngineStats, ServeConfig};
pub use portfolio::{race, Backend, RaceOutcome};
pub use protocol::{JobRequest, JobResponse, PlacedRect};
pub use server::{ServeAccounting, Server, ShutdownReport};
