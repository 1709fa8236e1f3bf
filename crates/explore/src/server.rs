//! `adhls serve` — a long-lived exploration daemon over one shared
//! [`EvaluatorPool`](crate::pool::EvaluatorPool).
//!
//! The paper's exhaustive clock/latency tradeoff sweeps only pay off at
//! scale when one process can serve many exploration requests against a
//! shared cache. This module tree is that process:
//!
//! * [`protocol`] — the line-delimited JSON wire format: `sweep`,
//!   `refine`, `stats`, `metrics`, `ping`, `shutdown` requests; streamed `round`
//!   progress events; terminal `result` messages whose row arrays are
//!   byte-compatible with the file exporters,
//! * [`session`] — request dispatch onto the pool,
//! * `transport` — the one connection loop both front-ends share: capped
//!   request lines, the TCP accept loop (one thread per connection,
//!   Nagle off, buffered responses) and the Prometheus scrape listener,
//! * [`eviction`] — cache lifecycle for long-lived processes: rows and
//!   deterministic failures share a byte budget, evicted per shard by
//!   GreedyDual-Size (what is cheapest to recompute per byte goes first;
//!   LRU among equal costs), plus in-flight coalescing so concurrent
//!   requests for the same cell run HLS once,
//! * [`memo`] — per-process memos of what a spec expands to: a worker's
//!   sweep points with their fingerprints and refine cell designs, the
//!   router's routing keys — each an instance of the eviction cache under
//!   a fixed byte budget,
//! * [`worker`] — worker backends for multi-worker serving: the
//!   [`WorkerLink`] transport trait with in-process (pipe + thread) and
//!   child-process (TCP) implementations, and the [`WorkerHandle`] that
//!   opens data links to a worker on demand,
//! * [`router`] — the multi-worker front-end: consistent-hash routing of
//!   requests across workers (so each worker's cache shard stays warm),
//!   a pool of data links per worker so concurrent requests to one worker
//!   run side by side, fault recovery by respawn/reassignment, `cancel`
//!   forwarding, queue-cap backpressure, and cross-worker
//!   `stats`/`metrics` aggregation.
//!
//! Determinism carries through from the pool: a request's rows and front
//! are bit-identical to a direct
//! [`EvaluatorPool::evaluate_serial`](crate::pool::EvaluatorPool::evaluate_serial)
//! of the same points, no matter how many clients are connected, how
//! the cache evicts, or which worker evaluated what.
//!
//! See `docs/PROTOCOL.md` for the wire format and `docs/ARCHITECTURE.md`
//! for the request lifecycle.

pub mod eviction;
pub mod memo;
pub mod protocol;
pub mod router;
pub mod session;
mod transport;
pub mod worker;

pub use eviction::{CacheStats, EvictingCache, Outcome};
pub use protocol::{Command, WorkloadSpec};
pub use router::{Router, RouterOptions};
pub use session::{
    refine_spaces, routing_fingerprint, sweep_points, sweep_spaces, validate_spec_constraints,
    workload_grid, BuildFn, Server,
};
pub use worker::{
    in_process_factory, spawn_process_worker, LinkConnector, WorkerFactory, WorkerGuard,
    WorkerHandle, WorkerLink,
};
