//! # adhls-explore — parallel Pareto design-space exploration
//!
//! The paper's §VII evaluation sweeps 15 hand-picked IDCT design points
//! serially; this crate generalizes that driver into an exploration
//! *engine* in the spirit of automated space/time scaling search:
//!
//! * [`sweep`] — grid generators that expand a workload over
//!   clock × latency-budget × pipelining axes into [`DsePoint`] fleets,
//! * [`pool`] — the evaluator: worker threads fanning HLS runs across
//!   cores, a memoizing result cache keyed by (design fingerprint,
//!   options fingerprint) so repeated points are free, and a byte-bounded
//!   prefix cache sharing each design's elaboration; one-shot runs and the
//!   server's concurrent submitters use the same pool,
//! * [`cache`] — the one evicting cache behind both of the pool's caches
//!   and the server's memos: sharded, byte-budgeted, GreedyDual-Size
//!   eviction, verified hits and in-flight coalescing,
//! * [`pareto`] — Pareto-front extraction through pluggable
//!   [`ObjectiveSpace`]s (ordered selections of the area / latency /
//!   power / throughput axes) with dominance pruning and deterministic
//!   ordering regardless of thread interleaving,
//! * [`constraint`] — objective bounds (`area<=1500`, `power<=40`) that
//!   slice every extraction and refinement down to the feasible region,
//! * [`export`] — JSON/CSV renderers for sweeps and fronts,
//! * [`fingerprint`] — stable structural hashing of designs and options,
//! * [`refine`](mod@refine) — adaptive Pareto-front refinement with warm
//!   starts,
//! * [`server`] — the `adhls serve` daemon: a line-delimited JSON protocol
//!   multiplexing sweep/refine requests onto one pool, with cache
//!   eviction for long-lived processes.
//!
//! The evaluator's contract: **parallel evaluation returns bit-identical rows
//! to serial evaluation, in input order.** Each point's result depends only
//! on that point, the library, and the options, so worker interleaving
//! cannot change any value; ordering is restored from the input index.
//!
//! # Example
//!
//! ```
//! use adhls_core::sched::HlsOptions;
//! use adhls_explore::prelude::*;
//! use adhls_reslib::tsmc90;
//! use adhls_workloads::interpolation;
//!
//! let lib = tsmc90::library();
//! let points = SweepGrid::new()
//!     .clocks_ps([1100, 1400])
//!     .cycles([3, 4])
//!     .expand("interp", |cell| {
//!         let cfg = interpolation::InterpolationConfig {
//!             cycles: cell.cycles,
//!             ..Default::default()
//!         };
//!         interpolation::build(&cfg).0
//!     })
//!     .unwrap();
//! let pool = EvaluatorPool::with_options(&lib, HlsOptions::default(), PoolOptions::default());
//! let sweep = pool.evaluate(&points).unwrap();
//! let front = pareto_front(&sweep.rows);
//! assert!(!front.is_empty());
//! assert_eq!(sweep.rows, pool.evaluate_serial(&points).unwrap().rows);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod constraint;
pub mod export;
pub mod fingerprint;
pub mod pareto;
pub mod pool;
pub mod refine;
pub mod server;
pub mod sweep;

pub use cache::CacheStats;
pub use constraint::{Constraint, ConstraintOp};
pub use pareto::{
    dominates, objectives, pareto_front, pareto_front_in, pareto_front_in_constrained,
    pareto_indices, pareto_indices_in, pareto_indices_in_constrained, staircase_indices,
    staircase_indices_in, staircase_indices_in_constrained, tradeoff_staircase,
    tradeoff_staircase_in, tradeoff_staircase_in_constrained, Objective, ObjectiveSpace,
    Objectives, Sense,
};
pub use pool::{Engine, EngineOptions, EvaluatorPool, PoolOptions, SweepResult};
pub use refine::CancelToken;
pub use refine::{
    refine, refine_multi, refine_multi_with_progress, warm_start_cells, MultiRefineResult,
    MultiRoundTrace, RefineOptions, RefineResult, RoundTrace, WarmStart,
};
pub use server::{Router, RouterOptions, Server};
pub use sweep::{SweepCell, SweepGrid};

// Re-exported so downstream code can name the point/row types without a
// direct adhls-core dependency.
pub use adhls_core::dse::{DsePoint, DseRow};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::cache::CacheStats;
    pub use crate::constraint::{Constraint, ConstraintOp};
    pub use crate::export::{
        front_to_json, front_to_json_constrained, front_to_json_in, fronts_to_json_multi,
        refine_multi_to_json, refine_to_json, rows_to_csv, rows_to_json,
    };
    pub use crate::pareto::{
        dominates, objectives, pareto_front, pareto_front_in, pareto_front_in_constrained,
        tradeoff_staircase, tradeoff_staircase_in, tradeoff_staircase_in_constrained, Objective,
        ObjectiveSpace, Objectives, Sense,
    };
    pub use crate::pool::{Engine, EngineOptions, EvaluatorPool, PoolOptions, SweepResult};
    pub use crate::refine::CancelToken;
    pub use crate::refine::{
        refine, refine_multi, refine_multi_with_progress, warm_start_cells, MultiRefineResult,
        MultiRoundTrace, RefineOptions, RefineResult, RoundTrace, WarmStart,
    };
    pub use crate::server::{Router, RouterOptions, Server, WorkloadSpec};
    pub use crate::sweep::{SweepCell, SweepGrid};
    pub use adhls_core::dse::{DsePoint, DseRow};
}
