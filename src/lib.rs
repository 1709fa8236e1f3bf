//! # adhls — area/delay-tradeoff-aware high-level synthesis
//!
//! A from-scratch reproduction of **Kondratyev, Lavagno, Meyer, Watanabe,
//! "Exploiting area/delay tradeoffs in high-level synthesis", DATE 2012**
//! (DOI 10.1109/DATE.2012.6176646): multi-cycle behavioral timing analysis
//! (sequential/aligned slack on a timed DFG), slack budgeting over library
//! speed grades, and a slack-based scheduling/binding framework, together
//! with every substrate the paper's evaluation needs.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`ir`] — CFG/DFG representation, spans, frontend DSL, interpreter
//!   ([`adhls_ir`]).
//! * [`reslib`] — the speed-grade resource library, with the paper's
//!   Table 1 TSMC-90nm data ([`adhls_reslib`]).
//! * [`timing`] — timed DFG, sequential/aligned slack, budgeting,
//!   Bellman-Ford baseline ([`adhls_timing`]).
//! * [`core`] — scheduling flows, binding, area/power models, netlist,
//!   design-space exploration ([`adhls_core`]).
//! * [`workloads`] — interpolation, resizer, IDCT, FIR, matmul, random
//!   fleets, and per-workload sweep constructors ([`adhls_workloads`]).
//! * [`explore`] — the parallel Pareto design-space exploration engine:
//!   sweep grids, work-stealing evaluation with a memo cache, a
//!   persistent evaluator pool, pluggable objective spaces
//!   (area/latency/power/throughput tradeoff planes), adaptive
//!   refinement with warm starts, dominance pruning, JSON/CSV export,
//!   and the `adhls serve` daemon (line-delimited JSON protocol,
//!   budgeted cache eviction) ([`adhls_explore`]).
//!
//! # Quickstart
//!
//! ```
//! use adhls::prelude::*;
//!
//! // The paper's motivating example: 7 muls + 4 adds in 3 cycles.
//! let (design, _ops) = adhls::workloads::interpolation::paper_example();
//! let lib = adhls::reslib::tsmc90::library();
//! let opts = HlsOptions { clock_ps: 1100, flow: Flow::SlackBased, ..Default::default() };
//! let result = run_hls(&design, &lib, &opts).expect("schedulable");
//! assert!(result.area.total > 0.0);
//! ```

pub use adhls_core as core;
pub use adhls_explore as explore;
pub use adhls_ir as ir;
pub use adhls_reslib as reslib;
pub use adhls_timing as timing;
pub use adhls_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use adhls_core::dse::{DsePoint, DseRow};
    pub use adhls_core::sched::{run_hls, Flow, HlsOptions, HlsResult};
    pub use adhls_core::{AreaReport, Schedule};
    pub use adhls_explore::{
        pareto_front, pareto_front_in, Engine, EngineOptions, EvaluatorPool, Objective,
        ObjectiveSpace, PoolOptions, SweepGrid,
    };
    pub use adhls_ir::builder::DesignBuilder;
    pub use adhls_ir::interp::{run, run_placed, Stimulus};
    pub use adhls_ir::{Design, OpKind};
    pub use adhls_reslib::{tsmc90, Library, ResClass};
    pub use adhls_timing::{budget, compute_slack, SlackMode, TimedDfg};
}
