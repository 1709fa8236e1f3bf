//! # adhls-core — slack-based scheduling and binding for HLS
//!
//! The scheduling framework of Kondratyev et al. (DATE 2012), §VI Fig. 8,
//! on top of the timing analysis in `adhls-timing`:
//!
//! * [`alloc`] — resource instances and class-level allocation limits (the
//!   "create a set of initial resources" step, grown by relaxation),
//! * [`sched`] — the `Schedule_pass` list scheduler over topologically
//!   sorted CFG edges, with three flows:
//!   [`sched::Flow::Conventional`] (fastest grades + post-hoc single-state
//!   area recovery — paper §II Case 1), [`sched::Flow::SlowestUpgrade`]
//!   (slowest grades upgraded on the fly — Case 2), and
//!   [`sched::Flow::SlackBased`] (the paper's contribution: budget first,
//!   re-budget after every scheduled edge),
//! * [`schedule`] — the schedule data structure and an independent validity
//!   checker (dependences, spans, chaining, clock fit, resource conflicts),
//! * [`bind`] — register lifetime analysis/left-edge allocation and
//!   steering-mux accounting,
//! * [`area`] — the structural area model and continuous area recovery,
//! * [`power`] — a simple switched-area dynamic power model,
//! * [`prepare`] — staged, reusable phase artifacts ([`PreparedDesign`],
//!   [`ClockContext`]) so exploration evaluates neighboring design points
//!   incrementally yet bit-identically,
//! * [`netlist`] — Verilog-flavored datapath/FSM emission,
//! * [`dse`] — the design-space-exploration driver regenerating paper
//!   Table 4,
//! * [`json`] — a minimal JSON value/parser/renderer for the exploration
//!   server's line-delimited protocol and warm-start front imports (the
//!   workspace vendors no serde).
//!
//! # Example
//!
//! ```
//! use adhls_ir::builder::DesignBuilder;
//! use adhls_ir::op::OpKind;
//! use adhls_core::{run_hls, HlsOptions, sched::Flow};
//! use adhls_reslib::tsmc90;
//!
//! let mut b = DesignBuilder::new("dotp");
//! let x = b.input("x", 8);
//! let y = b.input("y", 8);
//! let m = b.binop(OpKind::Mul, x, y, 8);
//! b.soft_waits(1);
//! let m2 = b.binop(OpKind::Mul, m, m, 8);
//! b.write("z", m2);
//! let design = b.finish().unwrap();
//!
//! let lib = tsmc90::library();
//! let opts = HlsOptions { clock_ps: 1100, flow: Flow::SlackBased, ..Default::default() };
//! let result = run_hls(&design, &lib, &opts).unwrap();
//! assert!(result.area.total > 0.0);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod area;
pub mod bind;
pub mod dse;
pub mod json;
pub mod netlist;
pub mod power;
pub mod prepare;
pub mod report;
pub mod sched;
pub mod schedule;

pub use area::AreaReport;
pub use prepare::{ClockContext, PreparedDesign};
pub use sched::{run_hls, run_hls_prepared, Flow, HlsOptions, HlsResult};
pub use schedule::Schedule;
