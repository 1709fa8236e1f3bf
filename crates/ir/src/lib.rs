//! # adhls-ir — behavioral intermediate representation for HLS
//!
//! This crate implements the program representation of Kondratyev et al.,
//! *Exploiting area/delay tradeoffs in high-level synthesis* (DATE 2012),
//! section IV:
//!
//! * a **control flow graph** ([`Cfg`]) whose nodes fork/join control or are
//!   *state nodes* (clock boundaries, `wait()` in the paper's SystemC input),
//! * a **data flow graph** ([`Dfg`]) whose vertices are operations and whose
//!   edges are data dependencies,
//! * the **birth mapping** from operations to CFG edges (where the operation
//!   sits in source order), and
//! * the **operation span** ([`span`]) — the set of CFG edges an operation
//!   may legally be scheduled on, generalizing ASAP/ALAP intervals to
//!   arbitrary control structures.
//!
//! On top of the raw graphs the crate provides:
//!
//! * [`builder`] — an ergonomic programmatic builder for designs,
//! * [`frontend`] — a small behavioral DSL (a SystemC-thread stand-in) with
//!   lexer, parser and elaborator,
//! * [`interp`] — a functional interpreter used to check that scheduling
//!   transformations preserve semantics.
//!
//! # Example
//!
//! ```
//! use adhls_ir::builder::DesignBuilder;
//! use adhls_ir::op::OpKind;
//!
//! // y = (a + b) * c, computed across two states.
//! let mut b = DesignBuilder::new("mac");
//! let a = b.input("a", 16);
//! let bb = b.input("b", 16);
//! let c = b.input("c", 16);
//! let sum = b.binop(OpKind::Add, a, bb, 16);
//! b.wait(); // clock boundary
//! let prod = b.binop(OpKind::Mul, sum, c, 16);
//! b.write("y", prod);
//! let design = b.finish().expect("valid design");
//! assert_eq!(design.dfg.len_ops(), 6); // 3 inputs, add, mul, write
//! ```

pub mod builder;
pub mod cfg;
pub mod design;
pub mod dfg;
pub mod error;
pub mod frontend;
pub mod interp;
pub mod op;
pub mod span;

pub use cfg::{Cfg, EdgeId, NodeId, NodeKind, StateKind};
pub use design::Design;
pub use dfg::{Dfg, OpId};
pub use error::{Error, Result};
pub use op::{Op, OpKind};
pub use span::{OpSpans, SpanInfo};

/// Bytes of the heap block `v` holds: its capacity, not its length.
#[must_use]
pub fn vec_heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}
