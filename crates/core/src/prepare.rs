//! Staged, reusable phase artifacts for incremental evaluation.
//!
//! Design-space exploration evaluates hundreds of neighboring grid cells
//! that differ by a single knob — a clock step, an initiation interval ±1 —
//! yet the HLS *prefix* (elaboration, span analysis, the initial ASAP/ALAP
//! bounds, the timed DFG skeleton) is a pure function of the design and the
//! library alone. [`PreparedDesign`] materializes that clock-independent
//! prefix once, immutably, so every run over the same design — both flows
//! of one cell, every relaxation restart, and every clock/II cell of the
//! same design — starts from shared artifacts instead of recomputing them.
//!
//! A second, clock-keyed stage rides on top: [`ClockContext`] caches the
//! first-restart budgeting result (grade choices, slack priorities — the
//! SDC-style "aligned delays and bounds" of a clock) per `(clock, flow)`,
//! shared across initiation-interval cells at the same clock.
//!
//! The contract throughout is **bit-identical results**: a run through
//! [`crate::sched::run_hls_prepared`] must produce exactly the bytes the
//! from-scratch [`crate::sched::run_hls`] produces. Artifacts are therefore
//! only ever (a) cached values of pure computations the monolithic path
//! performs verbatim, or (b) inputs to provably order-preserving
//! replacements of its inner loops (see `schedule_edge_indexed` in
//! `sched.rs`). Nothing is warm-started across cells in a way that could
//! steer the search.

use crate::sched::{Flow, HlsOptions};
use adhls_ir::cfg::CfgInfo;
use adhls_ir::span::{SpanAnalysis, SpanBounds};
use adhls_ir::{Design, EdgeId, OpId, Result};
use adhls_reslib::Library;
use adhls_timing::budget::{op_choices, BudgetOptions, OpChoice, SlackEngine};
use adhls_timing::slack::SlackMode;
use adhls_timing::TimedDfg;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The clock-independent prefix of an HLS run over one design: everything
/// `run_hls` computes before the first grade or placement decision that
/// could depend on the clock period, flow, or initiation interval.
///
/// Immutable once built (the [`ClockContext`] cache inside is interior
/// mutability over *appended* derived values, never mutation of existing
/// ones), so it is shared freely across threads behind an [`Arc`].
///
/// Validity: the artifacts are a pure function of `(design, library)`. A
/// prefix cache must therefore key on the design (e.g.
/// `fingerprint::design_fingerprint` in `adhls-explore`) and hold the
/// library fixed — exactly the shape of `EvaluatorPool`, which owns one
/// library for its whole lifetime.
#[derive(Debug)]
pub struct PreparedDesign {
    /// Shared with the points evaluated over this prefix, never copied.
    design: Arc<Design>,
    info: CfgInfo,
    span_analysis: SpanAnalysis,
    base_choices: Vec<OpChoice>,
    /// `bounds_pinned(|_| None)` — the ASAP/ALAP mobility labels every pass
    /// starts from (recomputed per restart on the from-scratch path).
    initial_bounds: SpanBounds,
    /// Timed DFG over the initial bounds. Its *structure* (timed set,
    /// adjacency, topological order) depends only on the DFG, so re-budgeting
    /// reweights a clone in place instead of rebuilding.
    initial_tdfg: TimedDfg,
    /// Per-CFG-edge legality index: ops `o` with `e ∈ legal(o)`, in `OpId`
    /// order. A superset of any edge's ready set (the scheduler's bounds
    /// only ever narrow spans), so placement scans this instead of all ops.
    edge_ops: Vec<Vec<OpId>>,
    /// Clock-keyed second-stage artifacts, populated on first use.
    clock_ctxs: Mutex<HashMap<CtxKey, Arc<ClockContext>>>,
    approx_bytes: usize,
}

/// The initial budgeting state of a pass — the grades and slack
/// priorities the scheduler derives before any placement. Cached here per
/// options only for untruncated grade caps (every restart that never
/// tightened a grade), which the scheduler tracks explicitly; within one
/// run the scheduler also reuses it for any restart whose caps repeat.
#[derive(Debug, Default)]
pub struct ClockContext {
    pub(crate) grade_idx: Vec<Option<usize>>,
    pub(crate) prio: Vec<i64>,
    pub(crate) eff_delay: Vec<i64>,
    /// Moves, reverted moves and slack evaluations of the budgeting call
    /// that produced the grades (0 outside the slack flow), so a run that
    /// reuses the context reports the same counts as one that computed it.
    pub(crate) budget_moves: usize,
    pub(crate) budget_reverted: usize,
    pub(crate) slack_evals: usize,
}

impl PreparedDesign {
    /// Elaborates a copy of `design` against `lib` and materializes the
    /// prefix artifacts; see [`PreparedDesign::from_shared`].
    ///
    /// # Errors
    ///
    /// As [`PreparedDesign::from_shared`].
    pub fn new(design: &Design, lib: &Library) -> Result<PreparedDesign> {
        PreparedDesign::from_shared(Arc::new(design.clone()), lib)
    }

    /// Elaborates `design` against `lib` and materializes the prefix
    /// artifacts, keeping the shared design itself rather than a copy.
    /// Timed under the `pipeline.elab` span — on the incremental path
    /// elaboration runs once per prefix-cache miss rather than once per
    /// HLS run.
    ///
    /// # Errors
    ///
    /// Same conditions as the elaboration prefix of
    /// [`crate::sched::run_hls`]: a malformed design or an operation with no
    /// library implementation.
    pub fn from_shared(design: Arc<Design>, lib: &Library) -> Result<PreparedDesign> {
        adhls_telemetry::timed("pipeline.elab", || {
            let info = design.validate()?;
            let span_analysis = SpanAnalysis::new(&design.dfg, &info)?;
            let base_choices = op_choices(&design.dfg, lib)?;
            let initial_bounds = span_analysis.bounds_pinned(&design.dfg, &info, |_| None)?;
            let initial_tdfg = TimedDfg::build_with(
                &design.dfg,
                &info,
                |o| initial_bounds.early(o),
                |o| initial_bounds.late(o),
            )?;
            let mut edge_ops: Vec<Vec<OpId>> = vec![Vec::new(); info.len_edges()];
            for o in design.dfg.op_ids() {
                for &e in span_analysis.legal(o) {
                    edge_ops[e.0 as usize].push(o);
                }
            }
            let approx_bytes = approx_bytes(&design, &span_analysis, &base_choices, &initial_tdfg);
            Ok(PreparedDesign {
                design,
                info,
                span_analysis,
                base_choices,
                initial_bounds,
                initial_tdfg,
                edge_ops,
                clock_ctxs: Mutex::new(HashMap::new()),
                approx_bytes,
            })
        })
    }

    /// The elaborated design the artifacts were derived from.
    #[must_use]
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Validated CFG analysis (reachability, latencies, dominators).
    #[must_use]
    pub fn info(&self) -> &CfgInfo {
        &self.info
    }

    /// Legal-edge span analysis.
    #[must_use]
    pub fn span_analysis(&self) -> &SpanAnalysis {
        &self.span_analysis
    }

    /// Untruncated per-op grade candidates from the library.
    #[must_use]
    pub fn base_choices(&self) -> &[OpChoice] {
        &self.base_choices
    }

    /// The unpinned ASAP/ALAP bounds every pass starts from.
    #[must_use]
    pub fn initial_bounds(&self) -> &SpanBounds {
        &self.initial_bounds
    }

    /// Timed DFG over [`PreparedDesign::initial_bounds`].
    #[must_use]
    pub fn initial_tdfg(&self) -> &TimedDfg {
        &self.initial_tdfg
    }

    /// Ops that may legally sit on edge `e` (superset of any ready set).
    #[must_use]
    pub fn edge_ops(&self, e: EdgeId) -> &[OpId] {
        &self.edge_ops[e.0 as usize]
    }

    /// Rough retained size of the prefix artifacts, for the
    /// `pipeline.prefix.bytes` cache gauge. An estimate, not an accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The cached [`ClockContext`] for these options, if one was stored.
    /// Keyed exactly by every option *except* the initiation interval
    /// (which cannot affect budgeting — it only constrains placement), so
    /// II cells at the same clock share one context.
    #[must_use]
    pub fn clock_context(&self, opts: &HlsOptions) -> Option<Arc<ClockContext>> {
        let key = ctx_key(opts);
        self.clock_ctxs
            .lock()
            .expect("clock-context lock poisoned")
            .get(&key)
            .cloned()
    }

    /// Stores the [`ClockContext`] computed for these options. Last write
    /// wins; concurrent writers compute identical values (the context is a
    /// pure function of the prefix and the key).
    pub fn store_clock_context(&self, opts: &HlsOptions, ctx: Arc<ClockContext>) {
        let key = ctx_key(opts);
        self.clock_ctxs
            .lock()
            .expect("clock-context lock poisoned")
            .insert(key, ctx);
    }
}

/// Options key for the clock-context cache: every option field except
/// `pipeline_ii`, compared exactly (`margin_frac` by its bits). The
/// destructuring below names every field, so a new option cannot be left
/// out of the key by accident.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CtxKey {
    clock_ps: u64,
    flow: Flow,
    margin_bits: u64,
    mode: SlackMode,
    engine: SlackEngine,
    overhead_ps: u64,
    zero_overhead: bool,
    area_recovery: bool,
}

fn ctx_key(opts: &HlsOptions) -> CtxKey {
    let HlsOptions {
        clock_ps,
        flow,
        budget,
        zero_overhead,
        pipeline_ii: _,
        area_recovery,
    } = opts;
    let BudgetOptions {
        margin_frac,
        mode,
        engine,
        overhead_ps,
    } = budget;
    CtxKey {
        clock_ps: *clock_ps,
        flow: *flow,
        margin_bits: margin_frac.to_bits(),
        mode: *mode,
        engine: *engine,
        overhead_ps: *overhead_ps,
        zero_overhead: *zero_overhead,
        area_recovery: *area_recovery,
    }
}

fn approx_bytes(
    design: &Design,
    span_analysis: &SpanAnalysis,
    base_choices: &[OpChoice],
    tdfg: &TimedDfg,
) -> usize {
    let n = design.dfg.len_ids();
    let legal: usize = design
        .dfg
        .op_ids()
        .map(|o| span_analysis.legal(o).len())
        .sum();
    // Per-op fixed overhead (design node + bounds + choice headers) plus the
    // variable parts: legal lists appear twice (analysis + edge index),
    // timed edges twice (preds + succs), one candidate record per grade.
    n * 128
        + legal * 2 * std::mem::size_of::<EdgeId>()
        + tdfg.len_edges() * 2 * std::mem::size_of::<(OpId, u32)>()
        + base_choices
            .iter()
            .map(|c| c.candidates.len() * 32)
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;
    use adhls_reslib::tsmc90;

    #[test]
    fn clock_contexts_are_keyed_by_every_option_but_the_ii() {
        let mut b = DesignBuilder::new("key");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.write("y", m);
        let prep = PreparedDesign::new(&b.finish().unwrap(), &tsmc90::library()).unwrap();
        let base = HlsOptions::default();
        prep.store_clock_context(&base, Arc::new(ClockContext::default()));
        let other_ii = HlsOptions {
            pipeline_ii: Some(2),
            ..base.clone()
        };
        assert!(prep.clock_context(&other_ii).is_some(), "II cells share");

        let budget = |b: BudgetOptions| HlsOptions {
            budget: b,
            ..base.clone()
        };
        let b0 = base.budget;
        let variants = [
            HlsOptions {
                clock_ps: base.clock_ps + 1,
                ..base.clone()
            },
            HlsOptions {
                flow: Flow::Conventional,
                ..base.clone()
            },
            budget(BudgetOptions {
                margin_frac: f64::from_bits(b0.margin_frac.to_bits() + 1),
                ..b0
            }),
            budget(BudgetOptions {
                mode: SlackMode::Plain,
                ..b0
            }),
            budget(BudgetOptions {
                engine: SlackEngine::BellmanFord,
                ..b0
            }),
            budget(BudgetOptions {
                overhead_ps: b0.overhead_ps + 1,
                ..b0
            }),
            HlsOptions {
                zero_overhead: true,
                ..base.clone()
            },
            HlsOptions {
                area_recovery: false,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert!(prep.clock_context(v).is_none(), "shared a context: {v:?}");
        }
    }
}
