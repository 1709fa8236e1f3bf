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
//! Every HLS run schedules over a prefix: [`crate::sched::run_hls`]
//! builds a fresh one per call, and exploration shares one across every
//! run of a design through [`crate::sched::run_hls_prepared`]. The
//! contract throughout is **bit-identical results**: a run over a shared
//! prefix produces exactly the bytes it would over a fresh one. Artifacts
//! are therefore only ever values of pure functions of the design and the
//! library, and clock contexts pure functions of the prefix and their
//! key. Nothing is warm-started across cells in a way that could steer
//! the search.

use crate::sched::{Flow, HlsOptions};
use adhls_ir::cfg::CfgInfo;
use adhls_ir::span::{SpanAnalysis, SpanBounds};
use adhls_ir::{vec_heap_bytes, Design, EdgeId, OpId, Result};
use adhls_reslib::Library;
use adhls_timing::budget::{op_choices, BudgetOptions, OpChoices, SlackEngine};
use adhls_timing::slack::SlackMode;
use adhls_timing::TimedDfg;
use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::{Arc, Mutex};

/// How many [`ClockContext`]s one prefix keeps. A prefix's byte count
/// reserves room for this many, and storing one more replaces the oldest,
/// so a prefix never grows past its count however many clocks it serves.
pub const CLOCK_CONTEXTS: usize = 8;

/// The clock-independent prefix of an HLS run over one design: everything
/// a run needs before the first grade or placement decision that could
/// depend on the clock period, flow, or initiation interval.
///
/// Immutable once built (the [`ClockContext`] slots inside are interior
/// mutability over derived values, never mutation of existing ones), so it
/// is shared freely across threads behind an [`Arc`].
///
/// Every artifact is stored flat — adjacency, legal lists and candidate
/// lists as one table each, not one small vector per op — so a prefix is
/// a few dozen heap blocks whatever the design's size, and
/// [`PreparedDesign::approx_bytes`] sums them exactly.
///
/// Validity: the artifacts are a pure function of `(design, library)`. A
/// prefix cache must therefore key on the design (as `EvaluatorPool` in
/// `adhls-explore` does) and hold the library fixed — exactly the shape of
/// `EvaluatorPool`, which owns one library for its whole lifetime.
#[derive(Debug)]
pub struct PreparedDesign {
    /// Shared with the points evaluated over this prefix, never copied.
    design: Arc<Design>,
    info: CfgInfo,
    span_analysis: SpanAnalysis,
    base_choices: OpChoices,
    /// `bounds_pinned(|_| None)` — the ASAP/ALAP mobility labels every pass
    /// of every run over this prefix starts from.
    initial_bounds: SpanBounds,
    /// Timed DFG over the initial bounds. Its *structure* (timed set,
    /// adjacency, topological order) depends only on the DFG, so re-budgeting
    /// reweights a clone in place instead of rebuilding.
    initial_tdfg: TimedDfg,
    /// Per-CFG-edge legality index: ops `o` with `e ∈ legal(o)`, in `OpId`
    /// order. A superset of any edge's ready set (the scheduler's bounds
    /// only ever narrow spans), so placement seeds from this instead of
    /// scanning all ops.
    /// Edge `e`'s ops are `edge_ops[edge_ops_start[e]..edge_ops_start[e + 1]]`.
    edge_ops: Vec<OpId>,
    edge_ops_start: Vec<u32>,
    /// Clock-keyed second-stage artifacts, populated on first use, oldest
    /// first; at most [`CLOCK_CONTEXTS`], with room for all of them
    /// reserved up front.
    clock_ctxs: Mutex<VecDeque<(CtxKey, Arc<ClockContext>)>>,
    approx_bytes: usize,
}

/// The initial budgeting state of a pass — the grades and slack
/// priorities the scheduler derives before any placement. Cached here per
/// options only for untruncated grade caps (every restart that never
/// tightened a grade), which the scheduler tracks explicitly; within one
/// run the scheduler also reuses it for any restart whose caps repeat.
#[derive(Debug, Default)]
pub struct ClockContext {
    /// Per op id, in one allocation: the slack priority of op `i` at `i`,
    /// then its grade index at `n + i` (`-1` for fixed-delay ops).
    per_op: Box<[i64]>,
    /// Moves, reverted moves and slack evaluations of the budgeting call
    /// that produced the grades (0 outside the slack flow), so a run that
    /// reuses the context reports the same counts as one that computed it.
    pub(crate) budget_moves: usize,
    pub(crate) budget_reverted: usize,
    pub(crate) slack_evals: usize,
}

impl ClockContext {
    /// A context over per-op-id priorities and grade indices (equal
    /// lengths).
    pub(crate) fn new(prio: &[i64], grade_idx: impl IntoIterator<Item = Option<usize>>) -> Self {
        let grades = grade_idx.into_iter().map(|g| g.map_or(-1, |k| k as i64));
        let per_op: Box<[i64]> = prio.iter().copied().chain(grades).collect();
        debug_assert_eq!(per_op.len(), 2 * prio.len());
        ClockContext {
            per_op,
            ..ClockContext::default()
        }
    }

    /// Slack priority per op id.
    pub(crate) fn prio(&self) -> &[i64] {
        &self.per_op[..self.per_op.len() / 2]
    }

    /// Grade index per op id (`None` for fixed-delay ops).
    pub(crate) fn grade_idx(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        self.per_op[self.per_op.len() / 2..]
            .iter()
            .map(|&g| usize::try_from(g).ok())
    }

    /// Heap bytes one stored context of a design with `n_ids` op ids
    /// holds: its `Arc` block and its per-op table.
    fn bytes(n_ids: usize) -> usize {
        2 * size_of::<usize>() + size_of::<ClockContext>() + 2 * n_ids * size_of::<i64>()
    }
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
    /// Timed under the `pipeline.elab` span, once per prefix built: per
    /// [`crate::sched::run_hls`] call, and per prefix-cache miss in the
    /// exploration pool.
    ///
    /// # Errors
    ///
    /// A malformed design (CFG or DFG validation, span analysis) or an
    /// operation with no library implementation.
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
            let mut edge_ops_start = vec![0u32; info.len_edges() + 1];
            for o in design.dfg.op_ids() {
                for &e in span_analysis.legal(o) {
                    edge_ops_start[e.0 as usize + 1] += 1;
                }
            }
            for e in 0..info.len_edges() {
                edge_ops_start[e + 1] += edge_ops_start[e];
            }
            let mut edge_ops = vec![OpId(0); edge_ops_start[info.len_edges()] as usize];
            let mut next = edge_ops_start.clone();
            for o in design.dfg.op_ids() {
                for &e in span_analysis.legal(o) {
                    edge_ops[next[e.0 as usize] as usize] = o;
                    next[e.0 as usize] += 1;
                }
            }
            let mut prep = PreparedDesign {
                design,
                info,
                span_analysis,
                base_choices,
                initial_bounds,
                initial_tdfg,
                edge_ops,
                edge_ops_start,
                clock_ctxs: Mutex::new(VecDeque::with_capacity(CLOCK_CONTEXTS)),
                approx_bytes: 0,
            };
            prep.approx_bytes = prep.count_bytes();
            Ok(prep)
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
    pub fn base_choices(&self) -> &OpChoices {
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
        let e = e.0 as usize;
        &self.edge_ops[self.edge_ops_start[e] as usize..self.edge_ops_start[e + 1] as usize]
    }

    /// The heap bytes this prefix holds behind its `Arc`, counted from
    /// every allocation it owns: its own block, each flat artifact table
    /// (CFG analysis with its edge-pair tables, span analysis, candidate
    /// table, initial bounds, timed DFG, legality index) and the
    /// clock-context slots with room for [`CLOCK_CONTEXTS`] full contexts,
    /// stored or not. Fixed when the prefix is built, so a cache can charge
    /// it once. The design is shared with the points evaluated over the
    /// prefix and is not counted.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    fn count_bytes(&self) -> usize {
        2 * size_of::<usize>()
            + size_of::<PreparedDesign>()
            + self.info.heap_bytes()
            + self.span_analysis.heap_bytes()
            + self.base_choices.heap_bytes()
            + self.initial_bounds.heap_bytes()
            + self.initial_tdfg.heap_bytes()
            + vec_heap_bytes(&self.edge_ops)
            + vec_heap_bytes(&self.edge_ops_start)
            + self
                .clock_ctxs
                .lock()
                .expect("clock-context lock poisoned")
                .capacity()
                * size_of::<(CtxKey, Arc<ClockContext>)>()
            + CLOCK_CONTEXTS * ClockContext::bytes(self.design.dfg.len_ids())
    }

    /// The cached [`ClockContext`] for these options, if one is stored.
    /// Keyed exactly by every option *except* the initiation interval
    /// (which cannot affect budgeting — it only constrains placement), so
    /// II cells at the same clock share one context.
    #[must_use]
    pub fn clock_context(&self, opts: &HlsOptions) -> Option<Arc<ClockContext>> {
        let key = ctx_key(opts);
        let ctxs = self.clock_ctxs.lock().expect("clock-context lock poisoned");
        ctxs.iter()
            .find(|(k, _)| *k == key)
            .map(|(_, ctx)| Arc::clone(ctx))
    }

    /// Stores the [`ClockContext`] computed for these options, replacing
    /// the oldest stored context once [`CLOCK_CONTEXTS`] are kept. Last
    /// write wins; concurrent writers compute identical values (the
    /// context is a pure function of the prefix and the key).
    pub fn store_clock_context(&self, opts: &HlsOptions, ctx: Arc<ClockContext>) {
        let key = ctx_key(opts);
        let mut ctxs = self.clock_ctxs.lock().expect("clock-context lock poisoned");
        if let Some(slot) = ctxs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = ctx;
            return;
        }
        if ctxs.len() == CLOCK_CONTEXTS {
            ctxs.pop_front();
        }
        ctxs.push_back((key, ctx));
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

    #[test]
    fn a_full_context_table_replaces_its_oldest_entry() {
        let mut b = DesignBuilder::new("cap");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.write("y", m);
        let prep = PreparedDesign::new(&b.finish().unwrap(), &tsmc90::library()).unwrap();
        let bytes = prep.approx_bytes();
        let at = |clock_ps| HlsOptions {
            clock_ps,
            ..HlsOptions::default()
        };
        for c in 0..=CLOCK_CONTEXTS as u64 {
            prep.store_clock_context(&at(1000 + c), Arc::new(ClockContext::default()));
        }
        assert!(prep.clock_context(&at(1000)).is_none(), "the oldest went");
        for c in 1..=CLOCK_CONTEXTS as u64 {
            assert!(prep.clock_context(&at(1000 + c)).is_some(), "{c} kept");
        }
        assert_eq!(prep.approx_bytes(), bytes, "room was reserved up front");
    }
}
