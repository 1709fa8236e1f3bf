//! The scheduling framework of paper §VI, Fig. 8.
//!
//! `Schedule_pass` walks the CFG's forward edges in topological order; at
//! each edge it places ready operations (operands scheduled, edge within the
//! operation's span) in criticality order — most negative sequential slack
//! first. Placement binds each operation to a resource instance on the fly
//! (joint scheduling and binding, §I), chaining combinationally within the
//! clock period and deferring to a later span edge when timing or resources
//! do not fit. An operation that cannot be placed on the *last* edge of its
//! span fails the pass; the relaxation expert then either adds an instance
//! ("add resource") or forces a faster grade and the pass restarts.
//!
//! The three flows differ only in how grades are chosen:
//!
//! * [`Flow::Conventional`] — every operation at its fastest grade, slack
//!   computed once for priorities (paper §II Case 1; `A_conv` in Table 4);
//! * [`Flow::SlowestUpgrade`] — slowest grades, upgraded on the fly when
//!   timing fails (Case 2);
//! * [`Flow::SlackBased`] — grades from slack budgeting, and budgeting is
//!   re-run after every scheduled edge with scheduled operations locked
//!   (the paper's contribution; `A_slack` in Table 4).
//!
//! All flows end with register/mux binding and (continuous) area recovery.
//!
//! # Incremental state
//!
//! Every per-edge layer of a pass updates what the previous edge left
//! instead of recomputing it, and each update is exact — it produces the
//! values a from-scratch computation would, so schedules are unchanged:
//!
//! * **Bounds.** New pins move only the early bounds of their fan-out and
//!   the late bounds of their fan-in ([`SpanAnalysis::repin`]); the timed
//!   DFG reweights only the edges of ops whose bounds moved
//!   ([`TimedDfg::reweight_ops`]).
//! * **Budgeting.** Each grade move updates a
//!   [`SlackState`](adhls_timing::slack::SlackState) over the moved op's
//!   fan-out and fan-in cones; a rejected move replays its undo log.
//! * **Placement.** Instances are listed per compatible class set in
//!   (slowest first, id) order, and each keeps a bitset of the edges where
//!   a one-cycle use would conflict with it, filled on commit by the same
//!   per-use predicate the multi-cycle scan evaluates (`use_conflicts`).
//! * **Restarts.** A pass whose grade caps equal an earlier pass's reuses
//!   that pass's initial budget.

use crate::alloc::{Allocation, InstId};
use crate::area::{self, AreaReport};
use crate::bind;
use crate::prepare::{ClockContext, PreparedDesign};
use crate::schedule::Schedule;
use adhls_ir::cfg::CfgInfo;
use adhls_ir::span::{SpanAnalysis, SpanBounds};
use adhls_ir::{Design, EdgeId, Error, OpId, Result};
use adhls_reslib::class::classes_for;
use adhls_reslib::library::op_resource_width;
use adhls_reslib::{Library, ResClass};
use adhls_timing::aligned::align_start_up;
use adhls_timing::budget::{budget_with_choices_from, op_choices, BudgetOptions, OpChoice};
use adhls_timing::slack::{compute_slack, SlackMode};
use adhls_timing::TimedDfg;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Grade-selection strategy (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Flow {
    /// Fastest grades + post-hoc area recovery (paper Case 1).
    Conventional,
    /// Slowest grades upgraded on the fly (paper Case 2).
    SlowestUpgrade,
    /// Slack budgeting before and during scheduling (the paper's approach).
    #[default]
    SlackBased,
}

/// Relaxation restarts a run may take before it gives up as
/// overconstrained.
pub const MAX_RELAX_ROUNDS: u32 = 200;

/// Options for [`run_hls`].
#[derive(Debug, Clone, PartialEq)]
pub struct HlsOptions {
    /// Clock period in picoseconds.
    pub clock_ps: u64,
    /// Grade-selection flow.
    pub flow: Flow,
    /// Budgeting options (margin, slack engine, …).
    pub budget: BudgetOptions,
    /// Ignore register/mux area and sharing delay (the paper's Fig. 2
    /// illustration mode: "ignore the delays of multiplexors and
    /// registers").
    pub zero_overhead: bool,
    /// Initiation interval for pipelined loops (straight-line bodies);
    /// resources are reserved modulo this interval.
    pub pipeline_ii: Option<u32>,
    /// Run post-binding area recovery (Fig. 8 step 3). On by default.
    pub area_recovery: bool,
}

impl Default for HlsOptions {
    fn default() -> Self {
        HlsOptions {
            clock_ps: 1000,
            flow: Flow::SlackBased,
            budget: BudgetOptions::default(),
            zero_overhead: false,
            pipeline_ii: None,
            area_recovery: true,
        }
    }
}

/// Result of a complete HLS run.
#[derive(Debug, Clone)]
pub struct HlsResult {
    /// The validated schedule + binding.
    pub schedule: Schedule,
    /// Structural area after binding and recovery.
    pub area: AreaReport,
    /// Register binding details.
    pub regs: bind::RegReport,
    /// Relaxation restarts used.
    pub relax_rounds: u32,
    /// Budgeting moves of every budgeting call in the run, over all its
    /// passes; a reused initial budget counts the moves that produced it.
    /// Always 0 outside the slack flow.
    pub budget_moves: usize,
}

/// Why a placement attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NoFit {
    /// No compatible instance was conflict-free and the class is at its
    /// allocation limit.
    Resource(ResClass),
    /// A resource was available but the operation cannot meet timing on
    /// this edge.
    Timing,
}

/// Pass-level failure, consumed by the relaxation expert.
#[derive(Debug, Clone)]
struct PassFailure {
    op: OpId,
    reason: NoFit,
    grade_at_failure: Option<usize>,
    /// Resource-deferral events per class during the failed pass: how often
    /// an operation could not be placed because the class was at its
    /// allocation limit. Guides the "add resource" relaxation.
    pressure: Vec<(ResClass, u32)>,
    /// True when some op in the failing op's input cone was deferred by a
    /// resource limit (the lateness is resource-induced, not grade-induced).
    cone_resource_deferred: bool,
}

/// Telemetry span name for one HLS run under `flow` — the per-run anchor
/// that reconciles `pipeline.*` phase counts with `pipeline.evaluate`
/// (each evaluated point runs one flow span per HLS run).
fn flow_span_name(flow: Flow) -> &'static str {
    match flow {
        Flow::Conventional => "pipeline.flow.conventional",
        Flow::SlowestUpgrade => "pipeline.flow.slowest_upgrade",
        Flow::SlackBased => "pipeline.flow.slack",
    }
}

/// Runs high-level synthesis on a validated design.
///
/// # Errors
///
/// Returns an error when the design is malformed or remains unschedulable
/// after [`MAX_RELAX_ROUNDS`] relaxations (overconstrained, paper Fig. 8
/// step 5).
pub fn run_hls(design: &Design, lib: &Library, opts: &HlsOptions) -> Result<HlsResult> {
    // Telemetry phase spans ("pipeline.*" histograms) time each stage on
    // the thread's current registry; they observe only and never steer —
    // results are bit-identical with telemetry on or off. The flow span
    // wraps the whole run so per-flow counts reconcile with per-phase ones.
    let _flow = adhls_telemetry::span(flow_span_name(opts.flow));
    let (info, span_analysis, base_choices) =
        adhls_telemetry::timed("pipeline.elab", || -> Result<_> {
            let info = design.validate()?;
            let span_analysis = SpanAnalysis::new(&design.dfg, &info)?;
            let base_choices = op_choices(&design.dfg, lib)?;
            Ok((info, span_analysis, base_choices))
        })?;
    let scheduled = adhls_telemetry::timed("pipeline.schedule", || {
        schedule_phase(
            design,
            &info,
            &span_analysis,
            lib,
            opts,
            &base_choices,
            None,
        )
    })?;
    finish_hls(design, &info, scheduled, lib, opts)
}

/// [`run_hls`] over pre-elaborated phase artifacts: skips elaboration,
/// starts every pass from the shared initial bounds/timed-DFG, reuses the
/// clock context across restarts and II cells, and schedules through the
/// per-edge legality index. **Bit-identical to [`run_hls`]** on the design
/// the artifacts were prepared from, with the same library — only cached
/// pure values and order-preserving replacements of inner loops differ.
///
/// # Errors
///
/// Same conditions as [`run_hls`].
pub fn run_hls_prepared(
    prep: &PreparedDesign,
    lib: &Library,
    opts: &HlsOptions,
) -> Result<HlsResult> {
    let _flow = adhls_telemetry::span(flow_span_name(opts.flow));
    let design = prep.design();
    let scheduled = adhls_telemetry::timed("pipeline.schedule", || {
        schedule_phase(
            design,
            prep.info(),
            prep.span_analysis(),
            lib,
            opts,
            prep.base_choices(),
            Some(prep),
        )
    })?;
    finish_hls(design, prep.info(), scheduled, lib, opts)
}

/// What the scheduling phase hands to binding.
struct Scheduled {
    schedule: Schedule,
    spans: adhls_ir::span::OpSpans,
    relax_rounds: u32,
    budget_moves: usize,
}

/// Relaxation remedies, in `pipeline.relax.*` counter order.
#[derive(Debug, Clone, Copy)]
enum Remedy {
    /// Raise a class's instance limit.
    AddResource,
    /// Cap the failing op one grade faster.
    TightenOp,
    /// Halve the grade cap of the slowest op in the failing op's cone.
    CapCone,
    /// Ratchet every op's grade cap down (the same op failed on timing
    /// twice in a row).
    GlobalCap,
}

const REMEDY_COUNTERS: [&str; 4] = [
    "pipeline.relax.add_resource",
    "pipeline.relax.tighten_op",
    "pipeline.relax.cap_cone",
    "pipeline.relax.global_cap",
];

/// Per-run scheduler accounting: sub-phase times and budgeting/relaxation
/// counts, accumulated over every pass of one run and reported once when
/// the run ends. Observes only; nothing reads it back.
#[derive(Debug, Default)]
struct RunStats {
    /// Whether telemetry was recording when the run started; the timers
    /// read the clock only then.
    timed: bool,
    place: Duration,
    bounds: Duration,
    budget: Duration,
    rebudget_run: u64,
    rebudget_elided: u64,
    budget_moves: usize,
    budget_reverted: usize,
    slack_evals: usize,
    relax: [u64; 4],
}

impl RunStats {
    fn new() -> Self {
        RunStats {
            timed: adhls_telemetry::enabled(),
            ..RunStats::default()
        }
    }

    /// Starts a sub-phase timer (`None` while telemetry is off).
    fn start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    /// Counts a budget the run uses, computed now or reused.
    fn add_budget(&mut self, ctx: &ClockContext) {
        self.budget_moves += ctx.budget_moves;
        self.budget_reverted += ctx.budget_reverted;
        self.slack_evals += ctx.slack_evals;
    }

    fn remedy(&mut self, r: Remedy) {
        self.relax[r as usize] += 1;
    }

    fn emit(&self, relax_rounds: u32) {
        if !self.timed {
            return;
        }
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        adhls_telemetry::observe("pipeline.schedule.place", us(self.place));
        adhls_telemetry::observe("pipeline.schedule.bounds", us(self.bounds));
        adhls_telemetry::observe("pipeline.schedule.budget", us(self.budget));
        let counters = [
            ("pipeline.rebudget.run", self.rebudget_run),
            ("pipeline.rebudget.elided", self.rebudget_elided),
            ("pipeline.budget.moves", self.budget_moves as u64),
            ("pipeline.budget.reverted", self.budget_reverted as u64),
            ("pipeline.budget.slack_evals", self.slack_evals as u64),
        ];
        for (name, v) in counters
            .into_iter()
            .chain(REMEDY_COUNTERS.into_iter().zip(self.relax))
        {
            adhls_telemetry::counter_add(name, v);
        }
        let reg = adhls_telemetry::current();
        reg.declare_histogram("pipeline.relax.rounds", &adhls_telemetry::COUNT_BUCKETS);
        reg.observe("pipeline.relax.rounds", f64::from(relax_rounds));
    }
}

/// Adds the time since `t0` (if timing) to `acc`.
fn lap(acc: &mut Duration, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        *acc += t0.elapsed();
    }
}

/// The scheduling phase: the relaxation loop of `Schedule_pass` attempts
/// (paper Fig. 8 steps 2–4), with its accounting reported once per run.
fn schedule_phase(
    design: &Design,
    info: &CfgInfo,
    span_analysis: &SpanAnalysis,
    lib: &Library,
    opts: &HlsOptions,
    base_choices: &[OpChoice],
    prep: Option<&PreparedDesign>,
) -> Result<Scheduled> {
    let mut stats = RunStats::new();
    let mut relax_rounds = 0;
    let r = relax_loop(
        design,
        info,
        span_analysis,
        lib,
        opts,
        base_choices,
        prep,
        &mut stats,
        &mut relax_rounds,
    );
    stats.emit(relax_rounds);
    let (schedule, spans) = r?;
    Ok(Scheduled {
        schedule,
        spans,
        relax_rounds,
        budget_moves: stats.budget_moves,
    })
}

/// Shared verbatim by the from-scratch and prepared paths; `prep` only
/// swaps recomputation for cached artifacts.
#[allow(clippy::too_many_arguments)]
fn relax_loop(
    design: &Design,
    info: &CfgInfo,
    span_analysis: &SpanAnalysis,
    lib: &Library,
    opts: &HlsOptions,
    base_choices: &[OpChoice],
    prep: Option<&PreparedDesign>,
    stats: &mut RunStats,
    relax_rounds: &mut u32,
) -> Result<(Schedule, adhls_ir::span::OpSpans)> {
    // The unpinned bounds and the timed DFG over them are the same on every
    // restart: borrowed from the prepared prefix, or computed once here.
    let (init_bounds, init_tdfg): (Cow<SpanBounds>, Cow<TimedDfg>) = match prep {
        Some(p) => (
            Cow::Borrowed(p.initial_bounds()),
            Cow::Borrowed(p.initial_tdfg()),
        ),
        None => {
            let b = span_analysis.bounds_pinned(&design.dfg, info, |_| None)?;
            let t = TimedDfg::build_with(&design.dfg, info, |o| b.early(o), |o| b.late(o))?;
            (Cow::Owned(b), Cow::Owned(t))
        }
    };
    // Relaxation state: per-class instance limits and per-op grade
    // caps (maximum candidate index; lower = faster).
    let cycles = count_states(info).max(1);
    let mut limits = Allocation::initial_limits(design, cycles);
    let mut grade_cap: Vec<usize> = base_choices
        .iter()
        .map(|c| c.candidates.len().saturating_sub(1))
        .collect();
    // The last computed initial budget and the caps it was computed under:
    // a restart that only raised a resource limit budgets identically.
    let mut last_init: Option<(Vec<usize>, Arc<ClockContext>)> = None;
    let mut tdfg_buf: Option<TimedDfg> = None;

    // Escalation: when the same operation keeps failing despite local
    // relaxations, ratchet every operation's slowest allowed grade down —
    // in the limit the pass degenerates to the conventional all-fastest
    // flow (with the accumulated extra instances), which is exactly the
    // paper's observed behavior on timing-critical designs (D5–D7: "the
    // scheduler was unable to recover from starting with slower resources
    // and had to restrict sharing to meet timing").
    let mut last_failure: Option<(OpId, bool)> = None;
    let mut global_cap = usize::MAX;
    loop {
        // Untruncated caps mean this pass budgets exactly like the first
        // one — the precondition for reusing a cached ClockContext.
        let pristine = grade_cap
            .iter()
            .enumerate()
            .all(|(i, &c)| c == base_choices[i].candidates.len().saturating_sub(1));
        // Apply caps by truncating candidate lists; untruncated caps leave
        // the base choices untouched, so borrow instead of deep-cloning.
        let choices: Cow<[OpChoice]> = if pristine {
            Cow::Borrowed(base_choices)
        } else {
            base_choices
                .iter()
                .enumerate()
                .map(|(i, c)| OpChoice {
                    candidates: c.candidates[..(grade_cap[i] + 1).min(c.candidates.len())].to_vec(),
                    fixed_ps: c.fixed_ps,
                })
                .collect()
        };
        // The initial budget: reused from the last pass computed under the
        // same caps, or from the prefix's clock context, else computed.
        let t0 = stats.start();
        let ctx_cache = prep.filter(|_| pristine);
        let reused = match &last_init {
            Some((cap, ctx)) if *cap == grade_cap => Some(Arc::clone(ctx)),
            _ => ctx_cache.and_then(|p| p.clock_context(opts)),
        };
        let computed = reused.is_none();
        let init = reused.unwrap_or_else(|| {
            let ctx = Arc::new(initial_grades(design, lib, opts, &choices, &init_tdfg));
            if let Some(p) = ctx_cache {
                p.store_clock_context(opts, Arc::clone(&ctx));
            }
            ctx
        });
        lap(&mut stats.budget, t0);
        last_init = Some((grade_cap.clone(), Arc::clone(&init)));
        if opts.flow == Flow::SlackBased && computed {
            stats.rebudget_run += 1;
        } else if opts.flow == Flow::SlackBased {
            stats.rebudget_elided += 1;
        }
        stats.add_budget(&init);
        let mut pass = Pass::new(
            design,
            info,
            span_analysis,
            lib,
            opts,
            &choices,
            prep,
            &init_bounds,
            &init_tdfg,
            &mut tdfg_buf,
            &init,
            stats,
        );
        for (class, lim) in &limits {
            pass.alloc.set_limit(*class, *lim);
        }
        match pass.run() {
            Ok(()) => {
                let schedule = pass.into_schedule();
                let spans_final = span_analysis
                    .compute_pinned(&design.dfg, info, |o| schedule.edge_of[o.0 as usize])?;
                schedule.validate(design, info, &spans_final)?;
                return Ok((schedule, spans_final));
            }
            Err(f) => {
                *relax_rounds += 1;
                if *relax_rounds > MAX_RELAX_ROUNDS {
                    return Err(Error::Transform(format!(
                        "overconstrained: no relaxation helps {} (reason {:?}) after {} rounds",
                        f.op, f.reason, MAX_RELAX_ROUNDS
                    )));
                }
                let sig = (f.op, matches!(f.reason, NoFit::Timing));
                if last_failure == Some(sig) && sig.1 {
                    // Same op failing on timing again: tighten globally.
                    global_cap = match global_cap {
                        usize::MAX => 3,
                        0 => 0,
                        g => g - 1,
                    };
                    for (i, cap) in grade_cap.iter_mut().enumerate() {
                        let n = base_choices[i].candidates.len();
                        if n > 0 {
                            *cap = (*cap).min(global_cap.min(n - 1));
                        }
                    }
                    stats.remedy(Remedy::GlobalCap);
                }
                last_failure = Some(sig);
                let remedy =
                    apply_relaxation(design, base_choices, &mut limits, &mut grade_cap, &f)?;
                stats.remedy(remedy);
            }
        }
    }
}

/// The grades and slack priorities a pass starts from, by flow: fastest
/// (conventional) or slowest (slowest-upgrade) grades with one slack
/// analysis for priorities, or a full slack budget (slack flow).
fn initial_grades(
    design: &Design,
    lib: &Library,
    opts: &HlsOptions,
    choices: &[OpChoice],
    tdfg: &TimedDfg,
) -> ClockContext {
    let n = design.dfg.len_ids();
    let mux = mux_penalty(lib, opts);
    let mut grade_idx = vec![None; n];
    let mut eff_delay = vec![0i64; n];
    let mut ctx = ClockContext::default();
    match opts.flow {
        Flow::Conventional | Flow::SlowestUpgrade => {
            let mut delays = vec![0i64; n];
            for o in design.dfg.op_ids() {
                let i = o.0 as usize;
                let ch = &choices[i];
                if ch.candidates.is_empty() {
                    eff_delay[i] = ch.fixed_ps.unwrap_or(0) as i64;
                    delays[i] = eff_delay[i];
                } else {
                    let k = if opts.flow == Flow::Conventional {
                        0
                    } else {
                        ch.candidates.len() - 1
                    };
                    grade_idx[i] = Some(k);
                    delays[i] = ch.candidates[k].grade.delay_ps as i64 + mux;
                }
            }
            ctx.prio = compute_slack(tdfg, &delays, opts.clock_ps as i64, SlackMode::Aligned).slack;
        }
        Flow::SlackBased => {
            let r = budget_with_choices_from(
                tdfg,
                choices,
                opts.clock_ps,
                &budget_opts(lib, opts),
                |_| None,
                None,
            );
            for o in design.dfg.op_ids() {
                let i = o.0 as usize;
                if choices[i].candidates.is_empty() {
                    eff_delay[i] = choices[i].fixed_ps.unwrap_or(0) as i64;
                } else {
                    grade_idx[i] = r.choice_idx[i];
                }
            }
            ctx.prio = r.slack.slack;
            ctx.budget_moves = r.moves;
            ctx.budget_reverted = r.reverted;
            ctx.slack_evals = r.slack_evals;
        }
    }
    ctx.grade_idx = grade_idx;
    ctx.eff_delay = eff_delay;
    ctx
}

/// The steering-mux delay every shared resource pays (0 in the paper's
/// zero-overhead illustration mode).
fn mux_penalty(lib: &Library, opts: &HlsOptions) -> i64 {
    if opts.zero_overhead {
        0
    } else {
        lib.mux_share_delay_ps() as i64
    }
}

/// Budget options with the sharing overhead folded in, so budget plans
/// stay schedulable under the scheduler's effective delays.
fn budget_opts(lib: &Library, opts: &HlsOptions) -> BudgetOptions {
    BudgetOptions {
        overhead_ps: mux_penalty(lib, opts) as u64,
        ..opts.budget
    }
}

/// Post-scheduling phases shared by both paths: register binding, area
/// recovery, and the area report.
fn finish_hls(
    design: &Design,
    info: &CfgInfo,
    scheduled: Scheduled,
    lib: &Library,
    opts: &HlsOptions,
) -> Result<HlsResult> {
    let Scheduled {
        mut schedule,
        spans,
        relax_rounds,
        budget_moves,
    } = scheduled;
    let regs = adhls_telemetry::timed("pipeline.bind", || {
        bind::bind_registers(design, info, &schedule, lib)
    });
    let area = adhls_telemetry::timed("pipeline.area", || -> Result<_> {
        if opts.area_recovery {
            area::area_recovery(design, info, &mut schedule, lib, opts.zero_overhead);
            schedule.validate(design, info, &spans)?;
        }
        Ok(area::area_report(
            design,
            &schedule,
            &regs,
            lib,
            opts.zero_overhead,
        ))
    })?;
    Ok(HlsResult {
        schedule,
        area,
        regs,
        relax_rounds,
        budget_moves,
    })
}

/// Clock cycles available to one iteration: the number of state nodes, plus
/// the open first cycle when the design is acyclic (a loop's final `wait`
/// closes its last cycle; a one-shot dataflow block gets `states + 1`).
fn count_states(info: &CfgInfo) -> usize {
    let states = (0..info.len_nodes())
        .filter(|&i| info.node_kind(adhls_ir::NodeId(i as u32)).is_state())
        .count();
    states + usize::from(info.back_edges().is_empty())
}

/// The relaxation expert (paper Fig. 8 step 4): add an instance for
/// resource shortfalls, force a faster grade for timing shortfalls
/// (falling back to the operation's slowest-chained predecessor when the
/// operation is already at its fastest or has no grades at all). Returns
/// the remedy applied.
fn apply_relaxation(
    design: &Design,
    base_choices: &[OpChoice],
    limits: &mut std::collections::BTreeMap<ResClass, usize>,
    grade_cap: &mut [usize],
    f: &PassFailure,
) -> Result<Remedy> {
    match f.reason {
        NoFit::Resource(class) => {
            // Scale the growth by the observed shortfall so tail pileups
            // (dozens of ops forced onto the last edge) converge in a few
            // restarts instead of one instance per restart.
            let n = f
                .pressure
                .iter()
                .find(|(c, _)| *c == class)
                .map_or(1, |&(_, n)| n);
            let bump = (n as usize / 32).clamp(1, 16);
            *limits.entry(class).or_insert(0) += bump;
            Ok(Remedy::AddResource)
        }
        NoFit::Timing => {
            // Tighten the failing op if it can still go faster.
            let oi = f.op.0 as usize;
            let cur = f.grade_at_failure.unwrap_or(grade_cap[oi]);
            if !base_choices[oi].candidates.is_empty() && cur > 0 && grade_cap[oi] >= cur {
                grade_cap[oi] = cur - 1;
                return Ok(Remedy::TightenOp);
            }
            // Two remaining remedies, chosen by estimated area cost:
            //
            // * **Add a resource** (paper: "add resource") when the lateness
            //   is resource-induced — some op in the failing op's input cone
            //   was deferred by an allocation limit. Cost ≈ the cheapest
            //   instance of the pressured class.
            // * **Force a faster grade** on the slowest predecessor in the
            //   cone (paper: "update resource delays"). Cost = that op's
            //   area increase.
            let compat = classes_for(design.dfg.op(f.op).kind());
            let class_cost = |class: ResClass| -> f64 {
                base_choices
                    .iter()
                    .filter_map(|c| c.candidates.iter().find(|cand| cand.class == class))
                    .map(|cand| cand.grade.area)
                    .fold(f64::INFINITY, f64::min)
            };
            let bump_candidate: Option<(ResClass, u32, f64)> = if f.cone_resource_deferred {
                f.pressure
                    .iter()
                    .find(|(c, n)| *n > 0 && compat.contains(c))
                    .or_else(|| f.pressure.iter().find(|(_, n)| *n > 0))
                    .map(|&(c, n)| (c, n, class_cost(c)))
            } else {
                None
            };
            // Cone capping candidate: the slowest predecessor with headroom.
            let mut cone: Option<(OpId, u64)> = None;
            let mut stack = vec![f.op];
            let mut seen = vec![false; design.dfg.len_ids()];
            while let Some(o) = stack.pop() {
                if seen[o.0 as usize] {
                    continue;
                }
                seen[o.0 as usize] = true;
                for p in design.dfg.forward_operands(o) {
                    let pi = p.0 as usize;
                    if grade_cap[pi] > 0 && !base_choices[pi].candidates.is_empty() {
                        let d = base_choices[pi].candidates
                            [grade_cap[pi].min(base_choices[pi].candidates.len() - 1)]
                        .grade
                        .delay_ps;
                        if cone.is_none_or(|(_, bd)| d > bd) {
                            cone = Some((p, d));
                        }
                    }
                    stack.push(p);
                }
            }
            let cone_cost = cone.map(|(p, _)| {
                let pi = p.0 as usize;
                let cands = &base_choices[pi].candidates;
                let old = cands[grade_cap[pi].min(cands.len() - 1)].grade.area;
                let new = cands[(grade_cap[pi] / 2).min(cands.len() - 1)].grade.area;
                (new - old).max(0.0)
            });
            match (bump_candidate, cone, cone_cost) {
                (Some((class, n, bcost)), Some(_), Some(ccost)) if bcost <= ccost => {
                    let bump = (n as usize / 64).clamp(1, 8);
                    *limits.entry(class).or_insert(0) += bump;
                    Ok(Remedy::AddResource)
                }
                (_, Some((p, _)), _) => {
                    // Halve rather than decrement: repeated timing failures
                    // on long chains would otherwise need one restart per
                    // grade step per chain op.
                    grade_cap[p.0 as usize] /= 2;
                    Ok(Remedy::CapCone)
                }
                (Some((class, n, _)), None, _) => {
                    let bump = (n as usize / 64).clamp(1, 8);
                    *limits.entry(class).or_insert(0) += bump;
                    Ok(Remedy::AddResource)
                }
                (None, None, _) => Err(Error::Transform(format!(
                    "timing overconstrained at {}: whole input cone already at fastest grades",
                    f.op
                ))),
            }
        }
    }
}

/// The instances one op kind may bind to — every instance whose class is
/// in the kind's compatible set — in the order placement tries them:
/// slowest first (fast ones are saved for critical ops), then by id.
#[derive(Debug)]
struct InstanceList {
    classes: &'static [ResClass],
    insts: Vec<InstId>,
}

/// Fixed-size bitset over CFG edges.
#[derive(Debug, Clone)]
struct EdgeSet(Vec<u64>);

impl EdgeSet {
    fn new(n_edges: usize) -> Self {
        EdgeSet(vec![0; n_edges.div_ceil(64)])
    }

    fn insert(&mut self, e: usize) {
        self.0[e / 64] |= 1 << (e % 64);
    }

    fn contains(&self, e: usize) -> bool {
        self.0[e / 64] & (1 << (e % 64)) != 0
    }
}

/// One `Schedule_pass` attempt.
struct Pass<'a> {
    design: &'a Design,
    info: &'a CfgInfo,
    span_analysis: &'a SpanAnalysis,
    lib: &'a Library,
    opts: &'a HlsOptions,
    choices: &'a [OpChoice],
    spans: SpanBounds,
    /// Current grade index per op (None for fixed-delay ops).
    grade_idx: Vec<Option<usize>>,
    /// Priority: sequential slack from the latest analysis.
    prio: Vec<i64>,
    sched_edge: Vec<Option<EdgeId>>,
    start: Vec<i64>,
    eff_delay: Vec<i64>,
    inst_of: Vec<Option<InstId>>,
    alloc: Allocation,
    /// Ops bound per instance.
    uses: Vec<Vec<OpId>>,
    /// Per instance: the edges where a one-cycle use would conflict with
    /// one of its uses (`use_conflicts` evaluated at commit).
    busy: Vec<EdgeSet>,
    /// Placement order per compatible class set, built on first use and
    /// kept current as instances are created.
    inst_lists: Vec<InstanceList>,
    /// Unscheduled forward-operand count per op.
    preds_left: Vec<u32>,
    /// Root edge for pipeline cycle positions.
    root_edge: EdgeId,
    /// Resource-deferral events per class (allocation-limit hits).
    pressure: std::collections::BTreeMap<ResClass, u32>,
    /// Last deferral reason per op (diagnoses must-schedule failures).
    defer_reason: Vec<Option<NoFit>>,
    /// Shared prefix artifacts (incremental path); `None` runs from scratch.
    prep: Option<&'a PreparedDesign>,
    /// The timed DFG over the unpinned bounds, copied into `tdfg` on the
    /// pass's first rebudget (only the slack flow rebudgets).
    init_tdfg: &'a TimedDfg,
    /// Timed DFG over `spans`, reweighted in place per rebudget; the run
    /// keeps one buffer for all its passes.
    tdfg: &'a mut Option<TimedDfg>,
    /// Whether `tdfg` holds this pass's state yet.
    tdfg_ready: bool,
    /// Ops pinned since the last rebudget updated the bounds.
    new_pins: Vec<OpId>,
    /// Scratch: ops whose bounds the last update moved.
    moved: Vec<OpId>,
    /// True when a commit changed the budget's inputs (a pin, a locked
    /// delay) since the last rebudget. While false, the pinned bounds and
    /// reweighted timed DFG held in `spans`/`tdfg` are exactly what a
    /// recomputation would produce, so rebudget skips both.
    pins_dirty: bool,
    /// True when the last rebudget's grade assignment equaled its warm
    /// start — the budget relaxation is at a fixed point. Together with
    /// `!pins_dirty` this makes the next rebudget's inputs identical to the
    /// last one's, so its outputs already sit in `grade_idx`/`prio` and the
    /// whole call is skipped. Purely an elision of recomputation: results
    /// are bit-identical with the flag ignored.
    budget_stable: bool,
    /// Live operations not yet placed. Once zero, the remaining edge
    /// iterations are observationally dead — readiness scans and
    /// must-schedule checks only inspect unscheduled ops, and rebudget
    /// only writes grades of unscheduled ops (`prio` is never read after
    /// the run) — so the pass ends early.
    unscheduled: usize,
    stats: &'a mut RunStats,
}

impl<'a> Pass<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        design: &'a Design,
        info: &'a CfgInfo,
        span_analysis: &'a SpanAnalysis,
        lib: &'a Library,
        opts: &'a HlsOptions,
        choices: &'a [OpChoice],
        prep: Option<&'a PreparedDesign>,
        init_bounds: &SpanBounds,
        init_tdfg: &'a TimedDfg,
        tdfg: &'a mut Option<TimedDfg>,
        init: &ClockContext,
        stats: &'a mut RunStats,
    ) -> Self {
        let n = design.dfg.len_ids();
        let mut preds_left = vec![0u32; n];
        for o in design.dfg.op_ids() {
            preds_left[o.0 as usize] = design
                .dfg
                .forward_operands(o)
                .filter(|&p| !design.dfg.op(p).kind().is_const())
                .count() as u32;
        }
        let root_edge = info.edge_topo().first().copied().unwrap_or(EdgeId(0));
        Pass {
            design,
            info,
            span_analysis,
            lib,
            opts,
            choices,
            spans: init_bounds.clone(),
            grade_idx: init.grade_idx.clone(),
            prio: init.prio.clone(),
            sched_edge: vec![None; n],
            start: vec![0; n],
            eff_delay: init.eff_delay.clone(),
            inst_of: vec![None; n],
            alloc: Allocation::new(),
            uses: Vec::new(),
            busy: Vec::new(),
            inst_lists: Vec::new(),
            preds_left,
            root_edge,
            pressure: std::collections::BTreeMap::new(),
            defer_reason: vec![None; n],
            prep,
            init_tdfg,
            tdfg,
            tdfg_ready: false,
            new_pins: Vec::new(),
            moved: Vec::new(),
            pins_dirty: true,
            budget_stable: false,
            unscheduled: design.dfg.op_ids().count(),
            stats,
        }
    }

    fn clock(&self) -> i64 {
        self.opts.clock_ps as i64
    }

    fn mux_penalty(&self) -> i64 {
        mux_penalty(self.lib, self.opts)
    }

    /// Re-runs slack budgeting with scheduled operations pinned and locked
    /// (paper `Schedule_pass` steps c–d).
    ///
    /// Elides work it can prove is a recomputation of the current state:
    /// while no commit dirtied the pins, the pinned bounds and reweighted
    /// timed DFG are unchanged and are reused as-is, and once the budget's
    /// grade assignment additionally reproduces its own warm start
    /// (`budget_stable`), rerunning it would return exactly the values
    /// already in `grade_idx`/`prio` — the call returns immediately. Both
    /// elisions are input-identity arguments, not heuristics, so results
    /// stay bit-identical on every path.
    fn rebudget(&mut self) -> Result<()> {
        if !self.pins_dirty && self.budget_stable {
            self.stats.rebudget_elided += 1;
            return Ok(());
        }
        let dfg = &self.design.dfg;
        let t0 = self.stats.start();
        if self.pins_dirty {
            // New pins move only the bounds of their fan-out (early) and
            // fan-in (late), and only edges incident to a moved op change
            // weight: update both in place.
            let sched_edge = &self.sched_edge;
            self.span_analysis.repin(
                dfg,
                self.info,
                &mut self.spans,
                |o| sched_edge[o.0 as usize],
                &self.new_pins,
                &mut self.moved,
            )?;
            self.new_pins.clear();
            let tdfg = match (self.tdfg_ready, &mut *self.tdfg) {
                (true, Some(t)) => t,
                (false, Some(t)) => {
                    t.clone_from(self.init_tdfg);
                    t
                }
                (_, slot) => slot.insert(self.init_tdfg.clone()),
            };
            self.tdfg_ready = true;
            let spans = &self.spans;
            tdfg.reweight_ops(
                self.info,
                &self.moved,
                |o| spans.early(o),
                |o| spans.late(o),
            )?;
        }
        let t1 = self.stats.start();
        if let (Some(t0), Some(t1)) = (t0, t1) {
            self.stats.bounds += t1 - t0;
        }
        let bopts = budget_opts(self.lib, self.opts);
        let sched_edge = &self.sched_edge;
        let eff_delay = &self.eff_delay;
        let pinned =
            |o: OpId| sched_edge[o.0 as usize].map(|_| eff_delay[o.0 as usize].max(0) as u64);
        let tdfg = self
            .tdfg
            .as_ref()
            .filter(|_| self.tdfg_ready)
            .expect("rebudget ran at least once with dirty pins");
        let r = budget_with_choices_from(
            tdfg,
            self.choices,
            self.opts.clock_ps,
            &bopts,
            pinned,
            Some(&self.grade_idx),
        );
        let mut moved = false;
        for o in dfg.op_ids() {
            let i = o.0 as usize;
            if self.sched_edge[i].is_none() && !self.choices[i].candidates.is_empty() {
                moved |= self.grade_idx[i] != r.choice_idx[i];
                self.grade_idx[i] = r.choice_idx[i];
            }
        }
        self.prio = r.slack.slack;
        self.pins_dirty = false;
        self.budget_stable = !moved;
        let stats = &mut *self.stats;
        stats.rebudget_run += 1;
        stats.budget_moves += r.moves;
        stats.budget_reverted += r.reverted;
        stats.slack_evals += r.slack_evals;
        lap(&mut stats.budget, t1);
        Ok(())
    }

    /// Runs the pass. Placement time is the pass's wall time minus the
    /// bounds and budgeting time spent inside it, which keeps clock reads
    /// off the per-edge placement path.
    fn run(&mut self) -> std::result::Result<(), PassFailure> {
        let t0 = self.stats.start();
        let inner = self.stats.bounds + self.stats.budget;
        let r = self.walk_edges();
        if let Some(t0) = t0 {
            let inner = self.stats.bounds + self.stats.budget - inner;
            self.stats.place += t0.elapsed().saturating_sub(inner);
        }
        r
    }

    fn walk_edges(&mut self) -> std::result::Result<(), PassFailure> {
        let edges: Vec<EdgeId> = self.info.edge_topo().to_vec();
        for e in edges {
            self.place_edge(e)?;
            if self.unscheduled == 0 {
                // Nothing left to place: the remaining edges cannot fail a
                // must-schedule check, and further rebudgets only write
                // state no one reads. Identical outcome, less work.
                break;
            }
            if self.opts.flow == Flow::SlackBased && self.rebudget().is_err() {
                // Re-analysis failures mean inconsistent pinning — surface
                // as a timing failure on the first unscheduled op.
                let op = self
                    .design
                    .dfg
                    .op_ids()
                    .find(|&o| self.sched_edge[o.0 as usize].is_none())
                    .unwrap_or(OpId(0));
                return Err(self.failure(op, NoFit::Timing));
            }
        }
        // Everything must be scheduled now.
        match self
            .design
            .dfg
            .op_ids()
            .find(|&o| self.sched_edge[o.0 as usize].is_none())
        {
            Some(o) => Err(self.failure(o, NoFit::Timing)),
            None => Ok(()),
        }
    }

    /// Places ready operations on edge `e`, then runs the must-schedule
    /// check for the ops whose span ends there.
    fn place_edge(&mut self, e: EdgeId) -> std::result::Result<(), PassFailure> {
        match self.prep {
            Some(p) => self.schedule_edge_indexed(e, p),
            None => self.schedule_edge(e),
        }
        if self.unscheduled == 0 {
            return Ok(());
        }
        for o in self.design.dfg.op_ids() {
            if self.sched_edge[o.0 as usize].is_none()
                && self.spans.late(o) == e
                && self.preds_left[o.0 as usize] == 0
            {
                // Last chance: try with on-the-fly upgrades.
                if let Err(reason) = self.try_place_with_upgrades(o, e) {
                    return Err(self.failure(o, reason));
                }
            }
        }
        Ok(())
    }

    /// The pass failure for `op`, with the diagnostics relaxation needs.
    fn failure(&self, op: OpId, reason: NoFit) -> PassFailure {
        PassFailure {
            op,
            reason,
            grade_at_failure: self.grade_idx[op.0 as usize],
            pressure: self.pressure_ranked(),
            cone_resource_deferred: self.cone_resource_deferred(op),
        }
    }

    /// Places ready operations on edge `e`, most critical first.
    fn schedule_edge(&mut self, e: EdgeId) {
        let dfg = &self.design.dfg;
        // Worklist of ready ops, re-sorted lazily; each op attempted once.
        let mut attempted = vec![false; dfg.len_ids()];
        loop {
            let mut ready: Vec<OpId> = dfg
                .op_ids()
                .filter(|&o| {
                    let i = o.0 as usize;
                    self.sched_edge[i].is_none()
                        && !attempted[i]
                        && self.preds_left[i] == 0
                        && self.spans.contains(self.span_analysis, self.info, o, e)
                })
                .collect();
            if ready.is_empty() {
                return;
            }
            ready.sort_by_key(|&o| (self.prio[o.0 as usize], o.0));
            let mut placed_any = false;
            for o in ready {
                attempted[o.0 as usize] = true;
                if self.attempt(o, e) {
                    placed_any = true;
                    break; // refresh ready set: users may now be ready
                }
            }
            if !placed_any {
                return;
            }
        }
    }

    /// One placement attempt of a ready op at its current grade; on
    /// failure the slowest-upgrade flow tries faster grades right away
    /// (Case 2), the others defer to a later span edge. Returns whether
    /// the op was placed.
    fn attempt(&mut self, o: OpId, e: EdgeId) -> bool {
        let i = o.0 as usize;
        match self.try_place(o, e, self.grade_idx[i]) {
            Ok(()) => true,
            Err(r) => {
                let upgraded =
                    self.opts.flow == Flow::SlowestUpgrade && self.try_upgrade_in_place(o, e);
                if !upgraded {
                    self.defer_reason[i] = Some(r);
                }
                upgraded
            }
        }
    }

    /// [`Pass::schedule_edge`] over the prepared per-edge legality index: a
    /// worklist heap seeded from `edge_ops(e)` instead of repeated all-ops
    /// rescans after every placement.
    ///
    /// **Attempt-order equivalence.** Within one `schedule_edge` call the
    /// bounds and priorities are fixed (rebudgeting happens between edges),
    /// so an op's readiness — unscheduled, no pending operands, bounds
    /// contain `e` — can only switch from false to true, and only when a
    /// placement commits. The rescan loop attempts, after each commit, the
    /// not-yet-attempted ready op with the least `(prio, id)`; a min-heap
    /// seeded with the initially-ready ops and fed the newly-ready users on
    /// each commit pops exactly that op. Every candidate satisfies
    /// `e ∈ legal(o)` (`contains` requires it; an unpinned op's early edge
    /// is drawn from its legal list), so seeding from the legality index
    /// instead of all ops drops no one.
    fn schedule_edge_indexed(&mut self, e: EdgeId, prep: &PreparedDesign) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let dfg = &self.design.dfg;
        let mut queued = vec![false; dfg.len_ids()];
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
        for &o in prep.edge_ops(e) {
            let i = o.0 as usize;
            if self.sched_edge[i].is_none()
                && self.preds_left[i] == 0
                && self.spans.contains(self.span_analysis, self.info, o, e)
            {
                queued[i] = true;
                heap.push(Reverse((self.prio[i], o.0)));
            }
        }
        while let Some(Reverse((_, oi))) = heap.pop() {
            let o = OpId(oi);
            if self.attempt(o, e) {
                // Users whose last pending operand just committed become
                // ready now — exactly when the rescan would first see them.
                for &(u, idx) in dfg.users(o) {
                    if dfg.is_loop_carried(u, idx) {
                        continue;
                    }
                    let ui = u.0 as usize;
                    if !queued[ui]
                        && self.sched_edge[ui].is_none()
                        && self.preds_left[ui] == 0
                        && self.spans.contains(self.span_analysis, self.info, u, e)
                    {
                        queued[ui] = true;
                        heap.push(Reverse((self.prio[ui], u.0)));
                    }
                }
            }
        }
    }

    /// Last-edge placement: walk grades from the current one toward the
    /// fastest until placement succeeds.
    fn try_place_with_upgrades(&mut self, o: OpId, e: EdgeId) -> std::result::Result<(), NoFit> {
        let i = o.0 as usize;
        let start_idx = self.grade_idx[i];
        let mut last_err = NoFit::Timing;
        match start_idx {
            None => self.try_place(o, e, None),
            Some(k0) => {
                for k in (0..=k0).rev() {
                    match self.try_place(o, e, Some(k)) {
                        Ok(()) => {
                            self.grade_idx[i] = Some(k);
                            return Ok(());
                        }
                        Err(r) => last_err = r,
                    }
                }
                Err(last_err)
            }
        }
    }

    /// Case-2 style mid-pass upgrade: try faster grades right away.
    fn try_upgrade_in_place(&mut self, o: OpId, e: EdgeId) -> bool {
        let i = o.0 as usize;
        let Some(k0) = self.grade_idx[i] else {
            return false;
        };
        for k in (0..k0).rev() {
            if self.try_place(o, e, Some(k)).is_ok() {
                self.grade_idx[i] = Some(k);
                return true;
            }
        }
        false
    }

    /// Arrival of `o`'s operands in edge-`e` local time (0 = state start).
    fn avail_at(&self, o: OpId, e: EdgeId) -> Option<i64> {
        let dfg = &self.design.dfg;
        let t = self.clock();
        let mut avail = 0i64;
        for p in dfg.forward_operands(o) {
            if dfg.op(p).kind().is_const() {
                continue;
            }
            let pi = p.0 as usize;
            let pe = self.sched_edge[pi]?;
            let lat = self.info.latency(pe, e)?;
            let ready = self.start[pi] + self.eff_delay[pi] - t * i64::from(lat);
            avail = avail.max(ready);
        }
        Some(avail)
    }

    /// Cycle position of an edge for modulo (pipeline) reservation.
    fn pipe_pos(&self, e: EdgeId) -> Option<u32> {
        self.info.latency(self.root_edge, e)
    }

    /// Cycles occupied by a committed op (from its start and delay).
    fn cycles_used(&self, u: OpId) -> u32 {
        let ui = u.0 as usize;
        ((self.start[ui] + self.eff_delay[ui] - 1).max(0) / self.clock()) as u32 + 1
    }

    /// The per-use conflict predicate: whether a use at `e` occupying
    /// `cycles` cycles collides with an existing use at `ue` occupying
    /// `uc` cycles, in the same iteration or (pipelined) across
    /// iterations.
    fn use_conflicts(&self, e: EdgeId, cycles: u32, ue: EdgeId, uc: u32) -> bool {
        // Same-iteration conflicts.
        if self.info.same_cycle(e, ue) {
            return true;
        }
        if cycles > 1 || uc > 1 {
            if self.info.latency(e, ue).is_some_and(|dist| dist < cycles) {
                return true;
            }
            if self.info.latency(ue, e).is_some_and(|dist| dist < uc) {
                return true;
            }
        }
        // Cross-iteration (pipeline) conflicts.
        if let Some(ii) = self.opts.pipeline_ii {
            if let (Some(pa), Some(pb)) = (self.pipe_pos(e), self.pipe_pos(ue)) {
                for ca in 0..cycles {
                    for cb in 0..uc {
                        if (pa + ca) % ii == (pb + cb) % ii {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Whether a use of `inst` at `e` occupying `cycles` cycles conflicts
    /// with its existing uses: one bit test for one-cycle uses, a scan of
    /// the uses otherwise.
    fn conflicts(&self, inst: InstId, e: EdgeId, cycles: u32) -> bool {
        if cycles == 1 {
            return self.busy[inst.0 as usize].contains(e.0 as usize);
        }
        self.uses[inst.0 as usize].iter().any(|&u| {
            let ue = self.sched_edge[u.0 as usize].expect("bound op must be scheduled");
            self.use_conflicts(e, cycles, ue, self.cycles_used(u))
        })
    }

    /// The placement list for `classes`, building it on first use.
    fn instance_list(&mut self, classes: &'static [ResClass]) -> usize {
        if let Some(k) = self.inst_lists.iter().position(|l| l.classes == classes) {
            return k;
        }
        let alloc = &self.alloc;
        let mut insts: Vec<InstId> = alloc
            .iter()
            .filter(|(_, inst)| classes.contains(&inst.class()))
            .map(|(id, _)| id)
            .collect();
        insts.sort_by_key(|&id| std::cmp::Reverse(alloc.instance(id).delay_ps()));
        self.inst_lists.push(InstanceList { classes, insts });
        self.inst_lists.len() - 1
    }

    /// Attempts to place `o` on edge `e` at grade `grade` (None = fixed
    /// delay). Commits on success.
    fn try_place(
        &mut self,
        o: OpId,
        e: EdgeId,
        grade: Option<usize>,
    ) -> std::result::Result<(), NoFit> {
        let i = o.0 as usize;
        let t = self.clock();
        let avail = self.avail_at(o, e).ok_or(NoFit::Timing)?.max(0);
        let ch = &self.choices[i];

        if ch.candidates.is_empty() {
            // Fixed-delay op (I/O, φ, const, input): no instance needed.
            let d = ch.fixed_ps.unwrap_or(0) as i64;
            let s = align_start_up(avail, d, t);
            if s >= t || s + d > t {
                return Err(NoFit::Timing);
            }
            self.commit(o, e, s, d, None);
            return Ok(());
        }

        let k = grade.expect("resource op must carry a grade");
        let cand = ch.candidates[k];
        let width = op_resource_width(&self.design.dfg, o);
        let list = self.instance_list(classes_for(self.design.dfg.op(o).kind()));

        // Existing instances, slowest-fitting first (save fast ones for
        // critical ops).
        let mut any_conflict_free_but_slow = false;
        let mut fitting = None;
        for &id in &self.inst_lists[list].insts {
            let inst = self.alloc.instance(id);
            if inst.width < width {
                continue;
            }
            let d = inst.delay_ps() as i64 + self.mux_penalty();
            let Some((s, cycles)) = self.fit(avail, d, t) else {
                any_conflict_free_but_slow = true;
                continue;
            };
            if !self.conflicts(id, e, cycles) {
                fitting = Some((id, s, d));
                break;
            }
        }
        if let Some((id, s, d)) = fitting {
            self.commit(o, e, s, d, Some(id));
            return Ok(());
        }

        // New instance of the requested grade.
        let d = cand.grade.delay_ps as i64 + self.mux_penalty();
        match self.fit(avail, d, t) {
            Some((s, _cycles)) => {
                if self.alloc.can_grow(cand.class) {
                    let id = self.alloc.create(cand, width).expect("can_grow checked");
                    self.index_instance(id);
                    self.commit(o, e, s, d, Some(id));
                    Ok(())
                } else if any_conflict_free_but_slow {
                    // A fresh instance would have fit but the class is at
                    // its limit: that is resource pressure too.
                    *self.pressure.entry(cand.class).or_insert(0) += 1;
                    Err(NoFit::Timing)
                } else {
                    *self.pressure.entry(cand.class).or_insert(0) += 1;
                    Err(NoFit::Resource(cand.class))
                }
            }
            None => Err(NoFit::Timing),
        }
    }

    /// Registers a new instance with the placement lists (after every
    /// instance at least as slow, all of which have smaller ids) and gives
    /// it an empty use set.
    fn index_instance(&mut self, id: InstId) {
        let inst = self.alloc.instance(id);
        let (class, delay) = (inst.class(), inst.delay_ps());
        for l in &mut self.inst_lists {
            if l.classes.contains(&class) {
                let alloc = &self.alloc;
                let at = l
                    .insts
                    .partition_point(|&x| alloc.instance(x).delay_ps() >= delay);
                l.insts.insert(at, id);
            }
        }
        self.uses.push(Vec::new());
        self.busy.push(EdgeSet::new(self.info.len_edges()));
    }

    /// Aligned placement of a delay-`d` op whose operands arrive at `avail`
    /// (local time); returns (start, cycles) or None when it cannot start
    /// within this edge's cycle.
    fn fit(&self, avail: i64, d: i64, t: i64) -> Option<(i64, u32)> {
        let s = align_start_up(avail, d, t);
        if s >= t || s < 0 {
            return None; // belongs to a later edge
        }
        if d <= t {
            if s + d <= t {
                Some((s, 1))
            } else {
                None
            }
        } else if s == 0 {
            Some((0, ((d + t - 1) / t) as u32))
        } else {
            None
        }
    }

    fn commit(&mut self, o: OpId, e: EdgeId, s: i64, d: i64, inst: Option<InstId>) {
        let i = o.0 as usize;
        // A new pin (and locked delay) changes the budget's inputs — the
        // next rebudget must recompute bounds and grades.
        self.pins_dirty = true;
        self.budget_stable = false;
        self.new_pins.push(o);
        self.unscheduled -= 1;
        self.sched_edge[i] = Some(e);
        self.start[i] = s;
        self.eff_delay[i] = d;
        self.inst_of[i] = inst;
        if let Some(id) = inst {
            self.uses[id.0 as usize].push(o);
            // Every edge where a one-cycle use would now collide.
            let uc = self.cycles_used(o);
            for f in 0..self.info.len_edges() {
                if self.use_conflicts(EdgeId(f as u32), 1, e, uc) {
                    self.busy[id.0 as usize].insert(f);
                }
            }
        }
        for (u, idx) in self.design.dfg.users(o).iter().copied() {
            if self.design.dfg.is_loop_carried(u, idx) {
                continue;
            }
            let ui = u.0 as usize;
            if self.preds_left[ui] > 0 {
                self.preds_left[ui] -= 1;
            }
        }
    }

    /// True when any op in `o`'s transitive input cone was last deferred by
    /// a resource limit.
    fn cone_resource_deferred(&self, o: OpId) -> bool {
        let mut seen = vec![false; self.design.dfg.len_ids()];
        let mut stack = vec![o];
        while let Some(x) = stack.pop() {
            let xi = x.0 as usize;
            if seen[xi] {
                continue;
            }
            seen[xi] = true;
            if matches!(self.defer_reason[xi], Some(NoFit::Resource(_))) {
                return true;
            }
            stack.extend(self.design.dfg.forward_operands(x));
        }
        false
    }

    /// Deferral counts sorted most-pressured-first.
    fn pressure_ranked(&self) -> Vec<(ResClass, u32)> {
        let mut v: Vec<(ResClass, u32)> = self.pressure.iter().map(|(&c, &n)| (c, n)).collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }

    fn into_schedule(self) -> Schedule {
        Schedule {
            clock_ps: self.opts.clock_ps,
            edge_of: self.sched_edge,
            start_ps: self.start,
            delay_ps: self.eff_delay,
            instance_of: self.inst_of,
            allocation: self.alloc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;
    use adhls_reslib::tsmc90;

    fn two_chained_muls() -> Design {
        let mut b = DesignBuilder::new("two");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        b.soft_waits(1);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        b.write("y", m2);
        b.finish().unwrap()
    }

    #[test]
    fn slack_flow_schedules_and_validates() {
        let d = two_chained_muls();
        let lib = tsmc90::library();
        let opts = HlsOptions {
            clock_ps: 1100,
            flow: Flow::SlackBased,
            ..Default::default()
        };
        let r = run_hls(&d, &lib, &opts).unwrap();
        assert!(r.area.total > 0.0);
        assert_eq!(
            r.schedule.allocation.len(),
            1,
            "both muls share one instance"
        );
    }

    #[test]
    fn conventional_uses_fastest_grades() {
        let d = two_chained_muls();
        let lib = tsmc90::library();
        let opts = HlsOptions {
            clock_ps: 1100,
            flow: Flow::Conventional,
            area_recovery: false,
            ..Default::default()
        };
        let r = run_hls(&d, &lib, &opts).unwrap();
        for inst in r.schedule.allocation.instances() {
            assert_eq!(inst.delay_ps(), 430);
        }
    }

    #[test]
    fn slack_flow_beats_conventional_on_loose_budget() {
        // 3-cycle budget for two independent muls: slack flow should pick
        // cheap slow grades; conventional pays for the fastest.
        let mut b = DesignBuilder::new("loose");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, y, y, 8);
        b.soft_waits(2);
        let s = b.binop(OpKind::Add, m1, m2, 16);
        b.write("z", s);
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let conv = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 700,
                flow: Flow::Conventional,
                ..Default::default()
            },
        )
        .unwrap();
        let slack = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 700,
                flow: Flow::SlackBased,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            slack.area.total <= conv.area.total,
            "slack {} should not exceed conventional {}",
            slack.area.total,
            conv.area.total
        );
    }

    #[test]
    fn resource_limit_forces_serialization() {
        // Two independent muls, 1-cycle budget: needs 2 instances; with a
        // 2-cycle budget the limit of 1 instance serializes them.
        let mut b = DesignBuilder::new("serial");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, y, y, 8);
        b.soft_waits(1);
        let s = b.binop(OpKind::Add, m1, m2, 16);
        b.write("z", s);
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let r = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 1100,
                flow: Flow::SlackBased,
                ..Default::default()
            },
        )
        .unwrap();
        // Initial limit = ceil(2 muls / 2 states)... states = 1 soft + 0
        // hard = 1 -> wait: soft_waits(1) adds one state; cycles=1 -> limit 2.
        // Accept either outcome but require a valid schedule.
        assert!(
            r.schedule
                .allocation
                .count(adhls_reslib::ResClass::Multiplier)
                <= 2
        );
    }

    #[test]
    fn infeasible_clock_errors_out() {
        // A mul chained into a write in one 200ps cycle can never fit.
        let mut b = DesignBuilder::new("never");
        let x = b.input("x", 8);
        let m = b.binop(OpKind::Mul, x, x, 8);
        b.write("y", m);
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let err = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 200,
                flow: Flow::SlackBased,
                ..Default::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn pipeline_ii_reserves_modulo() {
        // A 4-cycle loop body with 4 muls, II=1: every mul needs its own
        // instance despite being in different cycles.
        let mut b = DesignBuilder::new("pipe");
        let lp = b.enter_loop();
        let x = b.read("in", 8);
        let mut cur = x;
        let mut muls = Vec::new();
        for _ in 0..4 {
            cur = b.binop(OpKind::Mul, cur, cur, 8);
            muls.push(cur);
            b.wait();
        }
        b.write("out", cur);
        b.wait();
        b.close_loop(lp);
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let seq = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 1100,
                flow: Flow::SlackBased,
                ..Default::default()
            },
        )
        .unwrap();
        let piped = run_hls(
            &d,
            &lib,
            &HlsOptions {
                clock_ps: 1100,
                flow: Flow::SlackBased,
                pipeline_ii: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        let cls = adhls_reslib::ResClass::Multiplier;
        assert!(piped.schedule.allocation.count(cls) > seq.schedule.allocation.count(cls));
        assert_eq!(piped.schedule.allocation.count(cls), 4);
    }

    #[test]
    fn budget_moves_count_the_slack_flows_budgeting() {
        // Two muls chained in one 1100ps cycle: their slowest grades miss
        // it, so budgeting has to move grades.
        let mut b = DesignBuilder::new("chain");
        let x = b.input("x", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, m1, m1, 8);
        b.wait();
        b.write("y", m2);
        let d = b.finish().unwrap();
        let lib = tsmc90::library();
        let opts = |flow| HlsOptions {
            clock_ps: 1100,
            flow,
            ..Default::default()
        };
        let slack = run_hls(&d, &lib, &opts(Flow::SlackBased)).unwrap();
        assert!(slack.budget_moves > 0);
        let conv = run_hls(&d, &lib, &opts(Flow::Conventional)).unwrap();
        assert_eq!(conv.budget_moves, 0);

        // The prepared path reports the same count whether it computes the
        // initial budget or restores it from the clock context, and the
        // `pipeline.budget.moves` counter sums exactly these counts.
        let prep = PreparedDesign::new(&d, &lib).unwrap();
        let reg = adhls_telemetry::Registry::new();
        reg.set_enabled(true);
        let _g = adhls_telemetry::install(&reg);
        for _ in 0..2 {
            let r = run_hls_prepared(&prep, &lib, &opts(Flow::SlackBased)).unwrap();
            assert_eq!(r.budget_moves, slack.budget_moves);
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("pipeline.budget.moves"),
            Some(2 * slack.budget_moves as u64)
        );
        assert_eq!(
            snap.counter("pipeline.rebudget.elided").map(|n| n > 0),
            Some(true)
        );
        assert_eq!(snap.histogram("pipeline.relax.rounds").unwrap().count, 2);
    }

    /// Runs one pass of `opts.flow` over `d` with generous instance limits
    /// and checks every (edge, instance) one-cycle query: the busy bitset
    /// must answer exactly like a scan of the instance's uses. Returns the
    /// number of shared instances and of multi-cycle uses it saw.
    fn check_busy_bitsets(d: &Design, opts: &HlsOptions) -> (usize, usize) {
        let lib = tsmc90::library();
        let prep = PreparedDesign::new(d, &lib).unwrap();
        let choices = prep.base_choices();
        let init = initial_grades(d, &lib, opts, choices, prep.initial_tdfg());
        let mut stats = RunStats::default();
        let mut tdfg = None;
        let mut pass = Pass::new(
            d,
            prep.info(),
            prep.span_analysis(),
            &lib,
            opts,
            choices,
            Some(&prep),
            prep.initial_bounds(),
            prep.initial_tdfg(),
            &mut tdfg,
            &init,
            &mut stats,
        );
        for class in ResClass::ALL {
            pass.alloc.set_limit(class, 64);
        }
        let _ = pass.run();
        let (mut shared, mut multi) = (0, 0);
        for (id, _) in pass.alloc.iter() {
            let uses = &pass.uses[id.0 as usize];
            shared += usize::from(uses.len() > 1);
            multi += uses.iter().filter(|&&u| pass.cycles_used(u) > 1).count();
            for f in 0..pass.info.len_edges() {
                let e = EdgeId(f as u32);
                let scan = uses.iter().any(|&u| {
                    let ue = pass.sched_edge[u.0 as usize].unwrap();
                    pass.use_conflicts(e, 1, ue, pass.cycles_used(u))
                });
                assert_eq!(pass.conflicts(id, e, 1), scan, "{id} queried at {e}");
            }
        }
        (shared, multi)
    }

    #[test]
    fn busy_bitsets_answer_like_the_use_scan() {
        // Pipelined: a 4-stage mul chain, modulo-reserved at II 2.
        let mut b = DesignBuilder::new("pipe");
        let lp = b.enter_loop();
        let mut cur = b.read("in", 8);
        for _ in 0..4 {
            cur = b.binop(OpKind::Mul, cur, cur, 8);
            b.wait();
        }
        b.write("out", cur);
        b.wait();
        b.close_loop(lp);
        let piped = b.finish().unwrap();
        let opts = HlsOptions {
            clock_ps: 1100,
            pipeline_ii: Some(2),
            ..Default::default()
        };
        let (shared, _) = check_busy_bitsets(&piped, &opts);
        assert!(shared > 0, "pipelined muls share an instance");

        // Multi-cycle: muls slower than the 300ps clock.
        let mut b = DesignBuilder::new("multi");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let m1 = b.binop(OpKind::Mul, x, y, 8);
        let m2 = b.binop(OpKind::Mul, m1, x, 8);
        let m3 = b.binop(OpKind::Mul, m2, y, 8);
        b.soft_waits(8);
        b.write("z", m3);
        let multi_design = b.finish().unwrap();
        for flow in [Flow::SlackBased, Flow::Conventional] {
            let opts = HlsOptions {
                clock_ps: 300,
                flow,
                ..Default::default()
            };
            let (_, multi) = check_busy_bitsets(&multi_design, &opts);
            assert!(multi > 0, "{flow:?}: some use spans several cycles");
        }

        // Fork/join: both branches of an `if` share a multiplier.
        let branchy = adhls_ir::frontend::compile(
            "proc branchy(in a: u16, in b: u16, out o: u16) {
                loop {
                    let x: u16 = read(a) * 3;
                    if x > 100 {
                        wait;
                        y = x * x + 7;
                    } else {
                        wait;
                        y = x * read(b) - 2;
                    }
                    wait;
                    write(o, y * 5);
                }
            }",
        )
        .unwrap();
        let opts = HlsOptions {
            clock_ps: 2000,
            ..Default::default()
        };
        let (shared, _) = check_busy_bitsets(&branchy, &opts);
        assert!(shared > 0, "branch-exclusive muls share an instance");
    }
}
