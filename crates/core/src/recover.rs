//! Post-binding slack recovery — the cheap second point generator
//! (ROADMAP item 3).
//!
//! Full evaluation runs two complete synthesis flows per design point
//! (conventional and slack-based, see [`crate::dse`]). Recovery replaces
//! the second flow with a slack walk over the fastest-grade binding: start
//! every resource operation at its fastest grade, then greedily downgrade
//! non-critical operations to cheaper grades while the design provably
//! stays timing-feasible under its `latency <= L` budget. The priority is
//! savings-per-slack-consumed, and downgrades that consume slack without
//! saving anything ("non-convenient units") are skipped — the shape of
//! the `brave_opt` exemplar: *bind fastest, then slow what the clock does
//! not need*. The walk is budgeting's own loop in its recovery variant
//! ([`adhls_timing::budget::recovery_walk`]), on the same incremental
//! slack state; each cell walks once, and the rebind bisection replays
//! recorded prefixes of that walk.
//!
//! The walk only rewrites grade choices; allocate/bind/area/power are then
//! re-run on the recovered choices through the prepared scheduler (with
//! every candidate list pinned to the chosen grade), so the reported
//! implementation is a real validated schedule, not an estimate. Because
//! the area model is monotone in bound resource area and the power model
//! is monotone in area (dynamic power switches instance area; leakage is
//! proportional to total area — see [`crate::power`]), area saving per
//! picosecond of slack is the deterministic power proxy the walk ranks by.
//!
//! Guarantees, by construction:
//!
//! * **Timing feasibility** — the walk starts from a nonnegative-slack
//!   point and reverts (and caps) any downgrade that would push the
//!   minimum aligned slack negative, so the recovered choices always
//!   satisfy `min_slack >= 0`; the rebind then validates the schedule.
//! * **Dominance over the fastest-grade binding** — if the rebound
//!   implementation does not improve on the conventional result in both
//!   area and power, the conventional result itself is returned (counted
//!   under `pipeline.recover.clamped`), so a recovered point's
//!   (area, power) never exceeds the conventional binding's.
//!
//! Recovery never re-elaborates: it reads the design's
//! [`PreparedDesign`] prefix (initial timed DFG, untruncated grade
//! candidates) and the rebind reuses the same prefix artifacts.

use crate::dse::{evaluate_prepared, grid_item_time_ps};
use crate::dse::{DsePoint, DseRow};
use crate::power::{estimate, PowerReport};
use crate::prepare::PreparedDesign;
use crate::sched::{mux_penalty, run_hls_fixed_grades, run_hls_prepared};
use crate::sched::{Flow, HlsOptions, HlsResult};
use adhls_ir::Result;
use adhls_reslib::Library;
use adhls_timing::budget::{recovery_walk, BudgetOptions, OpChoice, RecoveryWalk};

/// How a design point is evaluated: the full two-flow synthesis, the
/// slack-recovery generator, or a per-cell choice between them.
///
/// The mode is part of a row's identity — engines and pools fold it into
/// their result-cache keys (`point_key`) so rows from different modes can
/// never alias — but *not* of the elaboration prefix, which is shared
/// across modes (recovery never re-elaborates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PointMode {
    /// Conventional + slack-based flows, the paper's Table 4 row
    /// ([`crate::dse::evaluate_point`]).
    #[default]
    Full,
    /// Conventional flow + post-binding slack recovery
    /// ([`evaluate_recover_prepared`]).
    Recover,
    /// Per-cell choice: recovery when the fastest-grade binding leaves
    /// positive slack, the full evaluator otherwise (and on any recovery
    /// failure).
    Auto,
}

impl PointMode {
    /// Stable one-byte tag for cache keys. Distinct per mode — `Auto` rows
    /// are cached separately from `Recover` rows even where they would
    /// coincide, which is sound (never aliases) and keeps the key a pure
    /// function of the request.
    #[must_use]
    pub fn cache_tag(self) -> u8 {
        match self {
            PointMode::Full => 0,
            PointMode::Recover => 1,
            PointMode::Auto => 2,
        }
    }
}

impl std::fmt::Display for PointMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PointMode::Full => "full",
            PointMode::Recover => "recover",
            PointMode::Auto => "auto",
        })
    }
}

impl std::str::FromStr for PointMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "full" => Ok(PointMode::Full),
            "recover" => Ok(PointMode::Recover),
            "auto" => Ok(PointMode::Auto),
            other => Err(format!(
                "unknown point mode `{other}` (expected `full`, `recover`, or `auto`)"
            )),
        }
    }
}

/// Outcome of the grade-recovery walk ([`recover_grades`]).
#[derive(Debug, Clone)]
pub struct RecoveredGrades {
    /// Chosen candidate index per op id (`None` for fixed-delay ops).
    pub grade_idx: Vec<Option<usize>>,
    /// Effective delay per op id (grade delay + sharing overhead, or the
    /// intrinsic fixed delay), in picoseconds.
    pub delays: Vec<i64>,
    /// Minimum aligned slack at the all-fastest starting point. Negative
    /// means the cell has no headroom to spend (the walk does nothing).
    pub min_slack_fastest: i64,
    /// Minimum aligned slack of the recovered choices. Whenever
    /// `min_slack_fastest >= 0`, this is `>= 0` too — the walk never
    /// leaves a feasible point.
    pub min_slack: i64,
    /// Downgrade moves that survived.
    pub downgrades: usize,
    /// Tentative downgrades reverted (and capped) for costing more than
    /// the consumed op's own slack.
    pub reverted: usize,
}

impl RecoveredGrades {
    /// The first `k` kept downgrades of `walk`, replayed from its fastest
    /// start: exactly what the walk cut after its `k`-th kept downgrade
    /// would have produced.
    fn replay(walk: &RecoveryWalk, k: usize) -> RecoveredGrades {
        let (grade_idx, delays) = walk.prefix(k);
        let last = k.checked_sub(1).map(|j| walk.steps()[j]);
        RecoveredGrades {
            grade_idx,
            delays,
            min_slack_fastest: walk.start_min_slack(),
            min_slack: last.map_or(walk.start_min_slack(), |s| s.min_slack),
            downgrades: k,
            // A cut walk took back only the moves made before its cut.
            reverted: if k == walk.steps().len() {
                walk.reverted()
            } else {
                last.map_or(0, |s| s.reverted)
            },
        }
    }
}

/// The recovery walk over `prep` under `opts`: aligned slack, the
/// topological engine, `opts.budget.margin_frac` and the scheduler's
/// sharing overhead (none under `zero_overhead`), so feasibility here
/// means schedulability there.
fn walk_of(prep: &PreparedDesign, lib: &Library, opts: &HlsOptions) -> RecoveryWalk {
    let bopts = BudgetOptions {
        margin_frac: opts.budget.margin_frac,
        overhead_ps: mux_penalty(lib, opts) as u64,
        ..BudgetOptions::default()
    };
    recovery_walk(
        prep.initial_tdfg(),
        prep.base_choices(),
        opts.clock_ps,
        &bopts,
    )
}

/// The slack walk alone: fastest grades → greedy downgrades, no
/// scheduling. Deterministic — candidates are ranked by area saving per
/// picosecond of slack consumed, ties broken toward the lower op id, and
/// the slack after every move is exact, so two walks over the same prefix
/// and options produce identical choices.
///
/// `opts` supplies the clock period, the `zero_overhead` switch (which
/// drops the sharing-mux delay exactly as the scheduler does), and the
/// slack-binning margin (`opts.budget.margin_frac`, the paper's 5%):
/// when the minimum slack is within the margin, the binned-critical set
/// ([`adhls_timing::slack::SlackResult::critical_ops`]) keeps its grades.
#[must_use]
pub fn recover_grades(prep: &PreparedDesign, lib: &Library, opts: &HlsOptions) -> RecoveredGrades {
    let walk = walk_of(prep, lib, opts);
    RecoveredGrades::replay(&walk, walk.steps().len())
}

/// The conventional-leg options of point `p`: the baseline's, the walk's
/// and the rebind's.
fn conventional(p: &DsePoint, base: &HlsOptions) -> HlsOptions {
    HlsOptions {
        clock_ps: p.clock_ps,
        flow: Flow::Conventional,
        pipeline_ii: p.pipeline_ii,
        ..base.clone()
    }
}

/// One recovered design point: the conventional baseline, the reported
/// implementation, and the walk's diagnostics.
#[derive(Debug, Clone)]
pub struct RecoverOutcome {
    /// The fastest-grade (conventional-flow) baseline.
    pub conv: HlsResult,
    /// Power of the conventional baseline.
    pub conv_power: PowerReport,
    /// The reported implementation — the rebound recovered choices, or the
    /// conventional baseline when recovery found nothing, failed to
    /// rebind, or was clamped.
    pub result: HlsResult,
    /// Power of the reported implementation.
    pub power: PowerReport,
    /// The slack walk's choices and diagnostics.
    pub grades: RecoveredGrades,
    /// True when the walk made downgrades but no prefix of them produced
    /// an implementation that schedules and improves on the baseline, so
    /// the baseline was reported instead.
    pub clamped: bool,
    /// True when the *full* walk's choices had to be abandoned — they
    /// could not be scheduled, or scheduled no better than the baseline
    /// (sharing or alignment effects the slack analysis cannot see) — and
    /// the prefix bisection ran. `grades` then describes the accepted
    /// prefix, not the full walk.
    pub rebind_failed: bool,
}

impl RecoverOutcome {
    /// True when the walk's slack model visibly disagreed with the
    /// scheduler on this cell: the full walk was abandoned
    /// (`rebind_failed`), no prefix improved at all (`clamped`), or the
    /// pinned rebind needed resource-relaxation rounds. The last is the
    /// tell for allocation pressure the per-op slack walk cannot model —
    /// exactly the regime where the slack-driven flow's global
    /// re-budgeting can beat grade downgrades. [`PointMode::Auto`]
    /// re-checks suspect cells with full synthesis; clean cells it trusts
    /// outright (empirically bit-identical to full on the acceptance
    /// grids).
    #[must_use]
    pub fn suspect(&self) -> bool {
        self.rebind_failed || self.clamped || self.result.relax_rounds > 0
    }
}

/// Runs the recovery generator for one design point over shared prefix
/// artifacts: conventional baseline → slack walk → fixed-grade rebind →
/// dominance clamp. Timed under the `pipeline.recover` span with the
/// `pipeline.recover.{downgrades,reverted,clamped,rebind_failed,retries}`
/// counters (observational only — results are bit-identical with
/// telemetry on or off).
///
/// `prep` must have been built from `p.design` with the same `lib`,
/// exactly as for [`crate::dse::evaluate_prepared`].
///
/// # Errors
///
/// Propagates conventional-flow scheduling failures (the cell itself is
/// overconstrained). Recovery-side failures are not errors: they fall
/// back to the conventional baseline.
pub fn recover_prepared(
    prep: &PreparedDesign,
    p: &DsePoint,
    lib: &Library,
    base: &HlsOptions,
) -> Result<RecoverOutcome> {
    recover_walked(prep, p, lib, base, None)
}

/// [`recover_prepared`], over the cell's walk when the caller already
/// made it ([`PointMode::Auto`] walks first to decide).
fn recover_walked(
    prep: &PreparedDesign,
    p: &DsePoint,
    lib: &Library,
    base: &HlsOptions,
    walked: Option<RecoveryWalk>,
) -> Result<RecoverOutcome> {
    let opts = conventional(p, base);
    let cycles_per_item = p.cycles_per_item.max(1);
    let conv = run_hls_prepared(prep, lib, &opts)?;
    let conv_power = adhls_telemetry::timed("pipeline.power", || {
        estimate(
            prep.design(),
            &conv.schedule,
            &conv.area,
            cycles_per_item,
            p.clock_ps,
        )
    });

    let _span = adhls_telemetry::span("pipeline.recover");
    let walk = walked.unwrap_or_else(|| walk_of(prep, lib, &opts));
    let grades = RecoveredGrades::replay(&walk, walk.steps().len());
    adhls_telemetry::counter_add("pipeline.recover.downgrades", grades.downgrades as u64);
    adhls_telemetry::counter_add("pipeline.recover.reverted", grades.reverted as u64);

    // Schedule the walk's choices with every resource op pinned to its
    // recovered grade. The slack model is a conservative approximation of
    // the scheduler, not an oracle: sharing and alignment effects can make
    // the full walk unschedulable, or schedulable but no better than the
    // baseline. Both ways the walk's *prefix* usually still pays off, so
    // bisect for the longest downgrade prefix that rebinds feasibly and
    // improves on the baseline in both axes, replaying prefixes of the
    // recorded walk.
    let mut rebind_failed = false;
    let try_prefix = |g: &RecoveredGrades| -> Option<(HlsResult, PowerReport)> {
        let pinned: Vec<OpChoice> = prep
            .base_choices()
            .iter()
            .enumerate()
            .map(|(i, ch)| match g.grade_idx[i] {
                Some(k) => OpChoice {
                    candidates: vec![ch.candidates[k]],
                    fixed_ps: None,
                },
                None => ch.clone(),
            })
            .collect();
        let res = run_hls_fixed_grades(prep, lib, &opts, &pinned).ok()?;
        let power = adhls_telemetry::timed("pipeline.power", || {
            estimate(
                prep.design(),
                &res.schedule,
                &res.area,
                cycles_per_item,
                p.clock_ps,
            )
        });
        (res.area.total <= conv.area.total && power.total <= conv_power.total)
            .then_some((res, power))
    };
    let mut accepted: Option<(HlsResult, PowerReport, RecoveredGrades)> = None;
    if grades.downgrades > 0 {
        match try_prefix(&grades) {
            Some((res, pw)) => accepted = Some((res, pw, grades.clone())),
            None => {
                rebind_failed = true;
                adhls_telemetry::counter_add("pipeline.recover.rebind_failed", 1);
                // Bisect on the prefix length, treating "rebinds and
                // improves" as monotone (it is not exactly, but a midpoint
                // that works always beats giving up). `lo` is the best
                // known-good prefix (0 = the baseline itself), `hi` the
                // smallest known-bad one.
                let (mut lo, mut hi) = (0usize, grades.downgrades);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    adhls_telemetry::counter_add("pipeline.recover.retries", 1);
                    let g = RecoveredGrades::replay(&walk, mid);
                    match try_prefix(&g) {
                        Some((res, pw)) => {
                            lo = mid;
                            accepted = Some((res, pw, g));
                        }
                        None => hi = mid,
                    }
                }
            }
        }
    }

    // Dominance clamp: when no prefix both schedules and improves, the
    // conventional baseline is the reported implementation.
    let (result, power, grades, clamped) = match accepted {
        Some((res, pw, g)) => (res, pw, g, false),
        None => {
            let clamped = grades.downgrades > 0;
            if clamped {
                adhls_telemetry::counter_add("pipeline.recover.clamped", 1);
            }
            (conv.clone(), conv_power, grades, clamped)
        }
    };

    Ok(RecoverOutcome {
        conv,
        conv_power,
        result,
        power,
        grades,
        clamped,
        rebind_failed,
    })
}

/// Shared row assembly for recovered points: `a_conv` is the conventional
/// baseline, `a_slack` the reported (recovered-or-clamped) implementation,
/// `power` the reported implementation's — the same [`DseRow`] shape as
/// full evaluation, so exporters, Pareto projections, and the wire format
/// need no mode-specific cases.
fn row_from(p: &DsePoint, out: &RecoverOutcome) -> DseRow {
    let item_time_ps = grid_item_time_ps(p.clock_ps, p.cycles_per_item.max(1));
    let save_pct = if out.conv.area.total == 0.0 {
        0.0
    } else {
        (out.conv.area.total - out.result.area.total) / out.conv.area.total * 100.0
    };
    DseRow {
        name: p.name.clone(),
        a_conv: out.conv.area.total,
        a_slack: out.result.area.total,
        save_pct,
        power: out.power,
        throughput: 1.0e6 / item_time_ps,
        latency_ps: item_time_ps,
        clock_ps: p.clock_ps,
    }
}

/// [`crate::dse::evaluate_prepared`]'s recovery-mode counterpart: one
/// conventional run plus the slack-recovery pass, no slack-flow synthesis.
/// Counted under `pipeline.recover.used`.
///
/// # Errors
///
/// Propagates conventional-flow scheduling failures.
pub fn evaluate_recover_prepared(
    prep: &PreparedDesign,
    p: &DsePoint,
    lib: &Library,
    base: &HlsOptions,
) -> Result<DseRow> {
    let _span = adhls_telemetry::span("pipeline.evaluate");
    let out = recover_prepared(prep, p, lib, base)?;
    adhls_telemetry::counter_add("pipeline.recover.used", 1);
    Ok(row_from(p, &out))
}

/// [`PointMode::Auto`] over shared artifacts. The policy, per cell:
///
/// 1. No headroom (the recovery walk's starting minimum slack is `<= 0`)
///    or recovery errors → full synthesis only, so an auto cell's failure
///    message is exactly the full evaluator's. The walk that decides is
///    the one recovery then uses, so it runs before, and outside, the
///    `pipeline.recover` span.
/// 2. Clean recovery (`!`[`RecoverOutcome::suspect`]) → the recovered row,
///    no slack-flow synthesis at all. This is where auto saves work.
/// 3. Suspect recovery → full synthesis *also* runs and the better
///    implementation wins (smaller `a_slack`, power breaking ties; the
///    recovered row survives a full-synthesis failure or loss).
///
/// `pipeline.recover.fallback` counts full-synthesis invocations (cases
/// 1 and 3) — "measurably fewer full evaluations than full mode" pins
/// this. `pipeline.recover.used` counts cells whose final row came from
/// recovery (cases 2, and 3 when recovery won); the two overlap on
/// suspect-but-recovery-won cells.
///
/// # Errors
///
/// As [`crate::dse::evaluate_prepared`].
pub fn evaluate_auto_prepared(
    prep: &PreparedDesign,
    p: &DsePoint,
    lib: &Library,
    base: &HlsOptions,
) -> Result<DseRow> {
    let walked = walk_of(prep, lib, &conventional(p, base));
    if walked.start_min_slack() > 0 {
        // The span closes before any nested full synthesis so
        // `pipeline.evaluate` time is never double-counted.
        let suspect_row = {
            let _span = adhls_telemetry::span("pipeline.evaluate");
            match recover_walked(prep, p, lib, base, Some(walked)) {
                Ok(out) if !out.suspect() => {
                    adhls_telemetry::counter_add("pipeline.recover.used", 1);
                    return Ok(row_from(p, &out));
                }
                Ok(out) => Some(row_from(p, &out)),
                Err(_) => None,
            }
        };
        // The walk's model disagreed with the scheduler somewhere on this
        // cell; re-check with full synthesis and keep the better
        // implementation.
        if let Some(rec) = suspect_row {
            adhls_telemetry::counter_add("pipeline.recover.fallback", 1);
            return match evaluate_prepared(prep, p, lib, base) {
                Ok(f)
                    if f.a_slack < rec.a_slack
                        || (f.a_slack == rec.a_slack && f.power.total < rec.power.total) =>
                {
                    Ok(f)
                }
                _ => {
                    adhls_telemetry::counter_add("pipeline.recover.used", 1);
                    Ok(rec)
                }
            };
        }
    }
    adhls_telemetry::counter_add("pipeline.recover.fallback", 1);
    evaluate_prepared(prep, p, lib, base)
}

/// Mode dispatch over shared artifacts — the single entry evaluation
/// engines call per `(point, mode)`.
///
/// # Errors
///
/// As the dispatched evaluator.
pub fn evaluate_mode_prepared(
    mode: PointMode,
    prep: &PreparedDesign,
    p: &DsePoint,
    lib: &Library,
    base: &HlsOptions,
) -> Result<DseRow> {
    match mode {
        PointMode::Full => evaluate_prepared(prep, p, lib, base),
        PointMode::Recover => evaluate_recover_prepared(prep, p, lib, base),
        PointMode::Auto => evaluate_auto_prepared(prep, p, lib, base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::op::OpKind;
    use adhls_reslib::tsmc90;

    fn point(name: &str, soft: u32, clock: u64) -> DsePoint {
        let mut b = DesignBuilder::new(name);
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let m1 = b.binop(OpKind::Mul, x, y, 8);
        let m2 = b.binop(OpKind::Mul, m1, x, 8);
        let a = b.binop(OpKind::Add, m1, m2, 16);
        b.soft_waits(soft);
        b.write("z", a);
        DsePoint {
            name: name.into(),
            design: b.finish().unwrap().into(),
            clock_ps: clock,
            pipeline_ii: None,
            cycles_per_item: soft + 1,
        }
    }

    #[test]
    fn mode_parses_and_displays_round_trip() {
        for mode in [PointMode::Full, PointMode::Recover, PointMode::Auto] {
            assert_eq!(mode.to_string().parse::<PointMode>().unwrap(), mode);
        }
        let err = "fastest".parse::<PointMode>().unwrap_err();
        assert!(err.contains("unknown point mode"), "{err}");
        assert!(err.contains("`fastest`"), "{err}");
    }

    #[test]
    fn cache_tags_are_distinct() {
        let tags = [
            PointMode::Full.cache_tag(),
            PointMode::Recover.cache_tag(),
            PointMode::Auto.cache_tag(),
        ];
        assert_eq!(tags, [0, 1, 2]);
    }

    #[test]
    fn loose_budget_recovers_area_and_stays_feasible() {
        let lib = tsmc90::library();
        let p = point("loose", 3, 1400);
        let prep = PreparedDesign::new(&p.design, &lib).unwrap();
        let out = recover_prepared(&prep, &p, &lib, &HlsOptions::default()).unwrap();
        assert!(out.grades.min_slack_fastest > 0, "loose cell has headroom");
        assert!(out.grades.downgrades > 0, "headroom must be spent");
        assert!(
            out.grades.min_slack >= 0,
            "recovery never leaves feasibility"
        );
        assert!(
            out.result.area.total < out.conv.area.total,
            "recovered {} vs conventional {}",
            out.result.area.total,
            out.conv.area.total
        );
        assert!(out.power.total <= out.conv_power.total);
    }

    #[test]
    fn recovered_point_never_exceeds_conventional() {
        // The dominance clamp makes this structural, whatever the cell.
        let lib = tsmc90::library();
        for (soft, clock) in [(0, 1400), (1, 1100), (2, 900), (4, 1800)] {
            let p = point("dom", soft, clock);
            let prep = PreparedDesign::new(&p.design, &lib).unwrap();
            let out = recover_prepared(&prep, &p, &lib, &HlsOptions::default()).unwrap();
            assert!(
                out.result.area.total <= out.conv.area.total,
                "{soft}/{clock}"
            );
            assert!(out.power.total <= out.conv_power.total, "{soft}/{clock}");
            if out.grades.min_slack_fastest >= 0 {
                assert!(out.grades.min_slack >= 0, "{soft}/{clock}");
            }
        }
    }

    #[test]
    fn recover_row_matches_full_row_shape() {
        let lib = tsmc90::library();
        let p = point("shape", 2, 1400);
        let full = crate::dse::evaluate_point(&p, &lib, &HlsOptions::default()).unwrap();
        let prep = PreparedDesign::new(&p.design, &lib).unwrap();
        let rec = evaluate_recover_prepared(&prep, &p, &lib, &HlsOptions::default()).unwrap();
        assert_eq!(rec.name, full.name);
        assert_eq!(rec.clock_ps, full.clock_ps);
        assert_eq!(rec.latency_ps, full.latency_ps);
        assert_eq!(rec.throughput, full.throughput);
        assert_eq!(
            rec.a_conv, full.a_conv,
            "the conventional baseline is shared bit-identically across modes"
        );
    }

    #[test]
    fn recovery_is_deterministic() {
        let lib = tsmc90::library();
        let p = point("det", 3, 1400);
        let prep = PreparedDesign::new(&p.design, &lib).unwrap();
        let a = recover_grades(
            &prep,
            &lib,
            &HlsOptions {
                clock_ps: p.clock_ps,
                flow: Flow::Conventional,
                ..Default::default()
            },
        );
        let b = recover_grades(
            &prep,
            &lib,
            &HlsOptions {
                clock_ps: p.clock_ps,
                flow: Flow::Conventional,
                ..Default::default()
            },
        );
        assert_eq!(a.grade_idx, b.grade_idx);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.downgrades, b.downgrades);
    }

    #[test]
    fn auto_matches_recover_on_slack_cells_and_full_on_tight_ones() {
        let lib = tsmc90::library();
        let base = HlsOptions::default();
        let loose = point("cell", 3, 1400);
        let prep = PreparedDesign::new(&loose.design, &lib).unwrap();
        let opts = conventional(&loose, &base);
        assert!(recover_grades(&prep, &lib, &opts).min_slack_fastest > 0);
        let auto = evaluate_auto_prepared(&prep, &loose, &lib, &base).unwrap();
        let rec = evaluate_recover_prepared(&prep, &loose, &lib, &base).unwrap();
        assert_eq!(auto, rec, "headroom cell takes the recovery path");

        // A tight cell (no headroom at the fastest grades) must fall back
        // to the full evaluator bit-identically.
        let tight = point("cell", 0, 1400);
        let prep = PreparedDesign::new(&tight.design, &lib).unwrap();
        let auto = evaluate_auto_prepared(&prep, &tight, &lib, &base).unwrap();
        let full = evaluate_prepared(&prep, &tight, &lib, &base).unwrap();
        let opts = conventional(&tight, &base);
        if recover_grades(&prep, &lib, &opts).min_slack_fastest <= 0 {
            assert_eq!(auto, full, "no-headroom cell takes the full path");
        }
    }

    #[test]
    fn fixed_grade_rebind_validates_under_resource_pressure() {
        // Parallel muls under a small budget force instance sharing in the
        // rebind; the result must still be a validated schedule that the
        // clamp can compare.
        let lib = tsmc90::library();
        let mut b = DesignBuilder::new("share");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let m1 = b.binop(OpKind::Mul, x, x, 8);
        let m2 = b.binop(OpKind::Mul, y, y, 8);
        let m3 = b.binop(OpKind::Mul, x, y, 8);
        b.soft_waits(3);
        let s1 = b.binop(OpKind::Add, m1, m2, 16);
        let s2 = b.binop(OpKind::Add, s1, m3, 16);
        b.write("z", s2);
        let p = DsePoint {
            name: "share".into(),
            design: b.finish().unwrap().into(),
            clock_ps: 1400,
            pipeline_ii: None,
            cycles_per_item: 4,
        };
        let prep = PreparedDesign::new(&p.design, &lib).unwrap();
        let out = recover_prepared(&prep, &p, &lib, &HlsOptions::default()).unwrap();
        assert!(out.result.area.total <= out.conv.area.total);
        assert!(out.result.area.total > 0.0);
    }
}
