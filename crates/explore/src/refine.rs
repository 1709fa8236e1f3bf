//! Adaptive front refinement: approximate the exhaustive grid's Pareto
//! front while evaluating only a fraction of its cells, steering through a
//! selectable tradeoff plane ([`RefineOptions::objectives`]).
//!
//! The paper's Table-4 exploration evaluates a full clock × latency × II
//! grid. That is exact but scales as the product of the axes; the searches
//! in the space/time-scaling literature instead *steer* evaluation toward
//! the front. This driver does the same over the repo's grids:
//!
//! 1. evaluate a coarse **seed** (the corner and midpoint of each axis, all
//!    pipeline modes),
//! 2. extract the **tradeoff staircase** in the selected objective space's
//!    plane ([`crate::pareto::staircase_indices_in`]) — the Table-4
//!    area/delay curve under the default space, the area/power curve under
//!    `--objectives area,power` — and measure the normalized gap between
//!    each pair of adjacent staircase points (the full four-objective
//!    front approaches the whole grid on realistic workloads, so it cannot
//!    drive convergence; a two-axis staircase can),
//! 3. **bisect** the wide gaps — in axis-index space, so every refined
//!    cell is a cell of the exhaustive grid and the memo cache dedupes
//!    re-derived neighborhoods — escalating per gap from index midpoints
//!    to rectangle corners to the endpoints' axis neighbors, and skipping
//!    candidates whose exact, closed-form value on an *exact* plane axis
//!    (latency/throughput, via [`adhls_core::dse::grid_item_time_ps`])
//!    lies outside the gap's window on that axis — planes without an
//!    exact axis (e.g. area/power) simply keep every candidate,
//! 4. **prune** interior candidates that provably cannot matter: latency
//!    and throughput of a grid cell are exact without evaluation, and its
//!    area/power are bounded below by the better of the two bracketing
//!    staircase points (the monotone-interpolation bound), so if that
//!    optimistic corner is already dominated by the current front the real
//!    evaluation cannot do better,
//! 5. stop when every gap is within tolerance, the point budget is spent,
//!    or a round produces nothing new.
//!
//! One plane-specific wrinkle: a staircase needs two points before any gap
//! exists. A plane whose axes are both evaluated quantities — area/power,
//! say — can seed to a *single* non-dominated corner cell even though the
//! true plane front holds more; refinement then densifies that point's
//! axis neighborhood until the staircase grows or the neighborhood is
//! exhausted, instead of declaring premature convergence. Planes with a
//! closed-form axis (latency/throughput) skip this: their seed corners
//! already span the exact axis, so a one-point staircase is treated as
//! converged — exactly the pre-redesign behavior of the default plane.
//!
//! The driver is deterministic: candidate generation iterates the front in
//! its deterministic order, candidate batches are sorted by cell index, and
//! evaluation goes through an [`Evaluator`] whose rows are bit-identical to
//! serial evaluation — so two refinements of the same grid (serial,
//! parallel, or racing each other on one shared pool) produce the same
//! rows, front, and trace.

use crate::constraint::{constraints_from_json, validate_constraints, Constraint};
use crate::engine::{Engine, SweepResult};
use crate::pareto::{
    dominates, objectives, pareto_indices_in_constrained, staircase_indices_in, Objective,
    ObjectiveSpace, Objectives,
};
use crate::pool::EvaluatorPool;
use crate::sweep::{SweepCell, SweepGrid};
use adhls_core::dse::{grid_item_time_ps, DsePoint, DseRow};
use adhls_core::PointMode;
use adhls_ir::{Design, Error, Result};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Anything that can evaluate a batch of points: the per-sweep
/// [`Engine`] or the persistent [`EvaluatorPool`]. Rows must come back in
/// input order, bit-identical to serial evaluation (both implementors
/// guarantee this).
pub trait Evaluator {
    /// Evaluates `points`, returning rows in input order.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures per the implementor's policy (strict
    /// evaluators fail the batch; skip-infeasible evaluators record them).
    fn evaluate_points(&self, points: &[DsePoint]) -> Result<SweepResult>;

    /// Evaluates `points` in an explicit [`PointMode`]. The default
    /// ignores the mode and delegates to [`Evaluator::evaluate_points`] —
    /// right for mode-unaware evaluators, whose single behavior *is*
    /// their full evaluation; [`Engine`] and [`EvaluatorPool`] override
    /// it with their per-call mode entries.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::evaluate_points`].
    fn evaluate_points_mode(&self, points: &[DsePoint], mode: PointMode) -> Result<SweepResult> {
        let _ = mode;
        self.evaluate_points(points)
    }
}

impl Evaluator for Engine<'_> {
    fn evaluate_points(&self, points: &[DsePoint]) -> Result<SweepResult> {
        self.evaluate(points)
    }

    fn evaluate_points_mode(&self, points: &[DsePoint], mode: PointMode) -> Result<SweepResult> {
        self.evaluate_mode(points, mode)
    }
}

impl Evaluator for EvaluatorPool {
    fn evaluate_points(&self, points: &[DsePoint]) -> Result<SweepResult> {
        self.evaluate(points)
    }

    fn evaluate_points_mode(&self, points: &[DsePoint], mode: PointMode) -> Result<SweepResult> {
        self.evaluate_mode(points, mode)
    }
}

/// Tuning knobs for [`refine`] (and, per plane, for [`refine_multi`]).
///
/// The default refines the paper's (area, latency) plane to a 5%
/// normalized gap with no evaluation budget; each field tightens or
/// redirects that:
///
/// ```
/// use adhls_explore::constraint::Constraint;
/// use adhls_explore::pareto::ObjectiveSpace;
/// use adhls_explore::refine::RefineOptions;
///
/// let opts = RefineOptions {
///     // Steer through the power plane instead of the default
///     // (area, latency) tradeoff...
///     objectives: ObjectiveSpace::parse("area,power").unwrap(),
///     // ...only inside the area budget...
///     constraints: vec![Constraint::parse("area<=1500").unwrap()],
///     // ...spending at most 40 HLS evaluations.
///     budget: 40,
///     ..Default::default()
/// };
/// assert_eq!(opts.gap_tol, 0.05, "defaults fill the rest");
/// assert!(opts.warm_start.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RefineOptions {
    /// Maximum number of grid cells to evaluate, seed included
    /// (`0` = no budget: refine until the tolerance is met or the grid is
    /// exhausted).
    pub budget: usize,
    /// Stop once no adjacent pair of tradeoff-staircase points is farther
    /// apart than this, measured as the Chebyshev distance in
    /// (area, latency) normalized by the staircase's bounding box.
    /// Non-finite or negative values are treated as `0.0` (refine until
    /// nothing new appears).
    pub gap_tol: f64,
    /// Safety valve on refinement rounds (`0` = seed only).
    pub max_rounds: usize,
    /// Warm-start cells — typically a previous run's exported front (see
    /// [`warm_start_cells`]) — evaluated with the seed so refinement
    /// resumes from the old front instead of re-deriving it. Cells that
    /// name no cell of this grid are ignored; on a shared
    /// [`EvaluatorPool`] the warm cells are usually cache hits, making a
    /// warm re-refinement nearly free.
    pub warm_start: Vec<SweepCell>,
    /// The objective space whose plane (its first two axes) steers the
    /// refinement: staircase extraction, gap measurement, and candidate
    /// windowing all happen in this plane. Defaults to the paper's
    /// (area, latency) tradeoff; `area,power` gives power-aware
    /// refinement. The reported [`RefineResult::front`] stays the full
    /// four-objective front in every space (see [`RefineResult`]).
    pub objectives: ObjectiveSpace,
    /// Objective bounds restricting the exploration to the feasible
    /// region (`area<=1500`, `latency<=4000`, …). The staircase, its
    /// gaps, and the reported front only ever see feasible rows;
    /// candidate windows are clipped to the feasible interval on
    /// closed-form axes, and cells *provably* infeasible (exact
    /// latency/throughput outside a bound, or an optimistic area/power
    /// lower bound already over a `<=` budget) are skipped without
    /// evaluation. Every constraint's axis must be selected by
    /// [`RefineOptions::objectives`] (see
    /// [`crate::constraint::validate_constraints`]); empty = the
    /// unconstrained refinement, bit-identical to pre-constraint
    /// behavior.
    pub constraints: Vec<Constraint>,
    /// Cooperative cancellation token, checked **between rounds** (never
    /// mid-round, so rows and trace stay a prefix of the uncancelled
    /// run's). `None` = not cancellable. See [`CancelToken`].
    pub cancel: Option<CancelToken>,
    /// How refined cells are evaluated: full two-flow synthesis (default),
    /// the slack-recovery generator, or a per-cell automatic choice
    /// ([`PointMode::Auto`] — recovery where the cell's latency budget
    /// leaves positive slack, full otherwise). Applies to every cell the
    /// refinement submits, seed included.
    pub point_mode: PointMode,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            budget: 0,
            gap_tol: 0.05,
            max_rounds: 32,
            warm_start: Vec::new(),
            objectives: ObjectiveSpace::default(),
            constraints: Vec::new(),
            cancel: None,
            point_mode: PointMode::Full,
        }
    }
}

/// A shared cooperative cancellation flag for in-flight refinements.
///
/// Cloning shares the flag; once [`CancelToken::cancel`] fires, every
/// holder observes it. The refinement drivers consult the token only at
/// **round boundaries**, so the partial [`RefineResult`] (rows, trace,
/// front) is exactly a prefix-of-rounds of the uncancelled run, never a
/// torn round. The exploration server's `cancel` verb fires these between
/// a client's streamed round events.
///
/// A run that finds no further round to evaluate *closes* its token
/// before it streams its last round: from then on a cancel is refused
/// ([`CancelToken::try_cancel`] returns `false`), so the canceller learns
/// it lost the race and the result is exactly the uncancelled one. A
/// cancel that lands before the close takes that last, still unstreamed
/// round back, so a cancelled result stops short of the uncancelled run's
/// last round — unless that round is the seed, which is streamed at once
/// and never taken back.
///
/// Equality is *identity*: two tokens compare equal when they share one
/// flag (so an options struct holding a token stays `PartialEq` without
/// pretending distinct tokens in identical states are interchangeable).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicU8>);

/// [`CancelToken`] states.
const TOKEN_LIVE: u8 = 0;
const TOKEN_CANCELLED: u8 = 1;
const TOKEN_CLOSED: u8 = 2;

impl CancelToken {
    /// A fresh, unfired token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token: every pending round-boundary check from now on
    /// sees the cancellation (no effect once the run closed the token).
    pub fn cancel(&self) {
        let _ = self.try_cancel();
    }

    /// Fires the token and reports whether the cancellation will take
    /// effect: `false` when the run has already closed it (it finished
    /// first).
    pub fn try_cancel(&self) -> bool {
        use std::sync::atomic::Ordering::{AcqRel, Acquire};
        match self
            .0
            .compare_exchange(TOKEN_LIVE, TOKEN_CANCELLED, AcqRel, Acquire)
        {
            Ok(_) => true,
            Err(state) => state == TOKEN_CANCELLED,
        }
    }

    /// Whether [`CancelToken::cancel`] has fired.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire) == TOKEN_CANCELLED
    }

    /// Closes the token to cancellation — the run is complete. Returns
    /// `false` when a cancel got in first.
    fn close(&self) -> bool {
        use std::sync::atomic::Ordering::{AcqRel, Acquire};
        match self
            .0
            .compare_exchange(TOKEN_LIVE, TOKEN_CLOSED, AcqRel, Acquire)
        {
            Ok(_) => true,
            Err(state) => state == TOKEN_CLOSED,
        }
    }
}

/// Whether a run with cancellation `token` is cancelled at a boundary
/// where it would evaluate another round.
fn cancelled_at(token: Option<&CancelToken>) -> bool {
    token.is_some_and(CancelToken::is_cancelled)
}

/// Whether a run that has no further round is cancelled after all: it
/// closes its token, and a cancel that got in first wins.
fn cancelled_at_end(token: Option<&CancelToken>) -> bool {
    token.is_some_and(|t| !t.close())
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A parsed warm-start document: the grid cells a previously exported
/// front/sweep names, plus the objective space the export records having
/// produced it (absent in pre-redesign exports and bare row arrays).
///
/// The cells are space-independent — they are grid coordinates, and a
/// warm seed only ever *adds* evaluations — so a front exported under one
/// space safely warm-starts a refinement in any other; the recorded space
/// is surfaced so callers can say so (the CLI logs it).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Deduplicated grid cells named by the document's front (or sweep).
    pub cells: Vec<SweepCell>,
    /// The objective space the document was exported under, when recorded.
    pub objectives: Option<ObjectiveSpace>,
    /// The objective constraints the document was exported under (empty
    /// for unconstrained and pre-constraint exports). Like the space,
    /// pure provenance: the cells seed any refinement, constrained or
    /// not.
    pub constraints: Vec<Constraint>,
}

impl WarmStart {
    /// Parses a previously exported sweep/front/refine JSON document (any
    /// of `export::front_to_json_in`, `export::refine_to_json`, or a bare
    /// row array). Rows are matched by their grid names
    /// (`prefix-c<clock>-l<cycles>[-ii<n>]`); rows whose names encode no
    /// grid cell (e.g. the paper's hand-named D1–D15 points) are skipped,
    /// because they cannot be mapped back onto any grid.
    ///
    /// # Errors
    ///
    /// [`Error::Interp`] when `json` is not parseable JSON, has none of
    /// the recognized shapes, or records an invalid `objectives` list.
    pub fn parse(json: &str) -> Result<WarmStart> {
        use adhls_core::json::Value;
        let doc = Value::parse(json)
            .map_err(|e| Error::Interp(format!("warm-start JSON did not parse: {e}")))?;
        // The one shared `objectives`/`constraints` grammar — identical to
        // the wire's request fields, so exported documents and requests
        // cannot drift.
        let objectives = ObjectiveSpace::from_json(doc.get("objectives"))
            .map_err(|e| Error::Interp(format!("warm-start `objectives`: {e}")))?;
        let constraints = constraints_from_json(doc.get("constraints"))
            .map_err(|e| Error::Interp(format!("warm-start `constraints`: {e}")))?;
        // Prefer the front (the useful part of an exported document); fall
        // back to the sweep, then to a bare array.
        let rows = doc
            .get("front")
            .and_then(Value::as_arr)
            .or_else(|| doc.get("sweep").and_then(Value::as_arr))
            .or_else(|| doc.as_arr())
            .ok_or_else(|| Error::Interp("warm-start JSON has no `front`/`sweep` array".into()))?;
        let mut cells = Vec::new();
        for row in rows {
            let Some(name) = row.get("name").and_then(Value::as_str) else {
                continue;
            };
            if let Some((clock_ps, cycles, pipeline_ii)) = DsePoint::parse_grid_name(name) {
                let cell = SweepCell {
                    clock_ps,
                    cycles,
                    pipeline_ii,
                };
                if !cells.contains(&cell) {
                    cells.push(cell);
                }
            }
        }
        Ok(WarmStart {
            cells,
            objectives,
            constraints,
        })
    }
}

/// Extracts just the warm-start cells of an exported document — see
/// [`WarmStart::parse`], which also surfaces the recorded objective space.
///
/// # Errors
///
/// As [`WarmStart::parse`].
pub fn warm_start_cells(json: &str) -> Result<Vec<SweepCell>> {
    Ok(WarmStart::parse(json)?.cells)
}

/// One refinement round's bookkeeping, exported with the sweep so runs are
/// auditable (`export::refine_to_json`).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Round number (`0` is the seed).
    pub round: usize,
    /// Cells submitted for evaluation this round.
    pub new_points: usize,
    /// Front size after integrating the round's rows.
    pub front_size: usize,
    /// The widest normalized staircase gap that triggered this round
    /// (`0.0` for the seed round and for single-point-staircase
    /// densification rounds, where no gap exists yet). Gaps the grid has
    /// no cells for (real discontinuities in the design space) keep this
    /// above the tolerance even at convergence.
    pub max_gap: f64,
    /// Candidate cells pruned by the optimistic-bound test this round.
    pub pruned: usize,
}

/// Outcome of one adaptive refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineResult {
    /// Every evaluated row, in deterministic (round, cell-index) order.
    pub rows: Vec<DseRow>,
    /// Infeasible cells as (name, error), if the evaluator skips them.
    pub skipped: Vec<(String, String)>,
    /// The full four-objective Pareto front over the **feasible** `rows`
    /// — in every objective space, so the reported front never discards
    /// information the steering plane happens to ignore, but never
    /// contains a row that violates [`RefineResult::constraints`]
    /// (unconstrained runs: all rows are feasible). Project it through
    /// [`crate::pareto::pareto_front_in_constrained`] /
    /// [`crate::pareto::tradeoff_staircase_in_constrained`] with
    /// [`RefineResult::objectives`] for the plane the run converged in.
    pub front: Vec<DseRow>,
    /// The objective space that steered this refinement
    /// ([`RefineOptions::objectives`]) — recorded so exports can say which
    /// plane produced the result.
    pub objectives: ObjectiveSpace,
    /// The constraints the refinement honored
    /// ([`RefineOptions::constraints`]) — recorded next to the space, so
    /// exports are self-describing and warm starts can surface the
    /// provenance. Empty = unconstrained.
    pub constraints: Vec<Constraint>,
    /// Per-round refinement metadata, seed first.
    pub trace: Vec<RoundTrace>,
    /// Cells submitted for evaluation (`rows.len() + skipped.len()`).
    pub evaluated: usize,
    /// Cells discarded by the dominance prune without evaluation.
    pub pruned: usize,
    /// Cell count of the exhaustive grid this refinement approximates,
    /// over the deduplicated axes (duplicate axis entries name the same
    /// cells and don't inflate the count).
    pub grid_cells: usize,
    /// Whether a [`CancelToken`] stopped the run at a round boundary
    /// before it converged. When true, `rows` and `trace` are a valid
    /// prefix of the uncancelled run's (cancellation never tears a round).
    pub cancelled: bool,
}

/// A cell as (clock index, cycles index, pipeline-mode index) into the
/// sorted axes.
type Cell = (usize, usize, usize);

struct Driver<'a, F> {
    clocks: Vec<u64>,
    cycles: Vec<u32>,
    modes: Vec<Option<u32>>,
    prefix: &'a str,
    build: F,
    /// Objective bounds shared by every steering plane: the staircase,
    /// the reported front, and the prune's dominator set only ever see
    /// feasible rows, and provably-infeasible cells are never submitted.
    constraints: Vec<Constraint>,
    /// Cells already settled — evaluated, skipped as infeasible, or pruned
    /// — and therefore never to be submitted again.
    known: HashSet<Cell>,
    /// Evaluation mode for every cell this driver submits
    /// ([`RefineOptions::point_mode`]; [`PointMode::Full`] until a driver
    /// entry sets it).
    mode: PointMode,
    rows: Vec<DseRow>,
    row_cells: Vec<Cell>,
    skipped: Vec<(String, String)>,
    pruned: usize,
}

impl<'a, F, D> Driver<'a, F>
where
    F: FnMut(&SweepCell) -> D,
    D: Into<Arc<Design>>,
{
    /// Builds a driver over `grid`'s sorted, deduplicated axes — duplicate
    /// axis entries name the same cells, and index bisection needs sorted
    /// axes. Returns the driver and the deduplicated grid's cell count
    /// (the exhaustive denominator every evaluated/total ratio is judged
    /// against).
    ///
    /// # Errors
    ///
    /// [`Error::Capacity`] when the cell count overflows `usize`.
    fn prepare(
        grid: &SweepGrid,
        prefix: &'a str,
        build: F,
        constraints: &[Constraint],
    ) -> Result<(Driver<'a, F>, usize)> {
        let mut clocks: Vec<u64> = grid.clock_axis().to_vec();
        clocks.sort_unstable();
        clocks.dedup();
        let mut cycles: Vec<u32> = grid.cycles_axis().to_vec();
        cycles.sort_unstable();
        cycles.dedup();
        let mut modes: Vec<Option<u32>> = Vec::new();
        for &m in grid.pipeline_axis() {
            if !modes.contains(&m) {
                modes.push(m);
            }
        }
        let Some(grid_cells) = clocks
            .len()
            .checked_mul(cycles.len())
            .and_then(|p| p.checked_mul(modes.len()))
        else {
            return Err(Error::Capacity(
                "adaptive refinement grid overflows the machine's address space".into(),
            ));
        };
        Ok((
            Driver {
                clocks,
                cycles,
                modes,
                prefix,
                build,
                constraints: constraints.to_vec(),
                known: HashSet::new(),
                mode: PointMode::Full,
                rows: Vec::new(),
                row_cells: Vec::new(),
                skipped: Vec::new(),
                pruned: 0,
            },
            grid_cells,
        ))
    }

    /// The seed cell list: axis corners and midpoints, every pipeline
    /// mode — plus any warm-start cells that map onto this grid (appended
    /// after the geometric seed so a warm start never changes which cells
    /// a cold seed evaluates, only adds to them). Cells that provably
    /// violate a closed-form constraint (an exact latency/throughput
    /// outside its bound) never reach the evaluator — the constrained
    /// run's first saving over sweep-then-filter; they are returned as the
    /// pruned count. `budget` (if nonzero) truncates the list.
    fn seed(&mut self, warm_start: &[SweepCell], budget: usize) -> (Vec<Cell>, usize) {
        let mut seed: Vec<Cell> = Vec::new();
        for &ci in &seed_indices(self.clocks.len()) {
            for &li in &seed_indices(self.cycles.len()) {
                for mi in 0..self.modes.len() {
                    seed.push((ci, li, mi));
                }
            }
        }
        for w in warm_start {
            let found = (
                self.clocks.iter().position(|&c| c == w.clock_ps),
                self.cycles.iter().position(|&c| c == w.cycles),
                self.modes.iter().position(|&m| m == w.pipeline_ii),
            );
            if let (Some(ci), Some(li), Some(mi)) = found {
                let cell = (ci, li, mi);
                if !seed.contains(&cell) {
                    seed.push(cell);
                }
            }
        }
        let mut pruned = 0usize;
        seed.retain(|&cell| {
            if self.provably_infeasible(cell) {
                self.known.insert(cell);
                self.pruned += 1;
                pruned += 1;
                false
            } else {
                true
            }
        });
        if budget > 0 {
            seed.truncate(budget);
        }
        (seed, pruned)
    }

    fn sweep_cell(&self, cell: Cell) -> SweepCell {
        SweepCell {
            clock_ps: self.clocks[cell.0],
            cycles: self.cycles[cell.1],
            pipeline_ii: self.modes[cell.2],
        }
    }

    /// Exact item time of a (possibly unevaluated) cell — closed-form, per
    /// `core::dse`.
    fn cell_item_time_ps(&self, cell: Cell) -> f64 {
        let sc = self.sweep_cell(cell);
        grid_item_time_ps(sc.clock_ps, sc.pipeline_ii.unwrap_or(sc.cycles).max(1))
    }

    /// Submits `cells` (deterministically ordered by the caller) and
    /// integrates rows/skips back into the cell map.
    fn evaluate_cells(&mut self, eval: &dyn Evaluator, cells: &[Cell]) -> Result<()> {
        let points: Vec<DsePoint> = cells
            .iter()
            .map(|&c| {
                let sc = self.sweep_cell(c);
                DsePoint::grid(
                    self.prefix,
                    (self.build)(&sc),
                    sc.clock_ps,
                    sc.cycles,
                    sc.pipeline_ii,
                )
            })
            .collect();
        let result = eval.evaluate_points_mode(&points, self.mode)?;
        let mut row_it = result.rows.into_iter();
        let mut skip_it = result.skipped.into_iter().peekable();
        for (p, &cell) in points.iter().zip(cells) {
            self.known.insert(cell);
            if skip_it.peek().is_some_and(|(n, _)| *n == p.name) {
                let entry = skip_it.next().expect("peeked skip entry");
                self.skipped.push(entry);
            } else {
                let row = row_it.next().expect("a row for every unskipped point");
                self.row_cells.push(cell);
                self.rows.push(row);
            }
        }
        Ok(())
    }

    /// The current front as (row index, cell, objectives), in the
    /// deterministic pareto order (area ascending): the full
    /// four-objective front over the *feasible* rows. Infeasible rows are
    /// excluded from both sides — they can neither be reported nor serve
    /// as prune dominators (a point outside the feasible region must not
    /// veto a cell that could join the constrained front).
    fn front(&self) -> Vec<(usize, Cell, Objectives)> {
        pareto_indices_in_constrained(&ObjectiveSpace::full(), &self.constraints, &self.rows)
            .into_iter()
            .map(|i| (i, self.row_cells[i], objectives(&self.rows[i])))
            .collect()
    }

    /// The **planning** staircase in `space`'s plane: rows non-dominated
    /// when only the plane's two axes count, sorted by the primary axis
    /// improving (area ascending, latency strictly descending under the
    /// default space).
    ///
    /// Gap measurement runs on this projection, not the full
    /// four-objective front: with every axis in play most grid cells are
    /// incomparable, the "front" approaches the whole grid, and
    /// primary-adjacent front points can sit anywhere along the secondary
    /// axis — gaps would never converge and refinement would degenerate
    /// into an exhaustive sweep. The staircase is the two-axis tradeoff
    /// curve the refinement is promised to resolve; the reported front
    /// stays the full four-objective one.
    ///
    /// Planning deliberately walks the **unconstrained** staircase even
    /// under constraints (the *reported* staircase/front are always the
    /// feasible projections): the feasible staircase is truncated at the
    /// constraint boundary, so no gap would ever span the region just
    /// inside it and boundary-adjacent feasible front points would be
    /// systematically missed. Walking the unconstrained curve keeps the
    /// bisection anchored on both sides of the boundary; the savings come
    /// from the cells constraints let the driver *skip* — provably
    /// infeasible closed-form values, optimistic bounds already over a
    /// budget, windows clipped to the feasible interval — not from
    /// blinding the planner. Rows whose closed-form axes violate a bound
    /// are never evaluated in the first place, so those never appear
    /// here either.
    fn staircase(&self, space: &ObjectiveSpace) -> Vec<(usize, Cell, Objectives)> {
        staircase_indices_in(space, &self.rows)
            .into_iter()
            .map(|i| (i, self.row_cells[i], objectives(&self.rows[i])))
            .collect()
    }

    /// True when `cell` provably violates a constraint **without
    /// evaluation**: latency and throughput of a grid cell are closed-form
    /// ([`Driver::exact_cell_value`]), so a bound on either axis can be
    /// checked before any HLS run. Area/power bounds have no exact check
    /// here; the optimistic-bound test in [`Driver::provably_useless`]
    /// covers their interior-cell case.
    fn provably_infeasible(&self, cell: Cell) -> bool {
        self.constraints.iter().any(|c| {
            self.exact_cell_value(cell, c.axis)
                .is_some_and(|v| !c.satisfied_value(v))
        })
    }

    /// The exact, closed-form value of a (possibly unevaluated) grid cell
    /// on `axis`, when the axis has one: latency and throughput are pure
    /// functions of the cell's coordinates; area and power need an HLS
    /// run.
    fn exact_cell_value(&self, cell: Cell, axis: Objective) -> Option<f64> {
        match axis {
            Objective::LatencyPs => Some(self.cell_item_time_ps(cell)),
            Objective::Throughput => Some(1.0e6 / self.cell_item_time_ps(cell)),
            Objective::Area | Objective::PowerTotal => None,
        }
    }

    /// Plans one refinement round: the widest normalized gap, the
    /// candidate cells worth evaluating (sorted by cell index), and how
    /// many candidates the optimistic-bound prune discarded.
    ///
    /// Each wide staircase gap proposes, in escalation order (a gap only
    /// spends cells from the cheapest family that still has fresh ones),
    /// three candidate families:
    ///
    /// * **midpoints** of the endpoints' index rectangle (both roundings —
    ///   with floor-only, index-adjacent endpoints collapse onto an
    ///   endpoint and refinement stalls with the gap still wide),
    /// * the rectangle's **cross corners** `(ca.clock, cb.cycles)` /
    ///   `(cb.clock, ca.cycles)` — for index-adjacent pairs the midpoints
    ///   degenerate and the corners are the only interior structure left,
    /// * the **axis neighbors** (±1 per axis) of both endpoints — gaps
    ///   whose dominating cells sit just outside the endpoints' rectangle
    ///   (a front point produced by a dominated seed neighborhood) are
    ///   reachable by no bisection; densifying around the gap's endpoints
    ///   is what lets the front converge to the exhaustive one.
    ///
    /// Only interior midpoints are eligible for the optimistic-bound prune:
    /// the monotone-interpolation bound brackets cells *between* the two
    /// evaluated endpoints, not corners or outward neighbors.
    ///
    /// `pending` carries the cells already queued *this round* — by this
    /// plane's earlier gaps, and (under [`refine_multi`]) by other planes'
    /// plans — so an already-queued cell counts as a gap's contribution
    /// instead of escalating to costlier families, and no cell is ever
    /// queued twice in one round.
    ///
    /// `full_front` is the current [`Driver::front`] — the dominators for
    /// the optimistic-bound prune (staircase neighbors can never dominate
    /// an interior cell's optimistic corner, but a front point better on
    /// an axis outside the plane can). The caller extracts it once per
    /// *round*: rows don't change while a round plans, and under
    /// [`refine_multi`] every plane's plan shares the same extraction.
    fn plan(
        &mut self,
        space: &ObjectiveSpace,
        stairs: &[(usize, Cell, Objectives)],
        gap_tol: f64,
        pending: &mut HashSet<Cell>,
        full_front: &[(usize, Cell, Objectives)],
    ) -> (f64, Vec<Cell>, usize) {
        let ranges = space.plane_ranges(stairs.iter().map(|(_, _, o)| o));
        let (primary, secondary) = space.plane();
        // The plane axes with closed-form cell values (latency/throughput),
        // paired with their normalization range: these are the axes gap
        // windows can be checked on without evaluation. An area/power
        // plane has none, and windowing simply admits every candidate.
        // (The two plane axes are distinct by construction: spaces reject
        // duplicates and refinement rejects single-axis spaces.)
        let exact_axes: Vec<(Objective, f64)> = [(primary, ranges.0), (secondary, ranges.1)]
            .into_iter()
            .filter(|(a, _)| matches!(a, Objective::LatencyPs | Objective::Throughput))
            .collect();
        let mut max_gap = 0.0f64;
        let mut candidates: Vec<Cell> = Vec::new();
        let mut pruned_now = 0usize;
        for pair in stairs.windows(2) {
            let (_, ca, oa) = pair[0];
            let (_, cb, ob) = pair[1];
            let gap = space.plane_gap(&oa, &ob, ranges);
            max_gap = max_gap.max(gap);
            if gap <= gap_tol {
                continue;
            }
            // The pipeline axis is categorical: no midpoint, try both
            // endpoints' modes at every proposed (clock, cycles).
            let modes = if ca.2 == cb.2 {
                vec![ca.2]
            } else {
                vec![ca.2, cb.2]
            };
            let (lo_c, hi_c) = (ca.0.min(cb.0), ca.0.max(cb.0));
            let (lo_l, hi_l) = (ca.1.min(cb.1), ca.1.max(cb.1));
            // Candidate families in escalation order; a gap only spends
            // cells from the cheapest family that still has fresh ones.
            let mids: Vec<(Cell, bool)> = modes
                .iter()
                .flat_map(|&mode| {
                    [midpoint(lo_c, hi_c), midpoint_up(lo_c, hi_c)]
                        .into_iter()
                        .flat_map(move |mc| {
                            [midpoint(lo_l, hi_l), midpoint_up(lo_l, hi_l)]
                                .into_iter()
                                .map(move |ml| ((mc, ml, mode), true))
                        })
                })
                .collect();
            let corners: Vec<(Cell, bool)> = modes
                .iter()
                .flat_map(|&mode| [((ca.0, cb.1, mode), false), ((cb.0, ca.1, mode), false)])
                .collect();
            let neighbors: Vec<(Cell, bool)> = modes
                .iter()
                .flat_map(|&mode| {
                    [ca, cb].into_iter().flat_map(move |(c, l, _)| {
                        [
                            (c.wrapping_sub(1), l),
                            (c + 1, l),
                            (c, l.wrapping_sub(1)),
                            (c, l + 1),
                        ]
                        .into_iter()
                        .map(move |(nc, nl)| ((nc, nl, mode), false))
                    })
                })
                .collect();
            // A candidate can only resolve *this* gap if its exact,
            // closed-form value on each exact plane axis lands inside the
            // gap's interval on that axis (± the tolerance): anything
            // outside belongs to another pair's territory and would be
            // proposed there if useful. Constraints on an exact axis clip
            // the window to the feasible interval — the gap's territory
            // never extends past a bound, because the staircase the gap
            // lives on only contains feasible points.
            let windows: Vec<(Objective, f64, f64)> = exact_axes
                .iter()
                .map(|&(axis, range)| {
                    let (va, vb) = (axis.value(&oa), axis.value(&ob));
                    let tol = gap_tol.max(0.05) * range;
                    let (mut lo, mut hi) = (va.min(vb) - tol, va.max(vb) + tol);
                    for c in &self.constraints {
                        if c.axis == axis {
                            match c.op {
                                crate::constraint::ConstraintOp::Le => hi = hi.min(c.bound),
                                crate::constraint::ConstraintOp::Ge => lo = lo.max(c.bound),
                            }
                        }
                    }
                    (axis, lo, hi)
                })
                .collect();
            for family in [mids, corners, neighbors] {
                let mut contributed = false;
                for (cell, prunable) in family {
                    if cell == ca
                        || cell == cb
                        || cell.0 >= self.clocks.len()
                        || cell.1 >= self.cycles.len()
                        || self.known.contains(&cell)
                    {
                        continue;
                    }
                    // A cell another gap already queued this round counts
                    // as this gap's contribution too — escalating past it
                    // would submit costlier families for a gap that is
                    // already being refined.
                    if pending.contains(&cell) {
                        contributed = true;
                        continue;
                    }
                    // A bound on a closed-form axis (latency/throughput)
                    // disqualifies a cell for good, whichever gap or plane
                    // proposes it — no evaluation needed.
                    if self.provably_infeasible(cell) {
                        self.known.insert(cell);
                        self.pruned += 1;
                        pruned_now += 1;
                        continue;
                    }
                    let outside = windows.iter().any(|&(axis, lo, hi)| {
                        let v = self
                            .exact_cell_value(cell, axis)
                            .expect("windowed axes are closed-form");
                        v < lo || v > hi
                    });
                    if outside {
                        continue;
                    }
                    if prunable && self.provably_useless(cell, &oa, &ob, full_front) {
                        self.known.insert(cell);
                        self.pruned += 1;
                        pruned_now += 1;
                        continue;
                    }
                    candidates.push(cell);
                    pending.insert(cell);
                    contributed = true;
                }
                if contributed {
                    break;
                }
            }
        }
        candidates.sort_unstable();
        (max_gap, candidates, pruned_now)
    }

    /// Proposes the axis neighborhood (±1 per numeric axis, every pipeline
    /// mode, including the cell's own coordinates under other modes) of
    /// each staircase point, skipping cells a closed-form constraint
    /// already disqualifies (returned as the pruned count).
    ///
    /// This is the escape hatch for planes whose staircase collapses to a
    /// single point: when both plane axes are evaluated quantities
    /// (area/power) and strongly correlated, the seed's non-dominated set
    /// can be one corner cell even though the true plane front holds
    /// more — and with no gap to bisect, the only signal left is local
    /// densification around that argmin corner. Known cells are never
    /// re-proposed, so the walk terminates once the neighborhood (or the
    /// grid) is exhausted. The caller only takes this path for planes
    /// without a closed-form axis: a latency-bearing plane's seed corners
    /// already span the exact axis, and its one-point staircase keeps the
    /// pre-redesign early stop instead (default-space bit-identity).
    fn plan_densify(&mut self, stairs: &[(usize, Cell, Objectives)]) -> (Vec<Cell>, usize) {
        let mut out: Vec<Cell> = Vec::new();
        let mut pruned_now = 0usize;
        for &(_, (c, l, _), _) in stairs {
            for mi in 0..self.modes.len() {
                let neighborhood = [
                    (c.wrapping_sub(1), l),
                    (c + 1, l),
                    (c, l.wrapping_sub(1)),
                    (c, l + 1),
                    (c, l),
                ];
                for (nc, nl) in neighborhood {
                    let cell = (nc, nl, mi);
                    if nc < self.clocks.len()
                        && nl < self.cycles.len()
                        && !self.known.contains(&cell)
                        && !out.contains(&cell)
                    {
                        if self.provably_infeasible(cell) {
                            self.known.insert(cell);
                            self.pruned += 1;
                            pruned_now += 1;
                            continue;
                        }
                        out.push(cell);
                    }
                }
            }
        }
        out.sort_unstable();
        (out, pruned_now)
    }

    /// The optimistic-bound prune: latency/throughput of a grid cell are
    /// exact without evaluation, and area/power are bounded below by the
    /// better of the two bracketing front points (monotone-interpolation
    /// bound — scheduling with a budget between two evaluated budgets does
    /// not beat both on area/power). If even that corner is dominated by a
    /// feasible front point — or already violates a `<=` budget on
    /// area/power, which its real evaluation can only exceed — evaluating
    /// the cell cannot change the (constrained) front.
    ///
    /// The dominance check deliberately runs in the **full**
    /// four-objective space whatever plane steers the run: full-space
    /// dominance implies the dominator is no worse on *every* axis, so a
    /// pruned cell can neither join the reported four-objective front nor
    /// strictly improve any plane's staircase — sound in every
    /// [`ObjectiveSpace`], and under [`refine_multi`] sound for every
    /// plane sharing the pass. (Pruning in-plane would discard cells that
    /// win on an unselected axis, and would make the default space diverge
    /// from the pre-redesign behavior.) The infeasibility check is
    /// restricted to `<=` bounds because the monotone-interpolation bound
    /// is a *lower* bound: it can prove a budget will be exceeded, never
    /// that a floor will be met.
    fn provably_useless(
        &self,
        cell: Cell,
        oa: &Objectives,
        ob: &Objectives,
        front: &[(usize, Cell, Objectives)],
    ) -> bool {
        use crate::constraint::ConstraintOp;
        let item_time = self.cell_item_time_ps(cell);
        let optimistic = Objectives {
            area: oa.area.min(ob.area),
            latency_ps: item_time,
            power: oa.power.min(ob.power),
            throughput: 1.0e6 / item_time,
        };
        if !optimistic.is_finite() {
            return false;
        }
        let over_budget = self.constraints.iter().any(|c| {
            matches!(c.axis, Objective::Area | Objective::PowerTotal)
                && c.op == ConstraintOp::Le
                && !c.satisfied_value(c.axis.value(&optimistic))
        });
        over_budget || front.iter().any(|(_, _, of)| dominates(of, &optimistic))
    }
}

/// True when the space's steering plane has a closed-form axis
/// (latency/throughput): such a plane's seed corners already span that
/// axis, so a single-point staircase is a genuinely converged corner and
/// densification is never needed (see [`Driver::plan_densify`]).
fn plane_has_exact_axis(space: &ObjectiveSpace) -> bool {
    let (p, s) = space.plane();
    [p, s]
        .iter()
        .any(|a| matches!(a, Objective::LatencyPs | Objective::Throughput))
}

/// Overflow-free index midpoint, rounding down.
fn midpoint(a: usize, b: usize) -> usize {
    a.min(b) + (a.max(b) - a.min(b)) / 2
}

/// Overflow-free index midpoint, rounding up.
fn midpoint_up(a: usize, b: usize) -> usize {
    a.min(b) + (a.max(b) - a.min(b)).div_ceil(2)
}

/// The effective gap tolerance: non-finite or negative values are treated
/// as `0.0` (refine until nothing new appears), on every driver.
fn clamp_gap_tol(t: f64) -> f64 {
    if t.is_finite() && t >= 0.0 {
        t
    } else {
        0.0
    }
}

/// Seed indices for one axis: first, middle, last (deduped).
fn seed_indices(len: usize) -> Vec<usize> {
    let mut idx = vec![0, len / 2, len.saturating_sub(1)];
    idx.sort_unstable();
    idx.dedup();
    idx.retain(|&i| i < len);
    idx
}

/// Adaptively refines the Pareto front of `grid` (see the module docs for
/// the algorithm) in the one plane [`RefineOptions::objectives`] selects.
/// Every evaluated cell is a cell of `grid`, so the result front is a
/// subset of the exhaustive sweep's rows, reached with — typically far —
/// fewer evaluations. `build` makes each cell's design, owned or already
/// shared (a memoizing builder hands out the same `Arc` every time).
///
/// This is [`refine_multi`] over that one plane, returning the plane's
/// result; its trace is the pass's merged trace.
///
/// # Errors
///
/// [`Error::Interp`] for a single-axis space or a constraint on an axis
/// the space does not select; [`Error::Capacity`] when the grid's cell
/// count overflows `usize`; otherwise propagates the evaluator's
/// scheduling failures (use a skip-infeasible evaluator to explore grids
/// with infeasible corners).
pub fn refine<F, D>(
    eval: &dyn Evaluator,
    grid: &SweepGrid,
    prefix: &str,
    build: F,
    opts: &RefineOptions,
) -> Result<RefineResult>
where
    F: FnMut(&SweepCell) -> D,
    D: Into<Arc<Design>>,
{
    let planes = [opts.objectives.clone()];
    let result = refine_multi(eval, grid, prefix, build, opts, &planes)?;
    Ok(result
        .planes
        .into_iter()
        .next()
        .expect("one result per plane"))
}

/// One merged round of a multi-plane refinement ([`refine_multi`]): what
/// the pass evaluated, and where every plane stood.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRoundTrace {
    /// Round number (`0` is the shared seed).
    pub round: usize,
    /// Cells evaluated this round — every plane's proposals, merged and
    /// deduplicated (a cell two planes want is evaluated once).
    pub new_points: usize,
    /// Size of the feasible full-objective front after integrating the
    /// round's rows.
    pub front_size: usize,
    /// Each plane's widest normalized staircase gap this round,
    /// index-aligned with the `planes` passed to [`refine_multi`]
    /// (`0.0` for the seed round and for planes with no gap yet).
    pub plane_gaps: Vec<f64>,
    /// Cells discarded without evaluation this round (optimistic-bound
    /// prunes and provable constraint violations), all planes combined.
    pub pruned: usize,
}

/// Outcome of one multi-plane refinement ([`refine_multi`]): per-plane
/// [`RefineResult`]s over one shared evaluation set, plus the merged
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRefineResult {
    /// One result per requested plane, in request order. All of them share
    /// the pass's `rows`/`skipped`/`front` (the evaluations were shared);
    /// each records its own `objectives` and a per-plane trace whose
    /// `max_gap` is that plane's gap and whose `new_points` counts the
    /// cells that plane proposed (a shared cell is credited to the first
    /// plane that asked for it).
    pub planes: Vec<RefineResult>,
    /// The merged per-round trace, seed first.
    pub trace: Vec<MultiRoundTrace>,
    /// Every evaluated row, in deterministic (round, cell-index) order —
    /// the union the planes steered together.
    pub rows: Vec<DseRow>,
    /// Infeasible cells as (name, error), if the evaluator skips them.
    pub skipped: Vec<(String, String)>,
    /// The full four-objective Pareto front over the feasible `rows` (see
    /// [`RefineResult::front`]) — identical in every plane's result.
    pub front: Vec<DseRow>,
    /// The constraints the pass honored (shared by every plane).
    pub constraints: Vec<Constraint>,
    /// Cells submitted for evaluation (`rows.len() + skipped.len()`) —
    /// each exactly once, however many planes wanted it.
    pub evaluated: usize,
    /// Cells discarded without evaluation, all planes combined.
    pub pruned: usize,
    /// Cell count of the deduplicated exhaustive grid.
    pub grid_cells: usize,
    /// Whether a [`CancelToken`] stopped the pass at a round boundary (see
    /// [`RefineResult::cancelled`]; mirrored into every plane's result).
    pub cancelled: bool,
}

/// Refines **several objective planes in one pass** over one shared
/// evaluator: every plane's staircase gaps are measured and bisected each
/// round, the proposed cells are merged (deduplicated) into one batch, and
/// every evaluation feeds every plane — so exploring `[area,latency]` and
/// `[area,power]` together performs no duplicate HLS evaluations, where
/// two single-plane runs would re-derive the shared neighborhoods (or pay
/// cache lookups for them).
///
/// `opts.objectives` is ignored; the planes come from `planes` (each needs
/// two axes, duplicates are rejected). Constraints apply to the whole
/// pass and must bound axes selected by at least one plane. Budget,
/// tolerance, warm start, and round cap are shared.
///
/// A plane stops proposing once its gaps are within tolerance (or its
/// candidate families are exhausted), and the pass ends when no plane
/// proposes anything new. Because every plane also sees the rows the
/// *other* planes requested, each plane's final staircase is at least as
/// resolved as its single-plane run's. With one plane this is [`refine`].
///
/// # Errors
///
/// As [`refine`], plus a message when `planes` is empty or repeats a
/// plane.
pub fn refine_multi<F, D>(
    eval: &dyn Evaluator,
    grid: &SweepGrid,
    prefix: &str,
    build: F,
    opts: &RefineOptions,
    planes: &[ObjectiveSpace],
) -> Result<MultiRefineResult>
where
    F: FnMut(&SweepCell) -> D,
    D: Into<Arc<Design>>,
{
    refine_multi_with_progress(eval, grid, prefix, build, opts, planes, |_| {})
}

/// [`refine_multi`], reporting each merged round's [`MultiRoundTrace`] to
/// `observe`: the seed round as soon as its rows are integrated, every
/// later round once the next boundary knows whether the run goes on (see
/// [`CancelToken`]). The traces passed to `observe` are exactly the
/// entries of [`MultiRefineResult::trace`]; the exploration server
/// streams its `round` events from this hook.
///
/// # Errors
///
/// As [`refine_multi`].
pub fn refine_multi_with_progress<F, D>(
    eval: &dyn Evaluator,
    grid: &SweepGrid,
    prefix: &str,
    build: F,
    opts: &RefineOptions,
    planes: &[ObjectiveSpace],
    mut observe: impl FnMut(&MultiRoundTrace),
) -> Result<MultiRefineResult>
where
    F: FnMut(&SweepCell) -> D,
    D: Into<Arc<Design>>,
{
    if planes.is_empty() {
        return Err(Error::Interp(
            "multi-plane refinement needs at least one objective plane".into(),
        ));
    }
    for p in planes {
        if p.axes().len() < 2 {
            return Err(Error::Interp(format!(
                "adaptive refinement steers a two-axis objective plane; `{p}` has only one axis \
                 (pick two, e.g. `area,power`)"
            )));
        }
    }
    crate::pareto::reject_duplicate_planes(planes).map_err(Error::Interp)?;
    // Constraints must bound an axis some plane selects; the union is the
    // pass's effective objective space.
    validate_constraints(&opts.constraints, &crate::pareto::axis_union(planes))
        .map_err(Error::Interp)?;

    let gap_tol = clamp_gap_tol(opts.gap_tol);
    let (mut driver, grid_cells) = Driver::prepare(grid, prefix, build, &opts.constraints)?;
    driver.mode = opts.point_mode;
    let empty_result = |planes: &[ObjectiveSpace]| MultiRefineResult {
        planes: planes
            .iter()
            .map(|p| RefineResult {
                rows: Vec::new(),
                skipped: Vec::new(),
                front: Vec::new(),
                objectives: p.clone(),
                constraints: opts.constraints.clone(),
                trace: Vec::new(),
                evaluated: 0,
                pruned: 0,
                grid_cells,
                cancelled: false,
            })
            .collect(),
        trace: Vec::new(),
        rows: Vec::new(),
        skipped: Vec::new(),
        front: Vec::new(),
        constraints: opts.constraints.clone(),
        evaluated: 0,
        pruned: 0,
        grid_cells,
        cancelled: false,
    };
    if driver.clocks.is_empty() || driver.cycles.is_empty() || driver.modes.is_empty() {
        return Ok(empty_result(planes));
    }

    // Round timing lands in a histogram named after the plane set
    // (`refine.round.<plane>[;<plane>…]`) on the current telemetry
    // registry; the counters tally work done vs avoided. One histogram
    // sample per evaluated round, seed included, so the sample count equals
    // `trace.len()`. Observational only: traces and rows are bit-identical
    // with telemetry on or off.
    let round_metric = format!(
        "refine.round.{}",
        planes
            .iter()
            .map(|p| p.names().join("_"))
            .collect::<Vec<_>>()
            .join(";")
    );
    let (seed, seed_pruned) = driver.seed(&opts.warm_start, opts.budget);
    adhls_telemetry::timed(&round_metric, || driver.evaluate_cells(eval, &seed))?;
    adhls_telemetry::counter_add("refine.cells_evaluated", seed.len() as u64);
    adhls_telemetry::counter_add("refine.cells_pruned", seed_pruned as u64);
    let front_size = driver.front().len();
    let mut merged = vec![MultiRoundTrace {
        round: 0,
        new_points: seed.len(),
        front_size,
        plane_gaps: vec![0.0; planes.len()],
        pruned: seed_pruned,
    }];
    let mut plane_traces: Vec<Vec<RoundTrace>> = planes
        .iter()
        .map(|_| {
            vec![RoundTrace {
                round: 0,
                new_points: seed.len(),
                front_size,
                max_gap: 0.0,
                pruned: seed_pruned,
            }]
        })
        .collect();
    observe(&merged[0]);

    let mut cancelled = false;
    // The newest round is streamed only once the next boundary knows
    // whether the run goes on (see `CancelToken`): `held` is its undo
    // point — rows, skips and the pruned count before it was planned.
    let mut held: Option<(usize, usize, usize)> = None;
    let mut round = 1;
    loop {
        let pruned_before = driver.pruned;
        let planned = 'plan: {
            if round > opts.max_rounds {
                break 'plan None;
            }
            // One shared pending set: a cell several planes want this round is
            // queued once, credited to the first plane that asked.
            let mut pending: HashSet<Cell> = HashSet::new();
            // One front extraction per round, shared by every plane's prune —
            // rows don't change while the round plans.
            let full_front = driver.front();
            // Which plane proposed each cell — so per-plane counts can be
            // re-derived from the cells that *survive* the budget cut below.
            let mut proposer: HashMap<Cell, usize> = HashMap::new();
            let mut candidates: Vec<Cell> = Vec::new();
            let mut plane_gaps = vec![0.0f64; planes.len()];
            let mut plane_pruned = vec![0usize; planes.len()];
            for (pi, plane) in planes.iter().enumerate() {
                let stairs = driver.staircase(plane);
                if stairs.is_empty() {
                    continue;
                }
                let (gap, fresh, pruned_now) = if stairs.len() < 2 {
                    // A single-point staircase has no gap to bisect. For
                    // planes with a closed-form axis (latency/throughput)
                    // the seed's corner cells already span that axis, so it
                    // is a genuinely converged corner. Planes whose axes
                    // are both evaluated quantities densify the lone
                    // point's axis neighborhood instead (see
                    // `plan_densify`); the gap is reported as 0.0, like the
                    // seed round's.
                    if plane_has_exact_axis(plane) {
                        continue;
                    }
                    let (cands, pruned_now) = driver.plan_densify(&stairs);
                    let fresh: Vec<Cell> =
                        cands.into_iter().filter(|c| pending.insert(*c)).collect();
                    (0.0, fresh, pruned_now)
                } else {
                    // `plan` itself skips (and credits) cells another plane
                    // already queued via the shared pending set.
                    driver.plan(plane, &stairs, gap_tol, &mut pending, &full_front)
                };
                plane_gaps[pi] = gap;
                plane_pruned[pi] = pruned_now;
                for &c in &fresh {
                    proposer.insert(c, pi);
                }
                candidates.extend(fresh);
            }
            if candidates.is_empty() {
                break 'plan None;
            }
            candidates.sort_unstable();
            if opts.budget > 0 {
                let spent = driver.rows.len() + driver.skipped.len();
                let remaining = opts.budget.saturating_sub(spent);
                if remaining == 0 {
                    break 'plan None;
                }
                candidates.truncate(remaining);
            }
            Some((candidates, proposer, plane_gaps, plane_pruned))
        };
        let Some((candidates, proposer, plane_gaps, plane_pruned)) = planned else {
            if cancelled_at_end(opts.cancel.as_ref()) {
                cancelled = true;
                adhls_telemetry::counter_add("refine.cancelled", 1);
                driver.pruned = pruned_before;
                if let Some((rows, skipped, pruned)) = held.take() {
                    driver.rows.truncate(rows);
                    driver.row_cells.truncate(rows);
                    driver.skipped.truncate(skipped);
                    driver.pruned = pruned;
                    merged.pop();
                    for t in &mut plane_traces {
                        t.pop();
                    }
                }
            }
            if held.is_some() {
                observe(merged.last().expect("held round is traced"));
            }
            break;
        };
        if held.take().is_some() {
            observe(merged.last().expect("held round is traced"));
        }
        // The round boundary is the one cancellation point: rows and trace
        // integrated so far are a valid prefix of the uncancelled run.
        if cancelled_at(opts.cancel.as_ref()) {
            cancelled = true;
            adhls_telemetry::counter_add("refine.cancelled", 1);
            driver.pruned = pruned_before;
            break;
        }
        held = Some((driver.rows.len(), driver.skipped.len(), pruned_before));
        // Per-plane counts reflect what was *evaluated*, not what was
        // proposed: cells the budget truncation dropped never ran, and
        // counting them would make the per-plane traces disagree with the
        // merged trace (and with a single-plane run's under one plane).
        let mut plane_new = vec![0usize; planes.len()];
        for c in &candidates {
            plane_new[proposer[c]] += 1;
        }
        adhls_telemetry::timed(&round_metric, || driver.evaluate_cells(eval, &candidates))?;
        adhls_telemetry::counter_add("refine.cells_evaluated", candidates.len() as u64);
        adhls_telemetry::counter_add(
            "refine.cells_pruned",
            plane_pruned.iter().sum::<usize>() as u64,
        );
        let front_size = driver.front().len();
        merged.push(MultiRoundTrace {
            round,
            new_points: candidates.len(),
            front_size,
            plane_gaps: plane_gaps.clone(),
            pruned: plane_pruned.iter().sum(),
        });
        for (pi, t) in plane_traces.iter_mut().enumerate() {
            t.push(RoundTrace {
                round,
                new_points: plane_new[pi],
                front_size,
                max_gap: plane_gaps[pi],
                pruned: plane_pruned[pi],
            });
        }
        round += 1;
    }

    let front: Vec<DseRow> = driver
        .front()
        .into_iter()
        .map(|(i, _, _)| driver.rows[i].clone())
        .collect();
    let evaluated = driver.rows.len() + driver.skipped.len();
    let plane_results: Vec<RefineResult> = planes
        .iter()
        .zip(plane_traces)
        .map(|(plane, trace)| RefineResult {
            rows: driver.rows.clone(),
            skipped: driver.skipped.clone(),
            front: front.clone(),
            objectives: plane.clone(),
            constraints: opts.constraints.clone(),
            trace,
            evaluated,
            pruned: driver.pruned,
            grid_cells,
            cancelled,
        })
        .collect();
    Ok(MultiRefineResult {
        planes: plane_results,
        trace: merged,
        rows: driver.rows,
        skipped: driver.skipped,
        front,
        constraints: opts.constraints.clone(),
        evaluated,
        pruned: driver.pruned,
        grid_cells,
        cancelled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::OpKind;
    use adhls_reslib::tsmc90;

    /// Synthetic workload: a small multiply-add chain whose latency budget
    /// is baked in as soft states — cheap to schedule, real area/latency
    /// tradeoff (looser budgets downgrade resources).
    fn build_cell(cell: &SweepCell) -> Design {
        let mut b = DesignBuilder::new("syn");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let m1 = b.binop(OpKind::Mul, x, y, 8);
        let m2 = b.binop(OpKind::Mul, m1, x, 8);
        let a = b.binop(OpKind::Add, m1, m2, 16);
        b.soft_waits(cell.cycles.saturating_sub(1));
        b.write("z", a);
        b.finish().unwrap()
    }

    fn grid(clocks: &[u64], cycles: &[u32]) -> SweepGrid {
        SweepGrid::new()
            .clocks_ps(clocks.iter().copied())
            .cycles(cycles.iter().copied())
    }

    fn engine(lib: &adhls_reslib::Library) -> Engine<'_> {
        Engine::with_options(
            lib,
            Default::default(),
            EngineOptions {
                skip_infeasible: true,
                ..Default::default()
            },
        )
    }

    /// Fires `token` while evaluation batch `at` runs (0 = the seed).
    struct CancelDuring<'a> {
        inner: Engine<'a>,
        token: CancelToken,
        at: usize,
        calls: std::cell::Cell<usize>,
    }

    impl Evaluator for CancelDuring<'_> {
        fn evaluate_points(&self, points: &[DsePoint]) -> Result<SweepResult> {
            let k = self.calls.get();
            self.calls.set(k + 1);
            if k == self.at {
                self.token.cancel();
            }
            self.inner.evaluate_points(points)
        }
    }

    #[test]
    fn a_cancel_in_any_round_stops_short_of_the_last() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        let plain = RefineOptions {
            gap_tol: 0.0,
            ..Default::default()
        };
        let full = refine(&engine(&lib), &g, "syn", build_cell, &plain).unwrap();
        let last = full.trace.len() - 1;
        assert!(last >= 1, "fixture must be multi-round");
        let planes = [
            ObjectiveSpace::parse("area,latency").unwrap(),
            ObjectiveSpace::parse("area,power").unwrap(),
        ];
        let full_multi = refine_multi_with_progress(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &plain,
            &planes,
            |_| {},
        )
        .unwrap();
        for at in 0..=last {
            // Cancelled while round `at` evaluates: the run stops at the
            // next boundary with more work, or — in the last round, which
            // can no longer close its token — takes that round back.
            let kept = if at == last { last } else { at + 1 };
            let eval = CancelDuring {
                inner: engine(&lib),
                token: CancelToken::new(),
                at,
                calls: std::cell::Cell::new(0),
            };
            let opts = RefineOptions {
                cancel: Some(eval.token.clone()),
                ..plain.clone()
            };
            let mut streamed = Vec::new();
            let one_plane = [plain.objectives.clone()];
            let r =
                refine_multi_with_progress(&eval, &g, "syn", build_cell, &opts, &one_plane, |t| {
                    streamed.push(t.clone());
                })
                .unwrap();
            assert_eq!(streamed, r.trace, "only kept rounds are streamed");
            let r = &r.planes[0];
            assert!(r.cancelled, "cancel in round {at}");
            assert_eq!(r.trace[..], full.trace[..kept], "cancel in round {at}");
            assert_eq!(r.rows[..], full.rows[..r.rows.len()]);
            assert!(eval.token.try_cancel(), "a cancelled token stays cancelled");

            let eval = CancelDuring {
                inner: engine(&lib),
                token: CancelToken::new(),
                at,
                calls: std::cell::Cell::new(0),
            };
            let opts = RefineOptions {
                cancel: Some(eval.token.clone()),
                ..plain.clone()
            };
            let m =
                refine_multi_with_progress(&eval, &g, "syn", build_cell, &opts, &planes, |_| {})
                    .unwrap();
            let multi_last = full_multi.trace.len() - 1;
            if at <= multi_last {
                let kept = if at == multi_last { multi_last } else { at + 1 };
                assert!(m.cancelled, "multi-plane cancel in round {at}");
                assert_eq!(m.trace[..], full_multi.trace[..kept]);
            }
        }
        // A run that finishes closes its token: a late cancel is refused.
        let token = CancelToken::new();
        let opts = RefineOptions {
            cancel: Some(token.clone()),
            ..plain
        };
        let done = refine(&engine(&lib), &g, "syn", build_cell, &opts).unwrap();
        assert!(!done.cancelled);
        assert_eq!(done.trace, full.trace);
        assert!(!token.try_cancel(), "a finished run refuses cancels");
        assert!(!token.is_cancelled());
    }

    #[test]
    fn tiny_grid_seed_is_the_whole_grid_and_front_is_exact() {
        // 3x3 axes: first/mid/last covers every index, so the adaptive
        // front must equal the exhaustive front bit for bit.
        let lib = tsmc90::library();
        let g = grid(&[1100, 1400, 1800], &[2, 4, 6]);
        let eng = engine(&lib);
        let r = refine(&eng, &g, "syn", build_cell, &RefineOptions::default()).unwrap();
        assert_eq!(r.evaluated, 9);
        assert_eq!(r.grid_cells, 9);
        let exhaustive = g.expand("syn", build_cell).unwrap();
        let ex_rows = engine(&lib).evaluate_points(&exhaustive).unwrap().rows;
        assert_eq!(r.front, crate::pareto::pareto_front(&ex_rows));
        assert_eq!(r.trace[0].round, 0);
        assert_eq!(r.trace[0].new_points, 9);
    }

    #[test]
    fn refined_cells_are_grid_cells_and_fewer_than_exhaustive() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        let eng = engine(&lib);
        let r = refine(
            &eng,
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                gap_tol: 0.25,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            r.evaluated < r.grid_cells,
            "adaptive must beat exhaustive: {} vs {}",
            r.evaluated,
            r.grid_cells
        );
        // Every evaluated row is bit-identical to the exhaustive sweep's
        // row for the same cell (name match ⇒ full row match).
        let exhaustive = g.expand("syn", build_cell).unwrap();
        let ex_rows = engine(&lib).evaluate_points(&exhaustive).unwrap().rows;
        for row in &r.rows {
            let twin = ex_rows
                .iter()
                .find(|e| e.name == row.name)
                .unwrap_or_else(|| panic!("{} not a grid cell", row.name));
            assert_eq!(row, twin);
        }
        assert!(!r.front.is_empty());
    }

    #[test]
    fn budget_caps_evaluations() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        let eng = engine(&lib);
        let r = refine(
            &eng,
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                budget: 12,
                gap_tol: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.evaluated <= 12, "budget 12, spent {}", r.evaluated);
    }

    #[test]
    fn refinement_is_deterministic() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800], &[2, 3, 4, 6]);
        let opts = RefineOptions {
            gap_tol: 0.1,
            ..Default::default()
        };
        let a = refine(&engine(&lib), &g, "syn", build_cell, &opts).unwrap();
        let b = refine(&engine(&lib), &g, "syn", build_cell, &opts).unwrap();
        assert_eq!(a, b, "same grid, same options, same everything");
    }

    #[test]
    fn empty_axes_refine_to_nothing() {
        let lib = tsmc90::library();
        let g = SweepGrid::new().clocks_ps([1100]);
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions::default(),
        )
        .unwrap();
        assert!(r.rows.is_empty());
        assert!(r.front.is_empty());
        assert!(r.trace.is_empty());
    }

    #[test]
    fn nonfinite_gap_tol_is_clamped_not_honored() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1400, 1800], &[2, 4, 6]);
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                gap_tol: f64::NAN,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            r.evaluated >= 9,
            "NaN tolerance must not stop refinement early"
        );
    }

    #[test]
    fn warm_start_cells_parse_export_documents_and_skip_foreign_names() {
        let json = r#"{"sweep": [], "front": [
            {"name":"syn-c1100-l2","a_slack":10},
            {"name":"D7","a_slack":11},
            {"name":"syn-c1400-l4-ii2","a_slack":12},
            {"name":"syn-c1100-l2","a_slack":10}
        ]}"#;
        let cells = warm_start_cells(json).unwrap();
        assert_eq!(
            cells,
            vec![
                SweepCell {
                    clock_ps: 1100,
                    cycles: 2,
                    pipeline_ii: None
                },
                SweepCell {
                    clock_ps: 1400,
                    cycles: 4,
                    pipeline_ii: Some(2)
                },
            ],
            "grid names map to cells, D7 and duplicates are dropped"
        );
        assert!(warm_start_cells("not json").is_err());
        assert!(warm_start_cells("{\"x\":1}").is_err());
    }

    #[test]
    fn warm_start_extends_the_seed_and_preserves_the_front() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        let opts = RefineOptions {
            gap_tol: 0.25,
            ..Default::default()
        };
        let cold = refine(&engine(&lib), &g, "syn", build_cell, &opts).unwrap();
        // Warm-start from the cold run's front (as if re-imported from its
        // exported JSON): the warm seed contains every front cell, and the
        // refined front can only be at least as good — here, identical.
        let warm_cells: Vec<SweepCell> = cold
            .front
            .iter()
            .map(|r| {
                let (clock_ps, cycles, pipeline_ii) =
                    adhls_core::dse::DsePoint::parse_grid_name(&r.name).unwrap();
                SweepCell {
                    clock_ps,
                    cycles,
                    pipeline_ii,
                }
            })
            .collect();
        let warm = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                warm_start: warm_cells.clone(),
                ..opts
            },
        )
        .unwrap();
        assert!(
            warm.trace[0].new_points >= cold.trace[0].new_points,
            "warm seed is a superset of the cold seed"
        );
        for c in &warm_cells {
            let name =
                adhls_core::dse::DsePoint::grid_name("syn", c.clock_ps, c.cycles, c.pipeline_ii);
            assert!(
                warm.rows.iter().any(|r| r.name == name),
                "warm cell {name} was evaluated in the warm run"
            );
        }
        assert_eq!(warm.front, cold.front, "same grid, same converged front");
        // Cells that name no cell of this grid are ignored, not errors.
        let stray = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                warm_start: vec![SweepCell {
                    clock_ps: 99_999,
                    cycles: 77,
                    pipeline_ii: Some(3),
                }],
                gap_tol: 0.25,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stray.trace[0].new_points, cold.trace[0].new_points);
    }

    #[test]
    fn single_axis_spaces_are_rejected_not_hill_walked() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1400, 1800], &[2, 4, 6]);
        let err = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                objectives: ObjectiveSpace::new([Objective::PowerTotal]).unwrap(),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("two-axis"), "{err}");
    }

    #[test]
    fn warm_start_round_trips_the_exported_objective_space() {
        let json = r#"{"objectives":["area","power"],"sweep":[],
            "front":[{"name":"syn-c1100-l2","a_slack":10}]}"#;
        let ws = WarmStart::parse(json).unwrap();
        assert_eq!(
            ws.objectives,
            Some(ObjectiveSpace::parse("area,power").unwrap())
        );
        assert_eq!(ws.cells.len(), 1);
        // Pre-redesign exports carry no objectives field: None, not an
        // error — and the cells still load.
        let legacy = WarmStart::parse(r#"{"front":[{"name":"syn-c1100-l2"}]}"#).unwrap();
        assert_eq!(legacy.objectives, None);
        assert_eq!(legacy.cells, ws.cells);
        // A recorded-but-bogus space is an error, not a silent default.
        assert!(WarmStart::parse(r#"{"objectives":["warp"],"front":[]}"#).is_err());
        assert!(WarmStart::parse(r#"{"objectives":7,"front":[]}"#).is_err());
    }

    #[test]
    fn power_plane_refinement_converges_and_records_its_space() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        let space = ObjectiveSpace::parse("area,power").unwrap();
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                gap_tol: 0.2,
                objectives: space.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.objectives, space);
        assert!(!r.front.is_empty());
        assert!(r.evaluated <= r.grid_cells, "never beyond exhaustive");
        assert!(
            !crate::pareto::tradeoff_staircase_in(&space, &r.rows).is_empty(),
            "the steering plane has a staircase to converge on"
        );
        // Every evaluated cell is still a cell of the exhaustive grid.
        let exhaustive = g.expand("syn", build_cell).unwrap();
        let ex_rows = engine(&lib).evaluate_points(&exhaustive).unwrap().rows;
        for row in &r.rows {
            assert!(
                ex_rows.iter().any(|e| e == row),
                "{} diverged from the exhaustive sweep",
                row.name
            );
        }
        // The default-space result is a different run (different steering
        // plane), but both report full-objective fronts over their rows.
        let default_run = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                gap_tol: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(default_run.objectives, ObjectiveSpace::default());
    }

    #[test]
    fn progress_observer_sees_every_trace_entry() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800], &[2, 3, 4, 6]);
        let mut seen = Vec::new();
        let r = refine_multi_with_progress(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                gap_tol: 0.1,
                ..Default::default()
            },
            &[ObjectiveSpace::default()],
            |t| seen.push(t.clone()),
        )
        .unwrap();
        assert_eq!(seen, r.trace, "streamed traces match the result trace");
        for (t, m) in r.planes[0].trace.iter().zip(&seen) {
            assert_eq!(t.max_gap, m.plane_gaps[0], "one plane's gap is its trace's");
        }
    }

    #[test]
    fn constrained_refine_front_is_the_feasible_slice() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        // Reference: the unconstrained exhaustive sweep.
        let exhaustive = g.expand("syn", build_cell).unwrap();
        let ex_rows = engine(&lib).evaluate_points(&exhaustive).unwrap().rows;
        // A latency budget cutting through the middle of the plane.
        let lats: Vec<f64> = ex_rows.iter().map(|r| r.latency_ps).collect();
        let mid = lats.iter().copied().fold(f64::NEG_INFINITY, f64::max) / 2.0;
        let cs = vec![Constraint::parse(&format!("latency<={mid}")).unwrap()];
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                gap_tol: 0.0,
                constraints: cs.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.constraints, cs);
        // Every reported front row is feasible, and the front equals the
        // post-hoc constrained extraction over the same evaluations.
        assert!(r.front.iter().all(|row| row.latency_ps <= mid));
        assert_eq!(
            r.front,
            crate::pareto::pareto_front_in_constrained(&ObjectiveSpace::full(), &cs, &r.rows)
        );
        // The provable-infeasibility skip kept the budget-violating cells
        // away from the evaluator entirely.
        assert!(r.rows.iter().all(|row| row.latency_ps <= mid));
        assert!(r.pruned > 0, "closed-form infeasible cells were skipped");
        assert!(r.evaluated < r.grid_cells);
        // The constrained staircase is the feasible slice of the
        // unconstrained plane staircase (improving bound ⇒ commutes).
        let feasible_slice: Vec<DseRow> = crate::pareto::tradeoff_staircase(&ex_rows)
            .into_iter()
            .filter(|row| row.latency_ps <= mid)
            .collect();
        let refined_stairs =
            crate::pareto::tradeoff_staircase_in_constrained(&r.objectives, &cs, &r.rows);
        for s in &feasible_slice {
            assert!(
                refined_stairs.iter().any(|a| a == s)
                    || refined_stairs
                        .iter()
                        .any(|a| a.a_slack <= s.a_slack && a.latency_ps <= s.latency_ps),
                "feasible exhaustive staircase point {} is not covered",
                s.name
            );
        }
    }

    #[test]
    fn constraints_on_unselected_axes_are_rejected() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1400, 1800], &[2, 4, 6]);
        let err = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                constraints: vec![Constraint::parse("power<=10").unwrap()],
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("power"), "{err}");
        // The same bound is fine once the space selects the axis.
        refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                objectives: ObjectiveSpace::parse("area,power").unwrap(),
                constraints: vec![Constraint::parse("power<=1e9").unwrap()],
                ..Default::default()
            },
        )
        .unwrap();
    }

    #[test]
    fn infeasible_constraints_refine_to_an_empty_front() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1400, 1800], &[2, 4, 6]);
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                // No cell of this grid is this fast.
                constraints: vec![Constraint::parse("latency<=1").unwrap()],
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.front.is_empty());
        assert_eq!(r.evaluated, 0, "every cell was provably infeasible");
        assert!(r.pruned > 0);
    }

    #[test]
    fn empty_constraints_are_bit_identical_to_the_unconstrained_run() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800], &[2, 3, 4, 6]);
        let opts = RefineOptions {
            gap_tol: 0.1,
            ..Default::default()
        };
        let plain = refine(&engine(&lib), &g, "syn", build_cell, &opts).unwrap();
        let constrained = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                constraints: Vec::new(),
                ..opts
            },
        )
        .unwrap();
        assert_eq!(plain, constrained);
    }

    #[test]
    fn warm_start_round_trips_exported_constraints() {
        let json = r#"{"objectives":["area","power"],
            "constraints":["area<=1500","power<=40"],
            "front":[{"name":"syn-c1100-l2","a_slack":10}]}"#;
        let ws = WarmStart::parse(json).unwrap();
        assert_eq!(
            ws.constraints,
            vec![
                Constraint::parse("area<=1500").unwrap(),
                Constraint::parse("power<=40").unwrap(),
            ]
        );
        // Absent and null mean unconstrained, like pre-constraint exports.
        let legacy = WarmStart::parse(r#"{"front":[{"name":"syn-c1100-l2"}]}"#).unwrap();
        assert!(legacy.constraints.is_empty());
        // A recorded-but-bogus constraint is an error, not a default.
        assert!(WarmStart::parse(r#"{"constraints":["warp<=1"],"front":[]}"#).is_err());
        assert!(WarmStart::parse(r#"{"constraints":7,"front":[]}"#).is_err());
    }

    #[test]
    fn multi_plane_refinement_shares_every_evaluation() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        let planes = ObjectiveSpace::parse_multi("area,latency;area,power").unwrap();
        let opts = RefineOptions {
            gap_tol: 0.1,
            ..Default::default()
        };
        let multi = refine_multi(&engine(&lib), &g, "syn", build_cell, &opts, &planes).unwrap();
        assert_eq!(multi.planes.len(), 2);
        // No cell is evaluated twice: the row names are unique.
        let mut names: Vec<&str> = multi.rows.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a cell was evaluated twice");
        assert_eq!(multi.evaluated, multi.rows.len() + multi.skipped.len());
        // Per-plane results share the evaluation set and record their own
        // plane; the merged trace is index-aligned with the planes.
        for (pi, plane_result) in multi.planes.iter().enumerate() {
            assert_eq!(plane_result.objectives, planes[pi]);
            assert_eq!(plane_result.rows, multi.rows);
            assert_eq!(plane_result.front, multi.front);
            assert_eq!(plane_result.trace.len(), multi.trace.len());
            for (t, m) in plane_result.trace.iter().zip(&multi.trace) {
                assert_eq!(t.round, m.round);
                assert_eq!(t.max_gap, m.plane_gaps[pi]);
            }
        }
        // Each plane's staircase over the shared rows covers its
        // single-plane run's staircase within the tolerance box (the multi
        // pass saw a superset of useful cells, so it can only be at least
        // as resolved).
        for (pi, plane) in planes.iter().enumerate() {
            let single = refine(
                &engine(&lib),
                &g,
                "syn",
                build_cell,
                &RefineOptions {
                    objectives: plane.clone(),
                    ..opts.clone()
                },
            )
            .unwrap();
            let single_stairs = crate::pareto::tradeoff_staircase_in(plane, &single.rows);
            let multi_stairs = crate::pareto::tradeoff_staircase_in(plane, &multi.rows);
            assert!(
                !multi_stairs.is_empty(),
                "plane {pi} has a staircase in the merged pass"
            );
            let (p, s) = plane.plane();
            let val = |r: &DseRow, a: Objective| a.key(&crate::pareto::objectives(r));
            for sp in &single_stairs {
                let covered = multi_stairs
                    .iter()
                    .any(|m| val(m, p) <= val(sp, p) && val(m, s) <= val(sp, s) + 1e-9);
                assert!(
                    covered,
                    "plane {pi}: single-plane staircase point {} not covered by the multi pass",
                    sp.name
                );
            }
        }
    }

    #[test]
    fn multi_plane_budget_truncation_keeps_traces_consistent() {
        // Per-plane round counts must describe what was *evaluated*, not
        // what was proposed: under a tight budget the merged batch is
        // truncated, and the per-plane new_points must sum to the merged
        // (post-truncation) count in every round.
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800, 2100], &[2, 3, 4, 5, 6]);
        let planes = ObjectiveSpace::parse_multi("area,latency;area,power").unwrap();
        let multi = refine_multi(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                budget: 11,
                gap_tol: 0.0,
                ..Default::default()
            },
            &planes,
        )
        .unwrap();
        assert!(
            multi.evaluated <= 11,
            "budget 11, spent {}",
            multi.evaluated
        );
        for (ri, m) in multi.trace.iter().enumerate() {
            let per_plane_sum: usize = multi.planes.iter().map(|p| p.trace[ri].new_points).sum();
            // The shared seed round is credited in full to every plane
            // (they all consumed it); refinement rounds partition the
            // evaluated batch across the proposing planes.
            if ri == 0 {
                for p in &multi.planes {
                    assert_eq!(p.trace[0].new_points, m.new_points);
                }
            } else {
                assert_eq!(
                    per_plane_sum, m.new_points,
                    "round {ri}: per-plane counts disagree with the merged trace"
                );
            }
        }
    }

    #[test]
    fn multi_plane_rejects_empty_duplicate_and_single_axis_planes() {
        let lib = tsmc90::library();
        let g = grid(&[1100, 1400, 1800], &[2, 4, 6]);
        let opts = RefineOptions::default();
        let err = refine_multi(&engine(&lib), &g, "syn", build_cell, &opts, &[]).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        let dup = ObjectiveSpace::parse_multi("area,power").unwrap();
        let err = refine_multi(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &opts,
            &[dup[0].clone(), dup[0].clone()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        let err = refine_multi(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &opts,
            &[ObjectiveSpace::new([Objective::Area]).unwrap()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("two-axis"), "{err}");
        // Constraints must hit an axis of at least one plane.
        let planes = ObjectiveSpace::parse_multi("area,latency;area,power").unwrap();
        let err = refine_multi(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions {
                constraints: vec![Constraint::parse("throughput>=1").unwrap()],
                ..Default::default()
            },
            &planes,
        )
        .unwrap_err();
        assert!(err.to_string().contains("throughput"), "{err}");
    }

    #[test]
    fn multi_plane_single_plane_matches_the_dedicated_driver_rows() {
        // `refine` is refine_multi over one plane: the evaluated set,
        // front and trace must coincide, and observing the run must not
        // perturb it.
        let lib = tsmc90::library();
        let g = grid(&[1100, 1250, 1400, 1600, 1800], &[2, 3, 4, 6]);
        let opts = RefineOptions {
            gap_tol: 0.1,
            ..Default::default()
        };
        let single = refine(&engine(&lib), &g, "syn", build_cell, &opts).unwrap();
        let multi = refine_multi(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &opts,
            &[ObjectiveSpace::default()],
        )
        .unwrap();
        assert_eq!(multi.rows, single.rows);
        assert_eq!(multi.front, single.front);
        assert_eq!(multi.evaluated, single.evaluated);
        assert_eq!(multi.planes[0].trace, single.trace);
        let observer_run = {
            let mut seen = Vec::new();
            let r = refine_multi_with_progress(
                &engine(&lib),
                &g,
                "syn",
                build_cell,
                &opts,
                &[ObjectiveSpace::default()],
                |t| seen.push(t.clone()),
            )
            .unwrap();
            assert_eq!(seen, r.trace, "streamed traces match the result trace");
            r
        };
        assert_eq!(observer_run, multi, "observer does not perturb the run");
    }

    #[test]
    fn duplicate_axis_values_do_not_double_evaluate() {
        let lib = tsmc90::library();
        let g = grid(&[1400, 1100, 1400, 1100], &[4, 2, 4]);
        let r = refine(
            &engine(&lib),
            &g,
            "syn",
            build_cell,
            &RefineOptions::default(),
        )
        .unwrap();
        // Deduped axes: 2 clocks x 2 cycles = 4 distinct cells at most,
        // and the reported exhaustive denominator matches the deduped
        // grid, not the raw duplicate-laden axes.
        assert_eq!(r.grid_cells, 4, "grid_cells must count distinct cells");
        assert!(
            r.evaluated <= 4,
            "deduped grid has 4 cells, saw {}",
            r.evaluated
        );
        let mut names: Vec<&str> = r.rows.iter().map(|x| x.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), r.rows.len(), "duplicate rows evaluated");
    }
}
