//! Design-space-exploration driver (paper §VII, Table 4).
//!
//! Runs the conventional and slack-based flows over a set of design points
//! (workload instances at different latency budgets, clocks and pipelining
//! modes), producing the paper's `A_conv` / `A_slack` / `Save %` rows plus
//! the power/throughput/area ranges quoted in the text.

use crate::power::{estimate, PowerReport};
use crate::prepare::PreparedDesign;
use crate::report::Table;
use crate::sched::{run_hls_prepared, Flow, HlsOptions, HlsResult};
use adhls_ir::{Design, Result};
use adhls_reslib::Library;
use std::sync::Arc;

/// One design point to explore.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// Point name (D1..D15 in the paper).
    pub name: String,
    /// The elaborated design (latency budget baked in as soft states),
    /// shared: the points of one design, their clones and the prefix
    /// cache's [`PreparedDesign`] all hold the same graph.
    pub design: Arc<Design>,
    /// Clock period.
    pub clock_ps: u64,
    /// Pipeline initiation interval (None = sequential).
    pub pipeline_ii: Option<u32>,
    /// Cycles between successive data items (II or loop latency).
    pub cycles_per_item: u32,
}

impl DsePoint {
    /// The shared grid-point naming scheme,
    /// `prefix-c<clock>-l<cycles>[-ii<n>]` — one definition so rows from
    /// `adhls-explore` grids and the per-workload sweep constructors stay
    /// cross-referenceable.
    #[must_use]
    pub fn grid_name(prefix: &str, clock_ps: u64, cycles: u32, ii: Option<u32>) -> String {
        match ii {
            Some(ii) => format!("{prefix}-c{clock_ps}-l{cycles}-ii{ii}"),
            None => format!("{prefix}-c{clock_ps}-l{cycles}"),
        }
    }

    /// A grid point under [`DsePoint::grid_name`]. `cycles_per_item` is the
    /// initiation interval for pipelined cells and the latency budget
    /// otherwise (the paper's Table 4 convention), clamped to ≥ 1 so
    /// degenerate grids can't produce infinite throughput. The design may
    /// be owned or already shared.
    #[must_use]
    pub fn grid(
        prefix: &str,
        design: impl Into<Arc<Design>>,
        clock_ps: u64,
        cycles: u32,
        ii: Option<u32>,
    ) -> Self {
        DsePoint {
            name: DsePoint::grid_name(prefix, clock_ps, cycles, ii),
            design: design.into(),
            clock_ps,
            pipeline_ii: ii,
            cycles_per_item: ii.unwrap_or(cycles).max(1),
        }
    }

    /// Exact time between successive data items for this point, in
    /// picoseconds. This is a pure function of the grid coordinates — no
    /// scheduling required — which is what lets adaptive refinement prune
    /// unevaluated cells on the latency axis with a *provable* (not
    /// estimated) value. Must stay the single definition shared with
    /// [`evaluate_point`], or pruning bounds drift from what evaluation
    /// reports.
    #[must_use]
    pub fn item_time_ps(&self) -> f64 {
        grid_item_time_ps(self.clock_ps, self.cycles_per_item)
    }

    /// Inverse of [`DsePoint::grid_name`]: recovers
    /// `(clock_ps, cycles, pipeline_ii)` from a grid point's name, or
    /// `None` for names not produced by the grid naming scheme. The prefix
    /// is ignored — only the trailing `-c<clock>-l<cycles>[-ii<n>]` cell
    /// coordinates matter — so fronts exported from any workload can seed a
    /// warm start on the matching grid.
    #[must_use]
    pub fn parse_grid_name(name: &str) -> Option<(u64, u32, Option<u32>)> {
        // Walk the dash-separated segments from the right: [ii<n>] then
        // l<cycles> then c<clock>. Prefixes may themselves contain dashes.
        let mut parts = name.rsplit('-');
        let mut seg = parts.next()?;
        let ii = if let Some(raw) = seg.strip_prefix("ii") {
            let ii = raw.parse().ok()?;
            seg = parts.next()?;
            Some(ii)
        } else {
            None
        };
        let cycles = seg.strip_prefix('l')?.parse().ok()?;
        let clock_ps = parts.next()?.strip_prefix('c')?.parse().ok()?;
        Some((clock_ps, cycles, ii))
    }

    /// Items-per-run heuristic for designs that bake their own budget (DSL
    /// files, random fleets): one item per pass through the state sequence,
    /// i.e. the number of state nodes (≥ 1).
    #[must_use]
    pub fn states_per_item(design: &Design) -> u32 {
        design
            .cfg
            .node_ids()
            .filter(|&n| design.cfg.node_kind(n).is_state())
            .count()
            .max(1) as u32
    }
}

/// Result row for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DseRow {
    /// Point name.
    pub name: String,
    /// Conventional-flow area (paper `A_conv`).
    pub a_conv: f64,
    /// Slack-based-flow area (paper `A_slack`).
    pub a_slack: f64,
    /// Saving percentage `(a_conv - a_slack) / a_conv * 100`.
    pub save_pct: f64,
    /// Power of the slack implementation.
    pub power: PowerReport,
    /// Throughput in items per microsecond.
    pub throughput: f64,
    /// Exact time between successive data items in picoseconds
    /// ([`grid_item_time_ps`]) — stored once at evaluation instead of
    /// being re-derived as `1e6 / throughput` downstream, so exporters
    /// and objective projections agree to the last bit and a
    /// `throughput == 0` row carries no hidden `inf`.
    pub latency_ps: f64,
    /// Clock period used.
    pub clock_ps: u64,
}

/// Aggregate statistics across a sweep (the §VII text claims).
///
/// The three ranges are `None` when the ratio is meaningless — a minimum
/// of zero (a zero-power wire design would otherwise report an `inf`
/// range) or any non-finite extreme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseSummary {
    /// Mean of per-point `save_pct` (paper: 8.9%).
    pub avg_save_pct: f64,
    /// Points where the slack flow lost area (paper: D5–D7).
    pub regressions: usize,
    /// max/min total power across points (paper: ~20×).
    pub power_range: Option<f64>,
    /// max/min throughput across points (paper: ~7×).
    pub throughput_range: Option<f64>,
    /// max/min slack-flow area across points (paper: ~1.5×).
    pub area_range: Option<f64>,
}

/// Exact item time of a grid cell `(clock_ps, cycles_per_item)` in
/// picoseconds, with the same degenerate-cell clamp as [`evaluate_point`]
/// (a zero `cycles_per_item` counts as 1 so throughput stays finite).
///
/// Grid-cell latency and throughput are closed-form — only area and power
/// need an actual HLS run — so exploration drivers can bound unevaluated
/// cells (e.g. cells produced by bisecting a Pareto gap) without paying for
/// scheduling.
#[must_use]
pub fn grid_item_time_ps(clock_ps: u64, cycles_per_item: u32) -> f64 {
    f64::from(cycles_per_item.max(1)) * clock_ps as f64
}

/// Evaluates one design point under both flows — the single-point kernel
/// shared by the serial [`explore`] loop here and the pool in
/// `adhls-explore`.
///
/// Prepares a fresh prefix for the point and evaluates through
/// [`evaluate_prepared`], so both flow runs share one elaboration and
/// nothing is shared across points. Callers holding a prefix cache (the
/// exploration pool) prepare once per design and call
/// [`evaluate_prepared`] directly; their rows equal this function's.
///
/// # Errors
///
/// Propagates scheduling failures (a point whose clock/latency combination
/// is overconstrained).
pub fn evaluate_point(p: &DsePoint, lib: &Library, base: &HlsOptions) -> Result<DseRow> {
    let _span = adhls_telemetry::span("pipeline.evaluate");
    let prep = PreparedDesign::from_shared(Arc::clone(&p.design), lib)?;
    assemble_row(p, base, |opts| run_hls_prepared(&prep, lib, opts))
}

/// [`evaluate_point`] over shared phase artifacts: both flow runs reuse the
/// prepared clock-independent prefix (and the clock contexts earlier cells
/// stored in it), so neighboring grid cells of the same design skip
/// elaboration entirely. `prep` must have been built from `p.design` with
/// the same `lib` — the pool's prefix cache guarantees this by keying on
/// the design and holding one library for its lifetime.
///
/// # Errors
///
/// Propagates scheduling failures (a point whose clock/latency combination
/// is overconstrained).
pub fn evaluate_prepared(
    prep: &PreparedDesign,
    p: &DsePoint,
    lib: &Library,
    base: &HlsOptions,
) -> Result<DseRow> {
    let _span = adhls_telemetry::span("pipeline.evaluate");
    assemble_row(p, base, |opts| run_hls_prepared(prep, lib, opts))
}

/// Row assembly: run both flows through `run`, model power, derive the
/// row. The whole-point `pipeline.evaluate` span (opened by the public
/// entry points around this) wraps both HLS runs and the power model, so a
/// `metrics` snapshot attributes per-cell cost; each HLS run opens its own
/// `pipeline.flow.*` span, which is what reconciles per-phase counts with
/// per-point ones (one `conventional` + one `slack` flow span per
/// evaluate — see docs/OBSERVABILITY.md).
fn assemble_row(
    p: &DsePoint,
    base: &HlsOptions,
    mut run: impl FnMut(&HlsOptions) -> Result<HlsResult>,
) -> Result<DseRow> {
    let mk_opts = |flow: Flow| HlsOptions {
        clock_ps: p.clock_ps,
        flow,
        pipeline_ii: p.pipeline_ii,
        ..base.clone()
    };
    // Clamp a degenerate cycles_per_item of 0 up front: `estimate` asserts
    // positivity, and a zero item time would export an `inf` throughput.
    let cycles_per_item = p.cycles_per_item.max(1);
    let conv = run(&mk_opts(Flow::Conventional))?;
    let slack = run(&mk_opts(Flow::SlackBased))?;
    let power = adhls_telemetry::timed("pipeline.power", || {
        estimate(
            &p.design,
            &slack.schedule,
            &slack.area,
            cycles_per_item,
            p.clock_ps,
        )
    });
    let item_time_ps = grid_item_time_ps(p.clock_ps, cycles_per_item);
    let save_pct = if conv.area.total == 0.0 {
        0.0
    } else {
        (conv.area.total - slack.area.total) / conv.area.total * 100.0
    };
    Ok(DseRow {
        name: p.name.clone(),
        a_conv: conv.area.total,
        a_slack: slack.area.total,
        save_pct,
        power,
        throughput: 1.0e6 / item_time_ps,
        latency_ps: item_time_ps,
        clock_ps: p.clock_ps,
    })
}

/// Runs both flows on every point, serially and in order.
///
/// # Errors
///
/// Propagates scheduling failures (a point whose clock/latency combination
/// is overconstrained).
pub fn explore(points: &[DsePoint], lib: &Library, base: &HlsOptions) -> Result<Vec<DseRow>> {
    points
        .iter()
        .map(|p| evaluate_point(p, lib, base))
        .collect()
}

/// Aggregates a sweep; `None` when `rows` is empty.
#[must_use]
pub fn summarize(rows: &[DseRow]) -> Option<DseSummary> {
    if rows.is_empty() {
        return None;
    }
    let avg_save_pct = rows.iter().map(|r| r.save_pct).sum::<f64>() / rows.len() as f64;
    let regressions = rows.iter().filter(|r| r.save_pct < 0.0).count();
    let minmax = |it: &mut dyn Iterator<Item = f64>| -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    };
    let (plo, phi) = minmax(&mut rows.iter().map(|r| r.power.total));
    let (tlo, thi) = minmax(&mut rows.iter().map(|r| r.throughput));
    let (alo, ahi) = minmax(&mut rows.iter().map(|r| r.a_slack));
    // A zero or non-finite minimum makes the max/min ratio meaningless
    // (a zero-power point would report an `inf` power range).
    let ratio = |lo: f64, hi: f64| (lo > 0.0 && hi.is_finite()).then_some(hi / lo);
    Some(DseSummary {
        avg_save_pct,
        regressions,
        power_range: ratio(plo, phi),
        throughput_range: ratio(tlo, thi),
        area_range: ratio(alo, ahi),
    })
}

impl DseSummary {
    /// Formats one of the range ratios for human reports — `"4.8x"`, or
    /// `"n/a"` for a degenerate range (`None`, see the field docs). One
    /// definition so every surface renders the degenerate case alike.
    #[must_use]
    pub fn fmt_range(range: Option<f64>, decimals: usize) -> String {
        range.map_or_else(|| "n/a".to_string(), |v| format!("{v:.decimals$}x"))
    }

    /// The summary as a JSON object, for protocol responses and exports.
    #[must_use]
    pub fn to_json(&self) -> crate::json::Value {
        use crate::json::Value;
        let ratio = |r: Option<f64>| r.map_or(Value::Null, Value::Num);
        Value::Obj(vec![
            ("avg_save_pct".into(), Value::Num(self.avg_save_pct)),
            ("regressions".into(), Value::Num(self.regressions as f64)),
            ("power_range".into(), ratio(self.power_range)),
            ("throughput_range".into(), ratio(self.throughput_range)),
            ("area_range".into(), ratio(self.area_range)),
        ])
    }
}

/// Renders rows as the paper's Table 4.
#[must_use]
pub fn table4(rows: &[DseRow]) -> String {
    let mut t = Table::new(["Des", "A_conv", "A_slack", "Save %"]);
    for r in rows {
        t.row([
            r.name.clone(),
            format!("{:.0}", r.a_conv),
            format!("{:.0}", r.a_slack),
            format!("{:.1}", r.save_pct),
        ]);
    }
    if let Some(s) = summarize(rows) {
        t.row([
            "Average".to_string(),
            String::new(),
            String::new(),
            format!("{:.1}", s.avg_save_pct),
        ]);
    }
    t.render()
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
    fn explore_produces_rows_and_summary() {
        let lib = tsmc90::library();
        let points = vec![
            point("P1", 1, 1100),
            point("P2", 2, 1100),
            point("P3", 3, 900),
        ];
        let rows = explore(&points, &lib, &HlsOptions::default()).unwrap();
        assert_eq!(rows.len(), 3);
        let s = summarize(&rows).expect("non-empty sweep summarizes");
        assert!(s.throughput_range.expect("positive throughputs") >= 1.0);
        assert!(s.power_range.expect("positive powers") >= 1.0);
        let rendered = table4(&rows);
        assert!(rendered.contains("A_conv"));
        assert!(rendered.contains("Average"));
    }

    #[test]
    fn zero_cycles_per_item_keeps_throughput_finite() {
        let lib = tsmc90::library();
        let mut p = point("Z", 1, 1100);
        p.cycles_per_item = 0;
        let row = evaluate_point(&p, &lib, &HlsOptions::default()).unwrap();
        assert!(row.throughput.is_finite());
        assert!(row.throughput > 0.0);
    }

    #[test]
    fn grid_constructor_names_and_clamps() {
        assert_eq!(DsePoint::grid_name("t", 1100, 3, None), "t-c1100-l3");
        assert_eq!(DsePoint::grid_name("t", 1100, 3, Some(8)), "t-c1100-l3-ii8");
        let p = point("G", 1, 1100);
        let g = DsePoint::grid("g", p.design, 1100, 0, None);
        assert_eq!(g.cycles_per_item, 1, "zero budget clamps to 1");
        assert_eq!(g.name, "g-c1100-l0");
    }

    #[test]
    fn grid_name_round_trips_through_its_parser() {
        for (clock, cycles, ii) in [(1100, 3, None), (2200, 16, Some(8)), (1, 1, Some(1))] {
            let name = DsePoint::grid_name("idct-2d", clock, cycles, ii);
            assert_eq!(DsePoint::parse_grid_name(&name), Some((clock, cycles, ii)));
        }
        for bad in [
            "idct",
            "x-c12",
            "x-l3",
            "c1100-l3x",
            "x-cq-l3",
            "x-c1100-l3-iiq",
        ] {
            assert_eq!(DsePoint::parse_grid_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn summary_renders_as_json_object() {
        let lib = tsmc90::library();
        let rows = explore(&[point("P1", 1, 1100)], &lib, &HlsOptions::default()).unwrap();
        let s = summarize(&rows).unwrap().to_json().render();
        assert!(s.starts_with('{'), "{s}");
        assert!(s.contains("\"avg_save_pct\":"), "{s}");
        assert!(s.contains("\"regressions\":0"), "{s}");
    }

    #[test]
    fn item_time_helper_matches_evaluation() {
        // The closed-form item time must be exactly what evaluate_point
        // reports through throughput — refinement pruning relies on it.
        let lib = tsmc90::library();
        let p = point("T", 2, 1300);
        let row = evaluate_point(&p, &lib, &HlsOptions::default()).unwrap();
        assert_eq!(row.throughput, 1.0e6 / p.item_time_ps());
        assert_eq!(
            row.latency_ps,
            p.item_time_ps(),
            "latency is stored once, straight from the closed form"
        );
        assert_eq!(grid_item_time_ps(1300, 0), grid_item_time_ps(1300, 1));
    }

    #[test]
    fn degenerate_extremes_yield_no_range_not_inf() {
        let row = |name: &str, power: f64, throughput: f64, area: f64| DseRow {
            name: name.into(),
            a_conv: area * 1.1,
            a_slack: area,
            save_pct: 9.0,
            power: PowerReport {
                dynamic: power,
                leakage: 0.0,
                total: power,
            },
            throughput,
            latency_ps: if throughput > 0.0 {
                1.0e6 / throughput
            } else {
                f64::INFINITY
            },
            clock_ps: 1000,
        };
        // A zero-power wire point used to make power_range == inf.
        let s = summarize(&[row("wire", 0.0, 500.0, 0.0), row("real", 8.0, 250.0, 900.0)])
            .expect("non-empty sweep");
        assert_eq!(s.power_range, None, "0-power minimum has no ratio");
        assert_eq!(s.area_range, None, "0-area minimum has no ratio");
        assert_eq!(s.throughput_range, Some(2.0));
        // Non-finite extremes are degenerate too, and render as null.
        let s = summarize(&[row("stalled", 5.0, 0.0, 100.0)]).expect("non-empty sweep");
        assert_eq!(s.throughput_range, None);
        let json = s.to_json().render();
        assert!(json.contains("\"throughput_range\":null"), "{json}");
    }

    #[test]
    fn summarize_empty_is_none() {
        assert!(summarize(&[]).is_none());
        let rendered = table4(&[]);
        assert!(rendered.contains("A_conv"));
        assert!(!rendered.contains("Average"));
    }

    #[test]
    fn zero_area_point_has_zero_save_pct() {
        // A design with no resource-backed ops (input straight to output)
        // can produce a zero-area conventional run; the save percentage
        // must not divide by it.
        let lib = tsmc90::library();
        let mut b = DesignBuilder::new("wire");
        let x = b.input("x", 8);
        b.soft_waits(1);
        b.write("z", x);
        let p = DsePoint {
            name: "wire".into(),
            design: b.finish().unwrap().into(),
            clock_ps: 1100,
            pipeline_ii: None,
            cycles_per_item: 2,
        };
        let row = evaluate_point(&p, &lib, &HlsOptions::default()).unwrap();
        assert!(row.save_pct.is_finite());
    }

    #[test]
    fn looser_budget_saves_area() {
        // 1400ps fits the whole chain incl. mux-sharing penalties
        // (490+490+280+100) in one cycle, so
        // the tight point is feasible but everything is critical.
        let lib = tsmc90::library();
        let rows = explore(
            &[point("tight", 0, 1400), point("loose", 3, 1400)],
            &lib,
            &HlsOptions::default(),
        )
        .unwrap();
        // The loose point must save at least as much as the tight one.
        assert!(rows[1].save_pct >= rows[0].save_pct - 1.0);
    }
}
