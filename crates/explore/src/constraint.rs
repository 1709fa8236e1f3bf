//! Objective constraints: bound one axis of an [`ObjectiveSpace`](crate::pareto::ObjectiveSpace) and
//! explore only the feasible slice.
//!
//! The paper's core use case — *"the cheapest design that still meets a
//! delay budget"* — is a constrained reduction over the tradeoff plane,
//! the standard formulation in the multi-objective DSE literature: fix a
//! budget on one axis, optimize the rest. A [`Constraint`] is one such
//! bound (`axis ≤ bound` or `axis ≥ bound`); every exploration surface
//! accepts a list of them:
//!
//! * [`crate::pareto::pareto_front_in_constrained`] /
//!   [`crate::pareto::tradeoff_staircase_in_constrained`] filter
//!   infeasible rows *before* projection, so the constrained front is the
//!   non-dominated set of the feasible region,
//! * [`crate::refine::RefineOptions::constraints`] clips adaptive
//!   refinement to the feasible region — candidate windows shrink to the
//!   feasible interval on closed-form axes, and the optimistic-bound prune
//!   also discards cells that provably cannot satisfy the constraints,
//! * the serve protocol's `constraints` request field and the CLI's
//!   repeatable `--constraint` flag parse through the same
//!   [`Constraint::parse`] grammar, and exports record the constraints
//!   next to `objectives` so [`crate::refine::WarmStart`] can surface the
//!   provenance.
//!
//! A constraint is only accepted when its axis is *selected by the active
//! objective space* ([`validate_constraints`]): bounding an axis the space
//! ignores would silently change which rows survive without the space
//! ever seeing that axis — almost certainly a typo'd request.
//!
//! For bounds in each axis's *improving* direction (`≤` on minimized
//! axes, `≥` on throughput) the feasible slice commutes with front
//! extraction: an infeasible point can never dominate a feasible one, so
//! filtering then projecting equals projecting then filtering. That
//! equality is what lets constrained refinement reuse every unconstrained
//! invariant (and what the proptests pin).

use crate::pareto::{Objective, Objectives, Sense};
use adhls_core::json::Value;
use std::fmt;

/// Which side of the bound is feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `axis <= bound` — feasible at or below the bound.
    Le,
    /// `axis >= bound` — feasible at or above the bound.
    Ge,
}

impl ConstraintOp {
    /// The operator's surface spelling (`<=` / `>=`).
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            ConstraintOp::Le => "<=",
            ConstraintOp::Ge => ">=",
        }
    }
}

/// One objective bound: `axis ≤ bound` or `axis ≥ bound`.
///
/// The grammar is shared by every surface — CLI `--constraint`, the serve
/// protocol's `constraints` field, exported documents:
///
/// ```
/// use adhls_explore::constraint::{Constraint, ConstraintOp};
/// use adhls_explore::pareto::Objective;
///
/// let c = Constraint::parse("area<=1500").unwrap();
/// assert_eq!(c.axis, Objective::Area);
/// assert_eq!(c.op, ConstraintOp::Le);
/// assert_eq!(c.bound, 1500.0);
/// assert_eq!(c.to_string(), "area<=1500");
///
/// // Round-trips through its own Display form.
/// assert_eq!(Constraint::parse(&c.to_string()).unwrap(), c);
///
/// // Throughput is maximized, so its useful bound is a floor.
/// let t = Constraint::parse("throughput >= 250").unwrap();
/// assert_eq!(t.op, ConstraintOp::Ge);
///
/// // Unknown axes and non-finite bounds are errors, not silent defaults.
/// assert!(Constraint::parse("warp<=1").is_err());
/// assert!(Constraint::parse("area<=inf").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// The bounded axis.
    pub axis: Objective,
    /// Which side of the bound is feasible.
    pub op: ConstraintOp,
    /// The bound itself. Always finite: a NaN bound would make every
    /// comparison false and silently drop all rows, and an infinite bound
    /// constrains nothing — both are rejected at parse/construction time.
    pub bound: f64,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.axis.name(), self.op.symbol(), self.bound)
    }
}

impl Constraint {
    /// A constraint over `axis`, checked for a finite bound.
    ///
    /// # Errors
    ///
    /// A message when `bound` is NaN or infinite.
    pub fn new(axis: Objective, op: ConstraintOp, bound: f64) -> Result<Constraint, String> {
        if !bound.is_finite() {
            return Err(format!(
                "constraint bound on `{}` must be a finite number, got `{bound}`",
                axis.name()
            ));
        }
        Ok(Constraint { axis, op, bound })
    }

    /// Parses one constraint (`area<=1500`, `power >= 2.5`) — the one
    /// grammar behind CLI `--constraint` values, the serve protocol's
    /// `constraints` entries, and exported documents. Axis names accept
    /// the same aliases as [`Objective::parse`].
    ///
    /// # Errors
    ///
    /// A message naming the missing operator, the unknown axis, or the
    /// non-finite/unparseable bound.
    pub fn parse(s: &str) -> Result<Constraint, String> {
        let s = s.trim();
        let (op, at) = match (s.find("<="), s.find(">=")) {
            (Some(i), None) => (ConstraintOp::Le, i),
            (None, Some(i)) => (ConstraintOp::Ge, i),
            (Some(i), Some(j)) => {
                if i < j {
                    (ConstraintOp::Le, i)
                } else {
                    (ConstraintOp::Ge, j)
                }
            }
            (None, None) => {
                return Err(format!(
                    "constraint `{s}` needs `<=` or `>=` (e.g. `area<=1500`)"
                ))
            }
        };
        let axis_name = s[..at].trim();
        let axis = Objective::parse(axis_name).ok_or_else(|| {
            format!("constraint `{s}`: unknown axis `{axis_name}` (area | latency | power | throughput)")
        })?;
        let bound_str = s[at + 2..].trim();
        let bound: f64 = bound_str
            .parse()
            .map_err(|_| format!("constraint `{s}`: `{bound_str}` is not a number"))?;
        Constraint::new(axis, op, bound)
            .map_err(|_| format!("constraint `{s}`: the bound must be finite"))
    }

    /// True when `o` satisfies this constraint. The comparison is on the
    /// axis's raw value (not the minimize-mapped key), so `<=` and `>=`
    /// mean what they say on every axis.
    #[must_use]
    pub fn satisfied(&self, o: &Objectives) -> bool {
        self.satisfied_value(self.axis.value(o))
    }

    /// True when a raw value `v` of this constraint's axis satisfies the
    /// bound — the kernel behind [`Constraint::satisfied`], usable when
    /// only one axis value is known (e.g. a closed-form latency of an
    /// unevaluated grid cell).
    #[must_use]
    pub fn satisfied_value(&self, v: f64) -> bool {
        match self.op {
            ConstraintOp::Le => v <= self.bound,
            ConstraintOp::Ge => v >= self.bound,
        }
    }

    /// True when the bound points in the axis's *improving* direction —
    /// `<=` on a minimized axis, `>=` on a maximized one. Only improving
    /// bounds commute with front extraction (filter-then-project equals
    /// project-then-filter); the anti-improving kind is still honored by
    /// filtering, it just may keep rows off the constrained front that the
    /// unconstrained front contains.
    #[must_use]
    pub fn is_improving(&self) -> bool {
        matches!(
            (self.axis.sense(), self.op),
            (Sense::Minimize, ConstraintOp::Le) | (Sense::Maximize, ConstraintOp::Ge)
        )
    }
}

/// True when `o` satisfies every constraint in `cs` (trivially true for an
/// empty list — the unconstrained case).
#[must_use]
pub fn feasible(cs: &[Constraint], o: &Objectives) -> bool {
    cs.iter().all(|c| c.satisfied(o))
}

/// Checks every constraint's axis against the active objective space: a
/// bound on an axis the space does not select is rejected (it would filter
/// rows on evidence the space never weighs — almost certainly a mistaken
/// request). `axes` is typically one space's [`crate::pareto::ObjectiveSpace::axes`]; for
/// multi-plane refinement pass the union of the planes' axes.
///
/// # Errors
///
/// A message naming the offending constraint and the selected axes.
pub fn validate_constraints(cs: &[Constraint], axes: &[Objective]) -> Result<(), String> {
    for c in cs {
        if !axes.contains(&c.axis) {
            let names: Vec<&str> = axes.iter().map(|a| a.name()).collect();
            return Err(format!(
                "constraint `{c}` bounds `{}`, which the active objective space ({}) \
                 does not select",
                c.axis.name(),
                names.join(",")
            ));
        }
    }
    Ok(())
}

/// Parses a list of constraint strings — the serve protocol's
/// `constraints` array form and the repeated CLI `--constraint` values.
/// Duplicate *identical* constraints are collapsed; two different bounds
/// on the same axis are both kept (a band like `area>=a, area<=b` is
/// meaningful).
///
/// # Errors
///
/// As [`Constraint::parse`], for the first offending entry.
pub fn parse_constraints<S: AsRef<str>>(entries: &[S]) -> Result<Vec<Constraint>, String> {
    let mut out: Vec<Constraint> = Vec::new();
    for e in entries {
        let c = Constraint::parse(e.as_ref())?;
        if !out.contains(&c) {
            out.push(c);
        }
    }
    Ok(out)
}

/// Parses a `constraints` JSON value as it appears on every JSON surface
/// (the serve protocol's request field, exported front/refine documents):
/// an array of constraint strings, or one comma-separated string. Absent
/// (`None`) and `null` mean "no constraints". One definition, so the wire
/// and warm-start parsers cannot drift apart (the mirror of
/// [`crate::pareto::ObjectiveSpace::from_json`]).
///
/// # Errors
///
/// A message naming the bad shape or entry (callers prefix the field
/// context).
pub fn constraints_from_json(value: Option<&Value>) -> Result<Vec<Constraint>, String> {
    match value {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Str(s)) => parse_constraints(&s.split(',').collect::<Vec<_>>()),
        Some(Value::Arr(entries)) => {
            let entries = entries
                .iter()
                .map(|e| e.as_str().ok_or("entries must be constraint strings"))
                .collect::<Result<Vec<&str>, &str>>()?;
            parse_constraints(&entries)
        }
        Some(_) => Err("must be an array of constraint strings".into()),
    }
}

/// Renders constraints as the JSON string array every exporting surface
/// embeds (`["area<=1500","power<=40"]`) — the shape
/// [`constraints_from_json`] reads back.
#[must_use]
pub fn constraints_to_json(cs: &[Constraint]) -> String {
    let mut out = String::from("[");
    for (i, c) in cs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&c.to_string());
        out.push('"');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::ObjectiveSpace;

    fn obj(area: f64, latency_ps: f64, power: f64, throughput: f64) -> Objectives {
        Objectives {
            area,
            latency_ps,
            power,
            throughput,
        }
    }

    #[test]
    fn parse_accepts_both_ops_whitespace_and_aliases() {
        let c = Constraint::parse("  power >= 2.5 ").unwrap();
        assert_eq!(c.axis, Objective::PowerTotal);
        assert_eq!(c.op, ConstraintOp::Ge);
        assert_eq!(c.bound, 2.5);
        // Exporter column aliases work, as in ObjectiveSpace::parse.
        let c = Constraint::parse("a_slack<=900.5").unwrap();
        assert_eq!(c.axis, Objective::Area);
        assert_eq!(c.bound, 900.5);
        let c = Constraint::parse("latency_ps<=4000").unwrap();
        assert_eq!(c.axis, Objective::LatencyPs);
    }

    #[test]
    fn parse_names_every_failure_mode() {
        for (bad, needle) in [
            ("area=1500", "<="),
            ("warp<=1", "warp"),
            ("area<=fast", "fast"),
            ("area<=NaN", "finite"),
            ("area<=inf", "finite"),
            ("<=5", "unknown axis"),
        ] {
            let err = Constraint::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn satisfied_compares_raw_values() {
        let o = obj(100.0, 2000.0, 10.0, 500.0);
        assert!(Constraint::parse("area<=100").unwrap().satisfied(&o));
        assert!(!Constraint::parse("area<=99").unwrap().satisfied(&o));
        assert!(Constraint::parse("throughput>=500").unwrap().satisfied(&o));
        assert!(!Constraint::parse("throughput>=501").unwrap().satisfied(&o));
        assert!(feasible(
            &[
                Constraint::parse("area<=100").unwrap(),
                Constraint::parse("power<=10").unwrap(),
            ],
            &o
        ));
        assert!(!feasible(
            &[
                Constraint::parse("area<=100").unwrap(),
                Constraint::parse("power<=9").unwrap(),
            ],
            &o
        ));
        assert!(feasible(&[], &o), "no constraints = everything feasible");
    }

    #[test]
    fn improving_direction_follows_the_axis_sense() {
        assert!(Constraint::parse("area<=1").unwrap().is_improving());
        assert!(Constraint::parse("latency<=1").unwrap().is_improving());
        assert!(Constraint::parse("throughput>=1").unwrap().is_improving());
        assert!(!Constraint::parse("area>=1").unwrap().is_improving());
        assert!(!Constraint::parse("throughput<=1").unwrap().is_improving());
    }

    #[test]
    fn validation_rejects_axes_outside_the_space() {
        let space = ObjectiveSpace::parse("area,latency").unwrap();
        let ok = [Constraint::parse("area<=1").unwrap()];
        validate_constraints(&ok, space.axes()).unwrap();
        let bad = [Constraint::parse("power<=1").unwrap()];
        let err = validate_constraints(&bad, space.axes()).unwrap_err();
        assert!(
            err.contains("power") && err.contains("area,latency"),
            "{err}"
        );
        // The full space accepts every axis.
        validate_constraints(&bad, ObjectiveSpace::full().axes()).unwrap();
    }

    #[test]
    fn list_parsing_dedupes_identical_entries_but_keeps_bands() {
        let cs = parse_constraints(&["area<=5", "area<=5", "area>=1"]).unwrap();
        assert_eq!(cs.len(), 2);
        assert!(parse_constraints(&["area<=5", "warp<=1"]).is_err());
    }

    #[test]
    fn json_round_trips_array_string_and_null_forms() {
        let cs = parse_constraints(&["area<=1500", "power<=40"]).unwrap();
        let json = constraints_to_json(&cs);
        assert_eq!(json, "[\"area<=1500\",\"power<=40\"]");
        let doc = Value::parse(&json).unwrap();
        assert_eq!(constraints_from_json(Some(&doc)).unwrap(), cs);
        // Comma-string form, as on the CLI-adjacent surfaces.
        let s = Value::Str("area<=1500,power<=40".into());
        assert_eq!(constraints_from_json(Some(&s)).unwrap(), cs);
        assert!(constraints_from_json(None).unwrap().is_empty());
        assert!(constraints_from_json(Some(&Value::Null))
            .unwrap()
            .is_empty());
        // Bad shapes are errors.
        assert!(constraints_from_json(Some(&Value::Num(7.0))).is_err());
        assert!(constraints_from_json(Some(&Value::Arr(vec![Value::Num(7.0)]))).is_err());
    }
}
