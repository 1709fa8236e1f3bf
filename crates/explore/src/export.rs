//! JSON/CSV exporters for sweep rows and Pareto fronts.
//!
//! Hand-rolled serialization (the build environment vendors no serde):
//! numbers use Rust's shortest-roundtrip `Display` for `f64`, strings are
//! JSON-escaped, and field order is fixed, so exports are byte-stable for
//! identical rows — diffs of exploration artifacts stay meaningful.
//!
//! Front documents record the [`ObjectiveSpace`] that produced them in an
//! `objectives` field, and [`crate::refine::WarmStart`] reads it back — so
//! a front exported under one space can safely warm-start a refinement in
//! another, with the provenance visible.

use crate::constraint::{constraints_to_json, Constraint};
use crate::pareto::ObjectiveSpace;
use crate::refine::{MultiRefineResult, RefineResult};
use adhls_core::dse::DseRow;
use adhls_core::json::escape_into;
use std::fmt::Write as _;

/// Writes one row as a JSON object.
fn json_row(out: &mut String, row: &DseRow) {
    out.push_str("{\"name\":");
    escape_into(out, &row.name);
    let _ = write!(
        out,
        ",\"clock_ps\":{},\"a_conv\":{},\"a_slack\":{},\"save_pct\":{},\
         \"power\":{{\"dynamic\":{},\"leakage\":{},\"total\":{}}},\
         \"throughput_per_us\":{},\"latency_ps\":{}}}",
        row.clock_ps,
        row.a_conv,
        row.a_slack,
        row.save_pct,
        row.power.dynamic,
        row.power.leakage,
        row.power.total,
        row.throughput,
        row.latency_ps,
    );
}

/// Renders an objective space as the JSON axis-name array every exporting
/// surface (file documents, protocol responses) embeds — one definition so
/// [`crate::refine::WarmStart`] can rely on the shape.
#[must_use]
pub fn objectives_to_json(space: &ObjectiveSpace) -> String {
    let mut out = String::from("[");
    for (i, name) in space.names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push('"');
    }
    out.push(']');
    out
}

/// Renders rows as a *single-line* JSON array (input order preserved) —
/// the rendering the line-delimited server protocol embeds in response
/// messages, where a literal newline would split one message into two.
/// Field order and number formatting match [`rows_to_json`] exactly, so a
/// row rendered here is byte-identical to the same row in a file export
/// modulo the indentation.
#[must_use]
pub fn rows_to_json_line(rows: &[DseRow]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_row(&mut out, row);
    }
    out.push(']');
    out
}

/// Renders rows as a JSON array (input order preserved).
#[must_use]
pub fn rows_to_json(rows: &[DseRow]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str("  ");
        json_row(&mut out, row);
    }
    out.push_str("\n]");
    if rows.is_empty() {
        return String::from("[]");
    }
    out
}

/// Renders a sweep and its Pareto front as one JSON document:
/// `{"objectives": [...], "constraints": [...], "sweep": [...],
/// "front": [...]}` where `front` is the deterministic non-dominated
/// subset *in `space`* and `objectives`/`constraints` record which axes
/// and bounds produced it, so the document is self-describing (and warm
/// starts can surface the provenance).
#[must_use]
pub fn front_to_json_in(rows: &[DseRow], front: &[DseRow], space: &ObjectiveSpace) -> String {
    front_to_json_constrained(rows, front, space, &[])
}

/// [`front_to_json_in`] with the constraints that produced `front`
/// recorded next to the space (`front` is expected to be the constrained
/// extraction — see [`crate::pareto::pareto_front_in_constrained`]).
#[must_use]
pub fn front_to_json_constrained(
    rows: &[DseRow],
    front: &[DseRow],
    space: &ObjectiveSpace,
    constraints: &[Constraint],
) -> String {
    format!(
        "{{\n\"objectives\": {},\n\"constraints\": {},\n\"sweep\": {},\n\"front\": {}\n}}",
        objectives_to_json(space),
        constraints_to_json(constraints),
        rows_to_json(rows),
        rows_to_json(front)
    )
}

/// Renders a **multi-plane** sweep as one JSON document: the shared
/// `sweep` rows plus a `planes` array with each plane's `objectives` and
/// constrained `front`/`staircase`. The top-level `objectives` and
/// `front` mirror the *first* plane, so single-plane consumers (including
/// [`crate::refine::WarmStart::parse`]) read multi-plane documents
/// unchanged.
#[must_use]
pub fn fronts_to_json_multi(
    rows: &[DseRow],
    planes: &[(ObjectiveSpace, Vec<DseRow>)],
    constraints: &[Constraint],
) -> String {
    let mut plane_docs = String::from("[");
    for (i, (space, front)) in planes.iter().enumerate() {
        if i > 0 {
            plane_docs.push(',');
        }
        let _ = write!(
            plane_docs,
            "\n  {{\"objectives\": {},\n   \"staircase\": {},\n   \"front\": {}}}",
            objectives_to_json(space),
            rows_to_json_line(&crate::pareto::tradeoff_staircase_in_constrained(
                space,
                constraints,
                rows
            )),
            rows_to_json_line(front),
        );
    }
    plane_docs.push_str(if planes.is_empty() { "]" } else { "\n]" });
    let (first_objs, first_front) = match planes.first() {
        Some((s, f)) => (objectives_to_json(s), rows_to_json(f)),
        None => (
            objectives_to_json(&ObjectiveSpace::full()),
            String::from("[]"),
        ),
    };
    format!(
        "{{\n\"objectives\": {},\n\"constraints\": {},\n\"planes\": {},\n\
         \"sweep\": {},\n\"front\": {}\n}}",
        first_objs,
        constraints_to_json(constraints),
        plane_docs,
        rows_to_json(rows),
        first_front
    )
}

/// [`front_to_json_in`] for a front extracted in [`ObjectiveSpace::full`]
/// — the pre-redesign four-objective document.
#[must_use]
pub fn front_to_json(rows: &[DseRow], front: &[DseRow]) -> String {
    front_to_json_in(rows, front, &ObjectiveSpace::full())
}

/// Renders an adaptive refinement as one JSON document: the steering
/// plane, the evaluated sweep, the converged `staircase` *in that plane*,
/// the front, and a `refine` block with the per-round trace so runs are
/// auditable (how many cells each round added, how the front grew, how
/// wide the worst gap was, what the prune discarded).
///
/// Field semantics match the wire's refine result: `objectives` is the
/// plane that steered the run (what a warm start records as provenance),
/// `staircase` is the plane's tradeoff curve, and `front` is **always**
/// the full four-objective front over the evaluated rows — project
/// through [`crate::pareto::pareto_front_in`] for any other view.
#[must_use]
pub fn refine_to_json(result: &RefineResult) -> String {
    let mut rounds = String::from("[");
    for (i, r) in result.trace.iter().enumerate() {
        if i > 0 {
            rounds.push(',');
        }
        let _ = write!(
            rounds,
            "\n    {{\"round\":{},\"new_points\":{},\"front_size\":{},\
             \"max_gap\":{},\"pruned\":{}}}",
            r.round, r.new_points, r.front_size, r.max_gap, r.pruned,
        );
    }
    rounds.push_str(if result.trace.is_empty() {
        "]"
    } else {
        "\n  ]"
    });
    format!(
        "{{\n\"objectives\": {},\n\"constraints\": {},\n\"sweep\": {},\n\"staircase\": {},\n\
         \"front\": {},\n\
         \"refine\": {{\n  \
         \"grid_cells\":{},\"evaluated\":{},\"pruned\":{},\n  \"rounds\": {}\n}}\n}}",
        objectives_to_json(&result.objectives),
        constraints_to_json(&result.constraints),
        rows_to_json(&result.rows),
        rows_to_json(&crate::pareto::tradeoff_staircase_in_constrained(
            &result.objectives,
            &result.constraints,
            &result.rows
        )),
        rows_to_json(&result.front),
        result.grid_cells,
        result.evaluated,
        result.pruned,
        rounds,
    )
}

/// Renders a refinement ([`crate::refine::refine_multi`]) as one JSON
/// document. One plane renders exactly as [`refine_to_json`] of that
/// plane's result. Several planes render the shared `sweep`/`front`, a
/// `planes` array with each plane's `objectives`, converged constrained
/// `staircase`, and per-plane `rounds` (that plane's gaps and proposal
/// counts), and a `refine` audit block whose merged `rounds` carry
/// per-plane `plane_gaps`. The top-level `objectives` mirrors the first
/// plane so [`crate::refine::WarmStart::parse`] reads the document
/// unchanged.
#[must_use]
pub fn refine_multi_to_json(result: &MultiRefineResult) -> String {
    if let [plane] = &result.planes[..] {
        return refine_to_json(plane);
    }
    let plane_rounds = |r: &RefineResult| {
        let mut out = String::from("[");
        for (i, t) in r.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"round\":{},\"new_points\":{},\"front_size\":{},\"max_gap\":{},\"pruned\":{}}}",
                t.round, t.new_points, t.front_size, t.max_gap, t.pruned,
            );
        }
        out.push(']');
        out
    };
    let mut planes = String::from("[");
    for (i, p) in result.planes.iter().enumerate() {
        if i > 0 {
            planes.push(',');
        }
        let _ = write!(
            planes,
            "\n  {{\"objectives\": {},\n   \"staircase\": {},\n   \"rounds\": {}}}",
            objectives_to_json(&p.objectives),
            rows_to_json_line(&crate::pareto::tradeoff_staircase_in_constrained(
                &p.objectives,
                &result.constraints,
                &result.rows
            )),
            plane_rounds(p),
        );
    }
    planes.push_str(if result.planes.is_empty() { "]" } else { "\n]" });
    let mut rounds = String::from("[");
    for (i, t) in result.trace.iter().enumerate() {
        if i > 0 {
            rounds.push(',');
        }
        let mut gaps = String::from("[");
        for (j, g) in t.plane_gaps.iter().enumerate() {
            if j > 0 {
                gaps.push(',');
            }
            let _ = write!(gaps, "{g}");
        }
        gaps.push(']');
        let _ = write!(
            rounds,
            "\n    {{\"round\":{},\"new_points\":{},\"front_size\":{},\
             \"plane_gaps\":{gaps},\"pruned\":{}}}",
            t.round, t.new_points, t.front_size, t.pruned,
        );
    }
    rounds.push_str(if result.trace.is_empty() {
        "]"
    } else {
        "\n  ]"
    });
    let first_objs = result.planes.first().map_or_else(
        || objectives_to_json(&ObjectiveSpace::default()),
        |p| objectives_to_json(&p.objectives),
    );
    format!(
        "{{\n\"objectives\": {},\n\"constraints\": {},\n\"planes\": {},\n\"sweep\": {},\n\
         \"front\": {},\n\
         \"refine\": {{\n  \
         \"grid_cells\":{},\"evaluated\":{},\"pruned\":{},\n  \"rounds\": {}\n}}\n}}",
        first_objs,
        constraints_to_json(&result.constraints),
        planes,
        rows_to_json(&result.rows),
        rows_to_json(&result.front),
        result.grid_cells,
        result.evaluated,
        result.pruned,
        rounds,
    )
}

/// Renders rows as CSV with a header line.
#[must_use]
pub fn rows_to_csv(rows: &[DseRow]) -> String {
    let mut out = String::from(
        "name,clock_ps,a_conv,a_slack,save_pct,power_dynamic,power_leakage,\
         power_total,throughput_per_us,latency_ps\n",
    );
    for row in rows {
        let name = if row.name.contains([',', '"', '\n']) {
            format!("\"{}\"", row.name.replace('"', "\"\""))
        } else {
            row.name.clone()
        };
        let _ = writeln!(
            out,
            "{name},{},{},{},{},{},{},{},{},{}",
            row.clock_ps,
            row.a_conv,
            row.a_slack,
            row.save_pct,
            row.power.dynamic,
            row.power.leakage,
            row.power.total,
            row.throughput,
            row.latency_ps,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_core::power::PowerReport;

    fn row(name: &str) -> DseRow {
        DseRow {
            name: name.into(),
            a_conv: 1000.0,
            a_slack: 900.5,
            save_pct: 9.95,
            power: PowerReport {
                dynamic: 8.0,
                leakage: 2.0,
                total: 10.0,
            },
            throughput: 250.0,
            latency_ps: 4000.0,
            clock_ps: 1100,
        }
    }

    #[test]
    fn json_shape_and_values() {
        let s = rows_to_json(&[row("d1"), row("d2")]);
        assert!(s.starts_with('['));
        assert!(s.ends_with(']'));
        assert!(s.contains("\"name\":\"d1\""));
        assert!(s.contains("\"a_slack\":900.5"));
        assert!(s.contains("\"latency_ps\":4000"));
        assert_eq!(s.matches("{\"name\"").count(), 2);
    }

    #[test]
    fn json_escapes_names() {
        let s = rows_to_json(&[row("a\"b\\c")]);
        assert!(s.contains("\"a\\\"b\\\\c\""));
    }

    #[test]
    fn empty_rows_render_as_empty_array() {
        assert_eq!(rows_to_json(&[]), "[]");
    }

    #[test]
    fn csv_has_header_and_one_line_per_row() {
        let s = rows_to_csv(&[row("d1"), row("d2")]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("name,clock_ps"));
        assert!(lines[1].starts_with("d1,1100,1000,900.5,"));
    }

    #[test]
    fn csv_quotes_awkward_names() {
        let s = rows_to_csv(&[row("a,b\"c")]);
        assert!(s.contains("\"a,b\"\"c\""));
    }

    #[test]
    fn single_line_rendering_matches_pretty_rendering_modulo_whitespace() {
        let rows = [row("d1"), row("d2")];
        let line = rows_to_json_line(&rows);
        assert!(!line.contains('\n'), "one message, one line: {line}");
        let pretty: String = rows_to_json(&rows)
            .chars()
            .filter(|c| *c != '\n' && *c != ' ')
            .collect();
        assert_eq!(line, pretty);
        assert_eq!(rows_to_json_line(&[]), "[]");
    }

    #[test]
    fn combined_document_nests_both_arrays_and_records_its_space() {
        let rows = [row("d1")];
        let s = front_to_json(&rows, &rows);
        assert!(s.contains("\"sweep\":"));
        assert!(s.contains("\"front\":"));
        assert!(
            s.contains("\"objectives\": [\"area\",\"latency\",\"power\",\"throughput\"]"),
            "{s}"
        );
        let power = front_to_json_in(&rows, &rows, &ObjectiveSpace::parse("area,power").unwrap());
        assert!(
            power.contains("\"objectives\": [\"area\",\"power\"]"),
            "{power}"
        );
        // The provenance round-trips through the warm-start parser.
        let ws = crate::refine::WarmStart::parse(&power).unwrap();
        assert_eq!(
            ws.objectives,
            Some(ObjectiveSpace::parse("area,power").unwrap())
        );
    }

    #[test]
    fn constrained_documents_record_and_round_trip_their_bounds() {
        use crate::constraint::parse_constraints;
        let rows = [row("d1")];
        let cs = parse_constraints(&["area<=1500", "power<=40"]).unwrap();
        let doc = front_to_json_constrained(
            &rows,
            &rows,
            &ObjectiveSpace::parse("area,power").unwrap(),
            &cs,
        );
        assert!(
            doc.contains("\"constraints\": [\"area<=1500\",\"power<=40\"]"),
            "{doc}"
        );
        let ws = crate::refine::WarmStart::parse(&doc).unwrap();
        assert_eq!(ws.constraints, cs);
        // Unconstrained documents record an empty list, which reads back
        // as unconstrained.
        let plain = front_to_json_in(&rows, &rows, &ObjectiveSpace::full());
        assert!(plain.contains("\"constraints\": []"), "{plain}");
        assert!(crate::refine::WarmStart::parse(&plain)
            .unwrap()
            .constraints
            .is_empty());
    }

    #[test]
    fn multi_plane_documents_nest_per_plane_views() {
        let rows = [row("d1"), row("d2")];
        let planes = vec![
            (
                ObjectiveSpace::parse("area,latency").unwrap(),
                rows.to_vec(),
            ),
            (ObjectiveSpace::parse("area,power").unwrap(), rows.to_vec()),
        ];
        let doc = fronts_to_json_multi(&rows, &planes, &[]);
        assert!(doc.contains("\"planes\":"), "{doc}");
        assert!(
            doc.contains("\"objectives\": [\"area\",\"latency\"]"),
            "{doc}"
        );
        assert!(
            doc.contains("\"objectives\": [\"area\",\"power\"]"),
            "{doc}"
        );
        // The top level mirrors the first plane, so warm starts read the
        // document like any single-plane export.
        let ws = crate::refine::WarmStart::parse(&doc).unwrap();
        assert_eq!(
            ws.objectives,
            Some(ObjectiveSpace::parse("area,latency").unwrap())
        );
    }

    #[test]
    fn objectives_render_as_a_name_array() {
        assert_eq!(
            objectives_to_json(&ObjectiveSpace::default()),
            "[\"area\",\"latency\"]"
        );
    }
}
