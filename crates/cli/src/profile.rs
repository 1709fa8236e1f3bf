//! `--profile` support shared by the subcommands: the human per-span cost
//! table and the parser for exported metrics-snapshot JSON, so `explore
//! --profile`, `schedule --profile`, and `report --metrics <file>` all
//! render the exact same breakdown.

use std::collections::BTreeMap;

use crate::opts::{write_out, Opts};
use adhls_core::json::Value;
use adhls_core::report::Table;
use adhls_telemetry::{HistogramSnapshot, Snapshot, COUNT_BUCKETS};

/// Renders a snapshot as the human profile: one table of span timings
/// (histograms record microseconds; shown in milliseconds), one of count
/// histograms (declared with [`COUNT_BUCKETS`]), and one of the scalar
/// counters/gauges. Duplicate names keep the latest push, matching the
/// snapshot accessors.
#[must_use]
pub fn render_profile(snap: &Snapshot) -> String {
    let mut out = String::from("=== profile: wall time by span ===\n");
    let (values, spans): (BTreeMap<&str, &HistogramSnapshot>, BTreeMap<_, _>) = snap
        .histograms()
        .filter(|(_, h)| h.count > 0)
        .partition(|(_, h)| h.bounds == COUNT_BUCKETS);
    let mut t = Table::new(["span", "count", "total ms", "mean ms"]);
    for (name, h) in &spans {
        t.row([
            (*name).to_string(),
            h.count.to_string(),
            format!("{:.2}", h.sum / 1000.0),
            format!("{:.3}", h.mean().unwrap_or(0.0) / 1000.0),
        ]);
    }
    if t.is_empty() {
        out.push_str("(no spans recorded)\n");
    } else {
        out.push_str(&t.render());
    }
    if !values.is_empty() {
        let mut v = Table::new(["histogram", "count", "sum", "mean"]);
        for (name, h) in &values {
            v.row([
                (*name).to_string(),
                h.count.to_string(),
                format!("{}", h.sum),
                format!("{:.2}", h.mean().unwrap_or(0.0)),
            ]);
        }
        out.push_str(&v.render());
    }
    let counters: BTreeMap<&str, u64> = snap.counters().collect();
    let gauges: BTreeMap<&str, i64> = snap.gauges().collect();
    if !counters.is_empty() || !gauges.is_empty() {
        let mut s = Table::new(["metric", "value"]);
        for (name, v) in &counters {
            s.row([(*name).to_string(), v.to_string()]);
        }
        for (name, v) in &gauges {
            s.row([(*name).to_string(), v.to_string()]);
        }
        out.push_str(&s.render());
    }
    out
}

/// Emits the profile surfaces a finished `explore`/`schedule` run asked
/// for: the human table on stderr under `--profile` (stderr so it never
/// corrupts a `--json -`/`--csv -` stream on stdout), and the snapshot
/// JSON under `--metrics-out <path|->`.
pub fn emit(o: &Opts, mut snap: Snapshot) -> Result<(), String> {
    snap.sort();
    if o.flag("--profile") {
        eprint!("{}", render_profile(&snap));
    }
    if let Some(path) = o.get("--metrics-out") {
        let mut json = snap.render_json();
        json.push('\n');
        write_out(path, &json, "metrics JSON")?;
    }
    Ok(())
}

/// Parses a metrics snapshot back from its JSON rendering
/// ([`Snapshot::render_json`]). Accepts both a bare snapshot file (what
/// `--metrics-out` writes) and a captured `metrics` response envelope from
/// the server (the snapshot under its `"metrics"` key).
pub fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let root = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let v = root.get("metrics").unwrap_or(&root);
    if v.get("counters").is_none() && v.get("gauges").is_none() && v.get("histograms").is_none() {
        return Err("not a metrics snapshot (no counters/gauges/histograms keys)".into());
    }
    let mut snap = Snapshot::new();
    if let Some(Value::Obj(pairs)) = v.get("counters") {
        for (name, val) in pairs {
            let v = val
                .as_u64()
                .ok_or_else(|| format!("counter `{name}` is not a whole number"))?;
            snap.push_counter(name, v);
        }
    }
    if let Some(Value::Obj(pairs)) = v.get("gauges") {
        for (name, val) in pairs {
            let v = as_i64(val).ok_or_else(|| format!("gauge `{name}` is not a whole number"))?;
            snap.push_gauge(name, v);
        }
    }
    if let Some(Value::Obj(pairs)) = v.get("histograms") {
        for (name, val) in pairs {
            let bounds = val
                .get("le")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("histogram `{name}` has no `le` array"))?
                .iter()
                .map(|b| {
                    b.as_f64()
                        .ok_or_else(|| format!("histogram `{name}`: non-numeric bucket bound"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let counts = val
                .get("counts")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("histogram `{name}` has no `counts` array"))?
                .iter()
                .map(|c| {
                    c.as_u64()
                        .ok_or_else(|| format!("histogram `{name}`: non-integer bucket count"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            let count = val
                .get("count")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram `{name}` has no `count`"))?;
            // `sum` degrades to JSON null when non-finite; read it as 0.
            let sum = val.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
            snap.push_histogram(
                name,
                HistogramSnapshot {
                    bounds,
                    counts,
                    count,
                    sum,
                },
            );
        }
    }
    snap.sort();
    Ok(snap)
}

/// Lossless f64 → i64, mirroring `Value::as_u64`'s 2^53 safety window.
fn as_i64(v: &Value) -> Option<i64> {
    let n = v.as_f64()?;
    if n.fract() == 0.0 && (-9_007_199_254_740_992.0..9_007_199_254_740_992.0).contains(&n) {
        #[allow(clippy::cast_possible_truncation)]
        Some(n as i64)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.push_counter("refine.cells_evaluated", 12);
        s.push_gauge("pool.threads", 4);
        s.push_histogram(
            "pipeline.schedule",
            HistogramSnapshot {
                bounds: vec![50.0, 100.0],
                counts: vec![1, 2, 1],
                count: 4,
                sum: 260.5,
            },
        );
        s
    }

    #[test]
    fn json_roundtrips_through_parse_snapshot() {
        let snap = sample();
        let back = parse_snapshot(&snap.render_json()).unwrap();
        assert_eq!(back.counter("refine.cells_evaluated"), Some(12));
        assert_eq!(back.gauge("pool.threads"), Some(4));
        assert_eq!(
            back.histogram("pipeline.schedule"),
            snap.histogram("pipeline.schedule")
        );
    }

    #[test]
    fn metrics_response_envelopes_unwrap() {
        let wire = format!(
            "{{\"event\":\"result\",\"ok\":true,\"cmd\":\"metrics\",\"metrics\":{}}}",
            sample().render_json()
        );
        let back = parse_snapshot(&wire).unwrap();
        assert_eq!(back.counter("refine.cells_evaluated"), Some(12));
    }

    #[test]
    fn non_snapshots_are_rejected() {
        assert!(parse_snapshot("{\"rows\":[]}").is_err());
        assert!(parse_snapshot("nonsense").is_err());
        assert!(parse_snapshot("{\"histograms\":{\"x\":{\"counts\":[1]}}}")
            .unwrap_err()
            .contains("`le`"));
    }

    #[test]
    fn profile_table_shows_spans_in_milliseconds() {
        let text = render_profile(&sample());
        assert!(text.contains("pipeline.schedule"), "{text}");
        assert!(text.contains("0.26"), "sum 260.5 us = 0.26 ms: {text}");
        assert!(text.contains("refine.cells_evaluated"), "{text}");
        assert!(text.contains("pool.threads"), "{text}");
    }

    #[test]
    fn count_histograms_are_not_shown_as_time() {
        let mut s = sample();
        s.push_histogram(
            "pipeline.relax.rounds",
            HistogramSnapshot {
                bounds: COUNT_BUCKETS.to_vec(),
                counts: vec![1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                count: 2,
                sum: 4.0,
            },
        );
        let text = render_profile(&s);
        let row = text
            .lines()
            .find(|l| l.contains("pipeline.relax.rounds"))
            .unwrap();
        assert!(row.contains("| 4 ") && row.contains("2.00"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_a_placeholder() {
        let text = render_profile(&Snapshot::new());
        assert!(text.contains("(no spans recorded)"), "{text}");
    }
}
