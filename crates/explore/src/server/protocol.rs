//! The exploration server's wire protocol: line-delimited JSON.
//!
//! One request per line in, one message per line out. Every response
//! message echoes the request's `id` (any JSON scalar the client chose, so
//! clients can multiplex requests over one connection) and carries an
//! `event` discriminator:
//!
//! * `"round"` — a streamed progress event, one per adaptive-refinement
//!   round, emitted while the request is still running,
//! * `"result"` — the terminal message for the request, exactly one per
//!   request, with `ok` true/false.
//!
//! Row arrays inside results use the exact field order and number
//! formatting of the file exporters ([`crate::export`]), so a front
//! returned over the wire is byte-comparable with a front exported by the
//! CLI for the same rows. `docs/PROTOCOL.md` documents the full surface
//! with worked examples.

use crate::constraint::{constraints_from_json, constraints_to_json, Constraint};
use crate::export::{objectives_to_json, rows_to_json_line};
use crate::pareto::{tradeoff_staircase_in_constrained, ObjectiveSpace};
use crate::pool::SweepResult;
use crate::refine::{MultiRefineResult, MultiRoundTrace, RefineResult, RoundTrace};
use adhls_core::dse::{summarize, DseRow};
use adhls_core::json::{escape_into, Value};
use adhls_telemetry::Snapshot;
use std::fmt::Write as _;

/// What to explore: a named workload grid or an inline DSL design, plus
/// optional axis overrides. Shared by `sweep` and `refine` requests (and
/// reused by the CLI, so the server and `adhls explore` accept the same
/// axes with the same validation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadSpec {
    /// Named workload (`interpolation | idct | idct-table4 | fir | matmul
    /// | random`), mutually exclusive with `dsl`.
    pub workload: Option<String>,
    /// Inline DSL source, mutually exclusive with `workload`.
    pub dsl: Option<String>,
    /// Point-name prefix for DSL sweeps (defaults to the design's name).
    pub dsl_prefix: Option<String>,
    /// Clock axis override (ps).
    pub clocks: Option<Vec<u64>>,
    /// Latency-budget axis override (cycles).
    pub cycles: Option<Vec<u32>>,
    /// Pipelining axis override (`null` = sequential).
    pub pipeline: Option<Vec<Option<u32>>>,
    /// Matrix dimension for the matmul workload.
    pub dim: Option<usize>,
    /// Fleet size for the random workload.
    pub count: Option<usize>,
    /// Seed for the random workload.
    pub seed: Option<u64>,
    /// The objective space(s) the request selects (`objectives` field: an
    /// array of axis names, one comma-separated string, or — multi-plane —
    /// a `;`-separated string / array of planes; the same grammar as CLI
    /// `--objectives`, see [`ObjectiveSpace::multi_from_json`]). `None`
    /// applies the surface default: all four axes for sweep fronts, the
    /// (area, latency) plane for refinement (see
    /// [`crate::server::session::sweep_spaces`] /
    /// [`crate::server::session::refine_spaces`]).
    pub objectives: Option<Vec<ObjectiveSpace>>,
    /// Objective bounds (`constraints` field: an array of strings like
    /// `"area<=1500"`, or one comma-separated string) every returned
    /// front/staircase honors and adaptive refinement clips to. Each
    /// bound's axis must be selected by the active objective space(s).
    pub constraints: Vec<Constraint>,
    /// Carries nothing: every point runs both flows, and a request's
    /// `mode` field is refused. Kept only because callers outside this
    /// crate (the `perfbench` harness) still name it.
    pub mode: (),
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Evaluate a full grid (or point fleet) and return rows + front.
    Sweep(WorkloadSpec),
    /// Adaptively refine a workload grid's front, streaming round events.
    Refine {
        /// The grid to refine.
        spec: WorkloadSpec,
        /// Evaluation budget (`0` = none).
        budget: usize,
        /// Staircase gap tolerance.
        gap_tol: f64,
        /// Grid-point names from a previously returned front, used to
        /// warm-start the seed.
        warm_front: Vec<String>,
    },
    /// Report the pool's cache counters and server gauges.
    Stats,
    /// Return the full telemetry registry snapshot (counters, gauges,
    /// per-phase histograms).
    Metrics,
    /// Abort an in-flight `refine` (identified by its request `id`) at its
    /// next round boundary. Issued from any connection — typically a
    /// second one, since the refining connection is busy streaming.
    Cancel {
        /// The `id` of the in-flight request to cancel (a number or
        /// string, exactly as the original request chose it).
        target: Value,
    },
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

impl Command {
    /// The wire verb, as telemetry labels it (`serve.request.<verb>`).
    #[must_use]
    pub fn verb(&self) -> &'static str {
        match self {
            Command::Sweep(_) => "sweep",
            Command::Refine { .. } => "refine",
            Command::Stats => "stats",
            Command::Metrics => "metrics",
            Command::Cancel { .. } => "cancel",
            Command::Ping => "ping",
            Command::Shutdown => "shutdown",
        }
    }
}

/// Parses one request line. The request `id` (echoed on every response) is
/// extracted best-effort even when the command itself is malformed, so the
/// error can still be correlated by the client.
pub fn parse_request(line: &str) -> (Option<Value>, Result<Command, String>) {
    let doc = match Value::parse(line) {
        Ok(v) => v,
        Err(e) => return (None, Err(format!("request is not valid JSON: {e}"))),
    };
    let id = doc.get("id").cloned();
    let id = match id {
        Some(Value::Num(_) | Value::Str(_) | Value::Null) | None => id,
        Some(_) => return (None, Err("`id` must be a number, string, or null".into())),
    };
    let cmd = parse_command(&doc);
    (id, cmd)
}

fn parse_command(doc: &Value) -> Result<Command, String> {
    let Some(cmd) = doc.get("cmd").and_then(Value::as_str) else {
        return Err("request needs a string `cmd` field".into());
    };
    match cmd {
        "sweep" => Ok(Command::Sweep(parse_spec(doc)?)),
        "refine" => {
            let budget = match doc.get("budget") {
                None => 0,
                Some(v) => {
                    let n = v.as_u64().ok_or("`budget` must be a whole number >= 1")?;
                    if n == 0 {
                        return Err("`budget` must be >= 1 (omit it for no budget)".into());
                    }
                    usize::try_from(n).map_err(|_| "`budget` too large")?
                }
            };
            let gap_tol = match doc.get("gap_tol") {
                None => 0.05,
                Some(v) => {
                    let t = v.as_f64().ok_or("`gap_tol` must be a number")?;
                    if !t.is_finite() || t < 0.0 {
                        return Err("`gap_tol` must be a finite number >= 0".into());
                    }
                    t
                }
            };
            let warm_front = match doc.get("warm_front") {
                None => Vec::new(),
                Some(v) => v
                    .as_arr()
                    .ok_or("`warm_front` must be an array of point names")?
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or("`warm_front` entries must be strings")
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            Ok(Command::Refine {
                spec: parse_spec(doc)?,
                budget,
                gap_tol,
                warm_front,
            })
        }
        "stats" => Ok(Command::Stats),
        "metrics" => Ok(Command::Metrics),
        "cancel" => match doc.get("target") {
            Some(t @ (Value::Num(_) | Value::Str(_))) => Ok(Command::Cancel { target: t.clone() }),
            Some(_) => Err("`target` must be the number or string `id` of the request".into()),
            None => Err("`cancel` needs a `target` — the `id` of the in-flight request".into()),
        },
        "ping" => Ok(Command::Ping),
        "shutdown" => Ok(Command::Shutdown),
        other => Err(format!(
            "unknown cmd `{other}` (sweep | refine | stats | metrics | cancel | ping | shutdown)"
        )),
    }
}

fn parse_spec(doc: &Value) -> Result<WorkloadSpec, String> {
    // Refused, not ignored: an ignored `mode` would silently answer a
    // `recover` request with full rows.
    if doc.get("mode").is_some() {
        return Err(
            "`mode` was removed: every point runs the conventional and slack-based flows; \
             omit the field"
                .into(),
        );
    }
    let workload = doc
        .get("workload")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or("`workload` must be a string")
        })
        .transpose()?;
    let dsl = doc
        .get("dsl")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or("`dsl` must be a string")
        })
        .transpose()?;
    Ok(WorkloadSpec {
        workload,
        dsl,
        dsl_prefix: None,
        clocks: num_list(doc, "clocks", "clock periods")?,
        cycles: num_list(doc, "cycles", "latency budgets")?,
        pipeline: pipeline_list(doc)?,
        dim: opt_usize(doc, "dim")?,
        count: opt_usize(doc, "count")?,
        seed: match doc.get("seed") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or("`seed` must be a whole number")?),
        },
        objectives: parse_objectives(doc)?,
        constraints: parse_constraints_field(doc)?,
        mode: (),
    })
}

/// Parses the `objectives` request field through the one shared
/// definition ([`ObjectiveSpace::multi_from_json`], whose string grammar
/// the CLI's `--objectives` also uses), accepting the axis-name array
/// (`["area","power"]`), the comma string (`"area,power"`), and the
/// multi-plane forms (`"area,latency;area,power"`,
/// `[["area","latency"],["area","power"]]`).
fn parse_objectives(doc: &Value) -> Result<Option<Vec<ObjectiveSpace>>, String> {
    ObjectiveSpace::multi_from_json(doc.get("objectives")).map_err(|e| format!("`objectives`: {e}"))
}

/// Parses the `constraints` request field through the one shared
/// definition ([`constraints_from_json`], the same grammar the CLI's
/// `--constraint` and exported documents use).
fn parse_constraints_field(doc: &Value) -> Result<Vec<Constraint>, String> {
    constraints_from_json(doc.get("constraints")).map_err(|e| format!("`constraints`: {e}"))
}

fn opt_usize(doc: &Value, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("`{key}` must be a whole number"))?;
            usize::try_from(n)
                .map(Some)
                .map_err(|_| format!("`{key}` too large"))
        }
    }
}

fn num_list<T: TryFrom<u64>>(doc: &Value, key: &str, what: &str) -> Result<Option<Vec<T>>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| format!("`{key}` must be an array of numbers"))?
            .iter()
            .map(|n| {
                n.as_u64()
                    .and_then(|n| T::try_from(n).ok())
                    .ok_or_else(|| format!("`{key}`: bad value among the {what}"))
            })
            .collect::<Result<Vec<T>, String>>()
            .map(Some),
    }
}

fn pipeline_list(doc: &Value) -> Result<Option<Vec<Option<u32>>>, String> {
    match doc.get("pipeline") {
        None => Ok(None),
        Some(v) => v
            .as_arr()
            .ok_or("`pipeline` must be an array of IIs or nulls")?
            .iter()
            .map(|m| match m {
                Value::Null => Ok(None),
                _ => m
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| "`pipeline`: entries must be null or an II".to_string()),
            })
            .collect::<Result<Vec<Option<u32>>, String>>()
            .map(Some),
    }
}

/// Appends the `{"id":...` envelope opening shared by every response.
fn open_envelope(out: &mut String, id: Option<&Value>) {
    out.push_str("{\"id\":");
    match id {
        Some(v) => v.render_into(out),
        None => out.push_str("null"),
    }
}

/// A terminal error message for `id`.
#[must_use]
pub fn render_error(id: Option<&Value>, msg: &str) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    out.push_str(",\"event\":\"result\",\"ok\":false,\"error\":");
    escape_into(&mut out, msg);
    out.push('}');
    out
}

/// A terminal backpressure rejection: like [`render_error`] but flagged
/// `"busy":true` so clients can distinguish "retry later" from a request
/// that is wrong and will never succeed. Emitted by the router when a
/// worker's queue cap or the connection bound is exceeded.
#[must_use]
pub fn render_busy(id: Option<&Value>, msg: &str) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    out.push_str(",\"event\":\"result\",\"ok\":false,\"busy\":true,\"error\":");
    escape_into(&mut out, msg);
    out.push('}');
    out
}

/// The terminal message for a successful `cancel` request: the fired
/// target's id is echoed so a client multiplexing several refines knows
/// which one will stop. (A `cancel` naming no in-flight request is a
/// plain [`render_error`].)
#[must_use]
pub fn render_cancel_result(id: Option<&Value>, target: &Value) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    out.push_str(",\"event\":\"result\",\"ok\":true,\"cmd\":\"cancel\",\"target\":");
    target.render_into(&mut out);
    out.push('}');
    out
}

/// Appends one round trace's fields (no surrounding braces) — the one
/// definition behind one-plane `round` events and every `rounds` audit
/// entry of a plane, so the two can never drift apart.
fn round_trace_fields_into(out: &mut String, t: &RoundTrace) {
    let _ = write!(
        out,
        "\"round\":{},\"new_points\":{},\"front_size\":{},\"max_gap\":{},\"pruned\":{}",
        t.round, t.new_points, t.front_size, t.max_gap, t.pruned
    );
}

/// Appends one merged round's fields (no surrounding braces). A one-plane
/// trace renders as that plane's [`RoundTrace`]; several planes carry the
/// index-aligned `plane_gaps` vector in place of `max_gap`.
fn merged_round_fields_into(out: &mut String, t: &MultiRoundTrace) {
    if let [max_gap] = t.plane_gaps[..] {
        let plane = RoundTrace {
            round: t.round,
            new_points: t.new_points,
            front_size: t.front_size,
            max_gap,
            pruned: t.pruned,
        };
        return round_trace_fields_into(out, &plane);
    }
    let _ = write!(
        out,
        "\"round\":{},\"new_points\":{},\"front_size\":{},\"plane_gaps\":[",
        t.round, t.new_points, t.front_size
    );
    for (i, g) in t.plane_gaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{g}");
    }
    let _ = write!(out, "],\"pruned\":{}", t.pruned);
}

/// A streamed per-round progress event: a one-plane trace carries its
/// plane's `max_gap`, a multi-plane one the per-plane `plane_gaps`.
#[must_use]
pub fn render_round(id: Option<&Value>, t: &MultiRoundTrace) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    out.push_str(",\"event\":\"round\",");
    merged_round_fields_into(&mut out, t);
    out.push('}');
    out
}

/// Appends `skipped` as an array of `[name, why]` pairs.
fn skipped_into(out: &mut String, skipped: &[(String, String)]) {
    out.push('[');
    for (i, (name, why)) in skipped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        escape_into(out, name);
        out.push(',');
        escape_into(out, why);
        out.push(']');
    }
    out.push(']');
}

/// The terminal message for a `sweep` request. `planes` pairs each
/// requested objective space with the (constrained) front extracted in it;
/// the top-level `objectives`/`front`/`staircase` mirror the *first*
/// plane — byte-identical to the pre-multi-plane response for single-plane
/// requests — and a `planes` array with every plane's view is added when
/// more than one was requested. `constraints` records the bounds every
/// front and staircase honored.
#[must_use]
pub fn render_sweep_result(
    id: Option<&Value>,
    result: &SweepResult,
    planes: &[(ObjectiveSpace, Vec<DseRow>)],
    constraints: &[Constraint],
) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    let (space, front) = &planes[0];
    // One staircase extraction per plane, shared between the top-level
    // mirror and the `planes` array — staircase walks are O(n log n) over
    // the full row set, and this sits on the serve hot path.
    let staircases: Vec<String> = planes
        .iter()
        .map(|(space, _)| {
            rows_to_json_line(&tradeoff_staircase_in_constrained(
                space,
                constraints,
                &result.rows,
            ))
        })
        .collect();
    out.push_str(",\"event\":\"result\",\"ok\":true,\"cmd\":\"sweep\",\"objectives\":");
    out.push_str(&objectives_to_json(space));
    if !constraints.is_empty() {
        out.push_str(",\"constraints\":");
        out.push_str(&constraints_to_json(constraints));
    }
    out.push_str(",\"rows\":");
    out.push_str(&rows_to_json_line(&result.rows));
    out.push_str(",\"front\":");
    out.push_str(&rows_to_json_line(front));
    out.push_str(",\"staircase\":");
    out.push_str(&staircases[0]);
    if planes.len() > 1 {
        out.push_str(",\"planes\":[");
        for (i, (space, front)) in planes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"objectives\":");
            out.push_str(&objectives_to_json(space));
            out.push_str(",\"front\":");
            out.push_str(&rows_to_json_line(front));
            out.push_str(",\"staircase\":");
            out.push_str(&staircases[i]);
            out.push('}');
        }
        out.push(']');
    }
    out.push_str(",\"summary\":");
    match summarize(&result.rows) {
        Some(s) => out.push_str(&s.to_json().render()),
        None => out.push_str("null"),
    }
    out.push_str(",\"skipped\":");
    skipped_into(&mut out, &result.skipped);
    let _ = write!(
        out,
        ",\"cache_hits\":{},\"workers\":{}}}",
        result.cache_hits, result.workers
    );
    out
}

/// The terminal message for a `refine` request. The `staircase` is the
/// constrained plane projection of the space that steered the run
/// ([`RefineResult::objectives`]), which the response records next to its
/// constraints.
#[must_use]
pub fn render_refine_result(id: Option<&Value>, r: &RefineResult) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    out.push_str(",\"event\":\"result\",\"ok\":true,\"cmd\":\"refine\",");
    if r.cancelled {
        // Omitted entirely (not `false`) when the run converged, keeping
        // uncancelled responses byte-identical to pre-cancel servers.
        out.push_str("\"cancelled\":true,");
    }
    out.push_str("\"objectives\":");
    out.push_str(&objectives_to_json(&r.objectives));
    if !r.constraints.is_empty() {
        out.push_str(",\"constraints\":");
        out.push_str(&constraints_to_json(&r.constraints));
    }
    out.push_str(",\"rows\":");
    out.push_str(&rows_to_json_line(&r.rows));
    out.push_str(",\"staircase\":");
    out.push_str(&rows_to_json_line(&tradeoff_staircase_in_constrained(
        &r.objectives,
        &r.constraints,
        &r.rows,
    )));
    out.push_str(",\"front\":");
    out.push_str(&rows_to_json_line(&r.front));
    out.push_str(",\"skipped\":");
    skipped_into(&mut out, &r.skipped);
    let _ = write!(
        out,
        ",\"refine\":{{\"grid_cells\":{},\"evaluated\":{},\"pruned\":{},\"rounds\":[",
        r.grid_cells, r.evaluated, r.pruned
    );
    for (i, t) in r.trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        round_trace_fields_into(&mut out, t);
        out.push('}');
    }
    out.push_str("]}}");
    out
}

/// The terminal message for a `refine` request. One plane renders
/// exactly as [`render_refine_result`] of that plane's result. Several
/// planes render the shared `rows`/`front`, a `planes` array with each
/// plane's `objectives`, converged constrained `staircase`, and per-plane
/// `rounds`, and a `refine` audit block whose merged rounds carry
/// `plane_gaps`. The top-level `objectives`/`staircase` mirror the first
/// plane, so single-plane consumers read the response unchanged.
#[must_use]
pub fn render_refine_multi_result(id: Option<&Value>, r: &MultiRefineResult) -> String {
    if let [plane] = &r.planes[..] {
        return render_refine_result(id, plane);
    }
    let mut out = String::new();
    open_envelope(&mut out, id);
    let first = &r.planes[0];
    // As in `render_sweep_result`: one staircase extraction per plane,
    // shared between the top-level mirror and the `planes` array.
    let staircases: Vec<String> = r
        .planes
        .iter()
        .map(|p| {
            rows_to_json_line(&tradeoff_staircase_in_constrained(
                &p.objectives,
                &r.constraints,
                &r.rows,
            ))
        })
        .collect();
    out.push_str(",\"event\":\"result\",\"ok\":true,\"cmd\":\"refine\",");
    if r.cancelled {
        out.push_str("\"cancelled\":true,");
    }
    out.push_str("\"objectives\":");
    out.push_str(&objectives_to_json(&first.objectives));
    if !r.constraints.is_empty() {
        out.push_str(",\"constraints\":");
        out.push_str(&constraints_to_json(&r.constraints));
    }
    out.push_str(",\"rows\":");
    out.push_str(&rows_to_json_line(&r.rows));
    out.push_str(",\"staircase\":");
    out.push_str(&staircases[0]);
    out.push_str(",\"front\":");
    out.push_str(&rows_to_json_line(&r.front));
    out.push_str(",\"planes\":[");
    for (i, p) in r.planes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"objectives\":");
        out.push_str(&objectives_to_json(&p.objectives));
        out.push_str(",\"staircase\":");
        out.push_str(&staircases[i]);
        out.push_str(",\"rounds\":[");
        for (j, t) in p.trace.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('{');
            round_trace_fields_into(&mut out, t);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("],\"skipped\":");
    skipped_into(&mut out, &r.skipped);
    let _ = write!(
        out,
        ",\"refine\":{{\"grid_cells\":{},\"evaluated\":{},\"pruned\":{},\"rounds\":[",
        r.grid_cells, r.evaluated, r.pruned
    );
    for (i, t) in r.trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        merged_round_fields_into(&mut out, t);
        out.push('}');
    }
    out.push_str("]}}");
    out
}

/// The terminal message for a `stats` request — the compact, stable-schema
/// summary. Every field is pulled from the same unified [`Snapshot`] the
/// `metrics` verb renders in full (`Server::metrics_snapshot`), so the two
/// surfaces cannot drift: `hits`/`coalesced`/`misses`/`evictions`/
/// `entries`/`bytes`/`capacity_bytes` are the cache counters, `requests`/
/// `uptime_ms`/`in_flight` the serve tier, `threads` the pool. Missing
/// entries render as `0` (counters/gauges the registry has not seen yet),
/// except `capacity_bytes`, whose absence means "unbounded" and renders
/// `null`.
#[must_use]
pub fn render_stats(id: Option<&Value>, snap: &Snapshot) -> String {
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0);
    let mut out = String::new();
    open_envelope(&mut out, id);
    let _ = write!(
        out,
        ",\"event\":\"result\",\"ok\":true,\"cmd\":\"stats\",\"stats\":{{\
         \"hits\":{},\"coalesced\":{},\"misses\":{},\"evictions\":{},\
         \"entries\":{},\"bytes\":{},\"capacity_bytes\":",
        counter("cache.hits"),
        counter("cache.coalesced"),
        counter("cache.misses"),
        counter("cache.evictions"),
        gauge("cache.entries"),
        gauge("cache.bytes"),
    );
    match snap.gauge("cache.capacity_bytes") {
        Some(c) => {
            let _ = write!(out, "{c}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"requests\":{},\"uptime_ms\":{},\"in_flight\":{},\"threads\":{}}}}}",
        counter("serve.requests"),
        gauge("serve.uptime_ms"),
        gauge("serve.in_flight"),
        gauge("pool.threads"),
    );
    out
}

/// The terminal message for a `metrics` request: the full unified
/// [`Snapshot`] under a `metrics` key, in the snapshot's own JSON schema
/// (`{"counters":{...},"gauges":{...},"histograms":{...}}` — see
/// `docs/OBSERVABILITY.md`).
#[must_use]
pub fn render_metrics(id: Option<&Value>, snap: &Snapshot) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    let _ = write!(
        out,
        ",\"event\":\"result\",\"ok\":true,\"cmd\":\"metrics\",\"metrics\":{}}}",
        snap.render_json()
    );
    out
}

/// The terminal message for `ping`/`shutdown`.
#[must_use]
pub fn render_ok(id: Option<&Value>, cmd: &str) -> String {
    let mut out = String::new();
    open_envelope(&mut out, id);
    out.push_str(",\"event\":\"result\",\"ok\":true,\"cmd\":");
    escape_into(&mut out, cmd);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_refine_request() {
        let (id, cmd) = parse_request(
            r#"{"id":7,"cmd":"refine","workload":"idct","clocks":[2200,3000],
                "cycles":[12,16],"pipeline":[null,8],"budget":20,"gap_tol":0.1,
                "warm_front":["idct-c2200-l12"]}"#,
        );
        assert_eq!(id, Some(Value::Num(7.0)));
        let Command::Refine {
            spec,
            budget,
            gap_tol,
            warm_front,
        } = cmd.unwrap()
        else {
            panic!("expected refine");
        };
        assert_eq!(spec.workload.as_deref(), Some("idct"));
        assert_eq!(spec.clocks, Some(vec![2200, 3000]));
        assert_eq!(spec.pipeline, Some(vec![None, Some(8)]));
        assert_eq!((budget, gap_tol), (20, 0.1));
        assert_eq!(warm_front, ["idct-c2200-l12"]);
    }

    #[test]
    fn objectives_parse_as_array_or_comma_string() {
        let (_, cmd) =
            parse_request(r#"{"cmd":"sweep","workload":"idct","objectives":["area","power"]}"#);
        let Command::Sweep(spec) = cmd.unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(
            spec.objectives,
            Some(vec![ObjectiveSpace::parse("area,power").unwrap()])
        );
        let (_, cmd) =
            parse_request(r#"{"cmd":"refine","workload":"idct","objectives":"area,throughput"}"#);
        let Command::Refine { spec, .. } = cmd.unwrap() else {
            panic!("expected refine");
        };
        assert_eq!(
            spec.objectives,
            Some(vec![ObjectiveSpace::parse("area,throughput").unwrap()])
        );
        // Absent and null both mean "surface default".
        let (_, cmd) = parse_request(r#"{"cmd":"sweep","workload":"idct","objectives":null}"#);
        let Command::Sweep(spec) = cmd.unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(spec.objectives, None);
        // Bad shapes and bad names are request errors naming the field.
        for bad in [
            r#"{"cmd":"sweep","workload":"idct","objectives":7}"#,
            r#"{"cmd":"sweep","workload":"idct","objectives":["area",3]}"#,
            r#"{"cmd":"sweep","workload":"idct","objectives":["warp"]}"#,
            r#"{"cmd":"sweep","workload":"idct","objectives":"area,area"}"#,
            r#"{"cmd":"sweep","workload":"idct","objectives":"area,power;area,power"}"#,
        ] {
            let (_, cmd) = parse_request(bad);
            let err = cmd.unwrap_err();
            assert!(err.contains("objectives"), "{bad}: {err}");
        }
    }

    #[test]
    fn multi_plane_objectives_parse_on_every_accepted_shape() {
        let planes = ObjectiveSpace::parse_multi("area,latency;area,power").unwrap();
        for req in [
            r#"{"cmd":"refine","workload":"idct","objectives":"area,latency;area,power"}"#,
            r#"{"cmd":"refine","workload":"idct","objectives":["area,latency","area,power"]}"#,
            r#"{"cmd":"refine","workload":"idct","objectives":[["area","latency"],["area","power"]]}"#,
        ] {
            let (_, cmd) = parse_request(req);
            let Command::Refine { spec, .. } = cmd.unwrap() else {
                panic!("expected refine: {req}");
            };
            assert_eq!(spec.objectives, Some(planes.clone()), "{req}");
        }
    }

    #[test]
    fn constraints_parse_as_array_or_comma_string() {
        use crate::constraint::Constraint;
        let want = vec![
            Constraint::parse("area<=1500").unwrap(),
            Constraint::parse("power<=40").unwrap(),
        ];
        for req in [
            r#"{"cmd":"sweep","workload":"idct","constraints":["area<=1500","power<=40"]}"#,
            r#"{"cmd":"refine","workload":"idct","constraints":"area<=1500,power<=40"}"#,
        ] {
            let (_, cmd) = parse_request(req);
            let spec = match cmd.unwrap() {
                Command::Sweep(spec) | Command::Refine { spec, .. } => spec,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(spec.constraints, want, "{req}");
        }
        // Absent and null mean unconstrained.
        let (_, cmd) = parse_request(r#"{"cmd":"sweep","workload":"idct","constraints":null}"#);
        let Command::Sweep(spec) = cmd.unwrap() else {
            panic!("expected sweep");
        };
        assert!(spec.constraints.is_empty());
        // Malformed constraints are request errors naming the field.
        for bad in [
            r#"{"cmd":"sweep","workload":"idct","constraints":7}"#,
            r#"{"cmd":"sweep","workload":"idct","constraints":["warp<=1"]}"#,
            r#"{"cmd":"sweep","workload":"idct","constraints":["area=1"]}"#,
            r#"{"cmd":"sweep","workload":"idct","constraints":["area<=NaN"]}"#,
            r#"{"cmd":"sweep","workload":"idct","constraints":[7]}"#,
        ] {
            let (_, cmd) = parse_request(bad);
            let err = cmd.unwrap_err();
            assert!(err.contains("constraints"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_requests_fail_but_keep_their_id() {
        let (id, cmd) = parse_request(r#"{"id":"a1","cmd":"warp"}"#);
        assert_eq!(id, Some(Value::Str("a1".into())));
        assert!(cmd.unwrap_err().contains("unknown cmd"));
        let (id, cmd) = parse_request("{\"cmd\":");
        assert!(id.is_none());
        assert!(cmd.is_err());
        let (_, cmd) = parse_request(r#"{"cmd":"refine","budget":0}"#);
        assert!(cmd.unwrap_err().contains(">= 1"));
        let (_, cmd) = parse_request(r#"{"cmd":"refine","gap_tol":-1}"#);
        assert!(cmd.unwrap_err().contains("finite"));
    }

    #[test]
    fn responses_are_single_line_json() {
        let id = Some(Value::Num(3.0));
        let err = render_error(id.as_ref(), "no such \"workload\"");
        let parsed = Value::parse(&err).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Value::Bool(false)));
        assert!(!err.contains('\n'));
        let mut t = MultiRoundTrace {
            round: 2,
            new_points: 4,
            front_size: 9,
            plane_gaps: vec![0.25],
            pruned: 1,
        };
        let round = render_round(id.as_ref(), &t);
        let parsed = Value::parse(&round).unwrap();
        assert_eq!(parsed.get("event").and_then(Value::as_str), Some("round"));
        assert_eq!(parsed.get("max_gap").and_then(Value::as_f64), Some(0.25));
        assert!(parsed.get("plane_gaps").is_none());
        t.plane_gaps.push(0.5);
        let parsed = Value::parse(&render_round(id.as_ref(), &t)).unwrap();
        assert!(parsed.get("max_gap").is_none());
        assert_eq!(
            parsed
                .get("plane_gaps")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn stats_rendering_carries_capacity_and_counters() {
        let mut snap = Snapshot::new();
        snap.push_counter("cache.hits", 5);
        snap.push_counter("cache.coalesced", 2);
        snap.push_counter("cache.misses", 9);
        snap.push_counter("cache.evictions", 1);
        snap.push_gauge("cache.entries", 8);
        snap.push_gauge("cache.bytes", 1024);
        snap.push_gauge("cache.capacity_bytes", 4096);
        snap.push_counter("serve.requests", 12);
        snap.push_gauge("serve.uptime_ms", 1500);
        snap.push_gauge("serve.in_flight", 1);
        snap.push_gauge("pool.threads", 4);
        let line = render_stats(None, &snap);
        let v = Value::parse(&line).unwrap();
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("hits").and_then(Value::as_u64), Some(5));
        assert_eq!(
            stats.get("capacity_bytes").and_then(Value::as_u64),
            Some(4096)
        );
        assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(12));
        assert_eq!(stats.get("uptime_ms").and_then(Value::as_u64), Some(1500));
        assert_eq!(stats.get("in_flight").and_then(Value::as_u64), Some(1));
        assert_eq!(stats.get("threads").and_then(Value::as_u64), Some(4));
        // An unbounded cache has no capacity gauge at all; unseen counters
        // report 0, not an absent field — the schema is stable.
        let empty = render_stats(None, &Snapshot::new());
        assert!(empty.contains("\"capacity_bytes\":null"));
        assert!(empty.contains("\"hits\":0"));
    }

    #[test]
    fn metrics_rendering_embeds_the_snapshot_verbatim() {
        let mut snap = Snapshot::new();
        snap.push_counter("serve.requests", 3);
        let line = render_metrics(Some(&Value::Num(9.0)), &snap);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("result"));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("metrics"));
        let m = v.get("metrics").expect("metrics payload");
        assert_eq!(
            m.get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(Value::as_u64),
            Some(3)
        );
    }

    #[test]
    fn every_command_reports_its_wire_verb() {
        assert_eq!(
            parse_request(r#"{"cmd":"metrics"}"#).1.unwrap().verb(),
            "metrics"
        );
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).1.unwrap().verb(), "ping");
        assert_eq!(
            parse_request(r#"{"cmd":"stats"}"#).1.unwrap().verb(),
            "stats"
        );
    }
}
