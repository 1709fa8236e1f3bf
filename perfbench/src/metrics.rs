//! The metric sets every workload reports, in one place so names, units and
//! order cannot drift between workloads. A layer that does no work on a
//! workload reports `0`.

use crate::Outcome;

/// End-to-end metrics (untraced runs).
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up time: inputs, engine or router, serve warm-up.
    pub setup_s: f64,
    /// Cells answered per second (in the median cold sweep, for the sweep
    /// workloads).
    pub cells_per_s: f64,
    /// Requests per second (a request is one cold sweep for the sweep
    /// workloads, one round trip for serve-mix).
    pub req_per_s: f64,
    /// Median request latency.
    pub req_p50_ms: f64,
    /// 99th-percentile request latency.
    pub req_p99_ms: f64,
    /// Cells answered feasible over cells attempted (distinct cells for
    /// serve-mix).
    pub feasible_ratio: f64,
    /// Geometric mean of `a_slack` over feasible cells.
    pub area_geomean: f64,
    /// Peak resident memory (`VmHWM`): after the first cold sweep, or at
    /// the end of the serve session's timed region.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Appends the metrics to `out`.
    pub fn push(&self, out: &mut Outcome) {
        out.push("setup_s", "s", self.setup_s);
        out.push("cells_per_s", "cells/s", self.cells_per_s);
        out.push("req_per_s", "req/s", self.req_per_s);
        out.push("req_p50_ms", "ms", self.req_p50_ms);
        out.push("req_p99_ms", "ms", self.req_p99_ms);
        out.push("feasible_ratio", "ratio", self.feasible_ratio);
        out.push("area_geomean", "area", self.area_geomean);
        out.push("peak_rss_mb", "MB", self.peak_rss_mb);
    }
}

/// Per-layer metrics (traced runs), named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub sched_slack_ms: f64,
    pub sched_conv_ms: f64,
    pub sched_relax_rounds: f64,
    pub sched_infeasible_ms: f64,
    pub sched_save_pct: f64,
    pub budget_call_us: f64,
    pub budget_moves: f64,
    pub slack_call_us: f64,
    pub span_bounds_us: f64,
    pub prepare_ms: f64,
    pub prepare_mb: f64,
    pub bind_call_us: f64,
    pub area_call_us: f64,
    pub power_call_us: f64,
    pub engine_parallel_eff: f64,
    pub router_wait_ms: f64,
    pub router_route_us: f64,
    pub protocol_parse_us: f64,
    pub protocol_render_us: f64,
    pub session_expand_us: f64,
    pub frontend_compile_us: f64,
    pub session_service_ms: f64,
    pub session_evaluate_ms: f64,
    pub eviction_hit_ratio: f64,
    pub eviction_evictions: f64,
    pub eviction_error_recomputes: f64,
    pub eviction_mb: f64,
    pub pool_prefix_mb: f64,
    pub refine_evaluated: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    /// Fills the scheduler-side metrics from a decomposition.
    pub fn from_decomposition(
        &mut self,
        dec: &crate::cells::Decomposer<'_>,
        feasible_rows: &[adhls_core::dse::DseRow],
    ) {
        let acc = &dec.acc;
        let t = &dec.tracer;
        self.sched_slack_ms = acc.slack_ms;
        self.sched_conv_ms = acc.conv_ms;
        self.sched_relax_rounds = acc.relax_rounds as f64;
        self.sched_infeasible_ms = acc.infeasible_ms;
        self.sched_save_pct =
            adhls_core::dse::summarize(feasible_rows).map_or(0.0, |s| s.avg_save_pct);
        self.budget_call_us = t.mean_us("budget");
        self.budget_moves = acc.budget_moves as f64;
        self.slack_call_us = t.mean_us("slack");
        self.span_bounds_us = t.mean_us("span.bounds");
        self.prepare_ms = acc.prepare_ms;
        self.prepare_mb = acc.prepare_bytes as f64 / (1u64 << 20) as f64;
        self.bind_call_us = t.mean_us("bind");
        self.area_call_us = t.mean_us("area");
        self.power_call_us = t.mean_us("power");
    }

    /// Appends the metrics to `out`.
    pub fn push(&self, out: &mut Outcome) {
        out.push("sched.slack_ms", "ms", self.sched_slack_ms);
        out.push("sched.conv_ms", "ms", self.sched_conv_ms);
        out.push(
            "sched.slack_over_conv",
            "ratio",
            crate::stats::ratio(self.sched_slack_ms, self.sched_conv_ms),
        );
        out.push("sched.relax_rounds", "count", self.sched_relax_rounds);
        out.push("sched.infeasible_ms", "ms", self.sched_infeasible_ms);
        out.push("sched.save_pct", "%", self.sched_save_pct);
        out.push("budget.call_us", "us", self.budget_call_us);
        out.push("budget.moves", "count", self.budget_moves);
        out.push("slack.call_us", "us", self.slack_call_us);
        out.push("span.bounds_us", "us", self.span_bounds_us);
        out.push("prepare.ms", "ms", self.prepare_ms);
        out.push("prepare.mb", "MB", self.prepare_mb);
        out.push("bind.call_us", "us", self.bind_call_us);
        out.push("area.call_us", "us", self.area_call_us);
        out.push("power.call_us", "us", self.power_call_us);
        out.push("engine.parallel_eff", "ratio", self.engine_parallel_eff);
        out.push("router.wait_ms", "ms", self.router_wait_ms);
        out.push("router.route_us", "us", self.router_route_us);
        out.push("protocol.parse_us", "us", self.protocol_parse_us);
        out.push("protocol.render_us", "us", self.protocol_render_us);
        out.push("session.expand_us", "us", self.session_expand_us);
        out.push("frontend.compile_us", "us", self.frontend_compile_us);
        out.push("session.service_ms", "ms", self.session_service_ms);
        out.push("session.evaluate_ms", "ms", self.session_evaluate_ms);
        out.push("eviction.hit_ratio", "ratio", self.eviction_hit_ratio);
        out.push("eviction.evictions", "count", self.eviction_evictions);
        out.push(
            "eviction.error_recomputes",
            "count",
            self.eviction_error_recomputes,
        );
        out.push("eviction.mb", "MB", self.eviction_mb);
        out.push("pool.prefix_mb", "MB", self.pool_prefix_mb);
        out.push("refine.evaluated", "count", self.refine_evaluated);
        out.push("telemetry.trace_overhead_pct", "%", self.trace_overhead_pct);
    }
}

/// Writes the traced run's span file and, beside it, the telemetry
/// snapshot; returns the span file's path (or the I/O error, which the
/// caller counts as a failure).
pub fn write_trace_files(
    cfg: &crate::Config,
    provenance_json: &str,
    tracer: &crate::trace::Tracer,
    telemetry_json: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
    let spans = cfg.out_dir.join(format!("{stem}-spans.json"));
    std::fs::write(&spans, tracer.to_json(provenance_json))?;
    std::fs::write(
        cfg.out_dir.join(format!("{stem}-telemetry.json")),
        telemetry_json,
    )?;
    Ok(spans)
}
