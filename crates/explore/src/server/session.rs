//! Request dispatch and connection handling for the exploration server.
//!
//! A [`Server`] wraps one [`EvaluatorPool`]; every connection (TCP socket
//! or an arbitrary reader/writer pair, which is how tests and `adhls serve
//! --stdio` drive it) pushes request lines through [`Server::handle_line`].
//! Concurrent connections each run in their own thread, but all of them
//! submit to the same pool — so their evaluations share worker threads,
//! the cross-request cache, and in-flight coalescing, and two clients
//! refining overlapping grids pay for each cell once.
//!
//! The request lifecycle (see `docs/ARCHITECTURE.md` for the diagram):
//! parse ([`crate::server::protocol`]) → build the workload grid (shared
//! with the CLI, so axes validate identically everywhere, and memoized
//! per spec by [`crate::server::memo`]) → evaluate through the pool,
//! streaming `round` events for adaptive requests → one terminal `result`
//! line.

use crate::constraint::validate_constraints;
use crate::fingerprint::design_fingerprint;
use crate::pareto::{pareto_front_in_constrained, ObjectiveSpace};
use crate::pool::EvaluatorPool;
use crate::refine::{refine_multi_with_progress, CancelToken, RefineOptions};
use crate::server::memo::SpecMemo;
use crate::server::protocol::{self, Command, WorkloadSpec};
use crate::server::transport::{self, Service};
use crate::sweep::{SweepCell, SweepGrid};
use adhls_core::dse::DsePoint;
use adhls_core::json::Value;
use adhls_ir::{frontend, Design};
use adhls_telemetry::{Registry, Snapshot};
use adhls_workloads::{idct, interpolation, matmul, sweep};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use crate::server::transport::MAX_REQUEST_BYTES;

/// A per-cell design builder, boxed so grids for different workloads share
/// one type (and `Send` so refinements can run on pool threads).
pub type BuildFn = Box<dyn FnMut(&SweepCell) -> Design + Send>;

/// A grid workload's design of one latency budget and pipelining
/// interval. It is given nothing else of a cell, so every clock of a
/// budget gets the same design: the serve tier's cell memo keys a design
/// on these two arguments and the spec fields the builder closes over.
pub(crate) type DesignFn = Box<dyn FnMut(u32, Option<u32>) -> Design + Send>;

/// Largest matmul dimension a request may ask for (op count grows as n³;
/// 64 is already a ~500k-multiply design).
const MAX_MATMUL_DIM: usize = 64;

/// Largest random fleet a single request may ask for. Bounds what one
/// remote request can queue on the shared pool — a billion-point fleet
/// would be built in memory before evaluation even starts, starving every
/// other connection.
const MAX_RANDOM_COUNT: usize = 10_000;

/// The objective space(s) a `sweep` request's fronts are extracted in:
/// the requested one(s), defaulting to every axis
/// ([`ObjectiveSpace::full`] — what sweep fronts were before spaces were
/// selectable). One definition for the wire and `adhls explore`, so both
/// surfaces default alike.
#[must_use]
pub fn sweep_spaces(spec: &WorkloadSpec) -> Vec<ObjectiveSpace> {
    spec.objectives
        .clone()
        .unwrap_or_else(|| vec![ObjectiveSpace::full()])
}

/// The objective plane(s) a `refine` request steers through: the
/// requested one(s), defaulting to the paper's (area, latency) tradeoff
/// plane ([`ObjectiveSpace::tradeoff`]). One definition for the wire and
/// `adhls explore --adaptive`, including the validation. More than one
/// plane selects the one-pass multi-plane driver
/// ([`crate::refine::refine_multi`]).
///
/// # Errors
///
/// A message naming the `objectives` field when any plane has fewer than
/// the two axes a steering plane needs (the library-level
/// [`crate::refine::refine`] enforces the same bound as a backstop).
pub fn refine_spaces(spec: &WorkloadSpec) -> Result<Vec<ObjectiveSpace>, String> {
    let spaces = spec
        .objectives
        .clone()
        .unwrap_or_else(|| vec![ObjectiveSpace::default()]);
    for space in &spaces {
        if space.axes().len() < 2 {
            return Err(format!(
                "objectives: adaptive refinement steers a two-axis plane; `{space}` has only \
                 one axis (pick two, e.g. `area,power`)"
            ));
        }
    }
    Ok(spaces)
}

/// Validates the request's constraints against the active objective
/// space(s): every bound must hit an axis at least one space selects.
/// One definition for the wire and the CLI (whose error mapper re-spells
/// the `constraints:` prefix as `--constraint:`).
///
/// # Errors
///
/// A message naming the `constraints` field and the offending bound.
pub fn validate_spec_constraints(
    spec: &WorkloadSpec,
    spaces: &[ObjectiveSpace],
) -> Result<(), String> {
    validate_constraints(&spec.constraints, &crate::pareto::axis_union(spaces))
        .map_err(|e| format!("constraints: {e}"))
}

fn validate_axes(spec: &WorkloadSpec) -> Result<(), String> {
    if spec.clocks.as_deref().is_some_and(|c| c.contains(&0)) {
        return Err("clocks: clock periods must be >= 1 ps".into());
    }
    if spec.cycles.as_deref().is_some_and(|c| c.contains(&0)) {
        return Err("cycles: latency budgets must be >= 1 cycle".into());
    }
    if spec
        .pipeline
        .as_deref()
        .is_some_and(|m| m.contains(&Some(0)))
    {
        return Err("pipeline: initiation intervals must be >= 1".into());
    }
    if spec.dim.is_some_and(|n| n == 0 || n > MAX_MATMUL_DIM) {
        return Err(format!("dim: must be 1..={MAX_MATMUL_DIM}"));
    }
    if spec.count.is_some_and(|n| n > MAX_RANDOM_COUNT) {
        return Err(format!(
            "count: at most {MAX_RANDOM_COUNT} random points per request"
        ));
    }
    Ok(())
}

/// Expands a [`WorkloadSpec`] into the point fleet a `sweep` evaluates —
/// the same named workloads, default axes, and validation the CLI's
/// `adhls explore` uses (the CLI delegates here).
///
/// # Errors
///
/// A message naming the offending field.
pub fn sweep_points(spec: &WorkloadSpec) -> Result<Vec<DsePoint>, String> {
    expand(spec, false)
}

/// One axis of a spec: the requested values or the workload's default,
/// cut to the first value when only the first point is wanted.
fn axis<T: Clone>(given: Option<&[T]>, default: &[T], first_only: bool) -> Vec<T> {
    let values = given.unwrap_or(default);
    let keep = if first_only { 1 } else { values.len() };
    values.iter().take(keep).cloned().collect()
}

/// [`sweep_points`], or with `first_only` just its first point. Every
/// family expands its axes outermost-first, so the first point is built
/// from each axis's first value; validation always sees the whole spec.
fn expand(spec: &WorkloadSpec, first_only: bool) -> Result<Vec<DsePoint>, String> {
    validate_axes(spec)?;
    if let Some(source) = &spec.dsl {
        if spec.workload.is_some() {
            return Err("pass either `workload` or `dsl`, not both".into());
        }
        return dsl_points(spec, source, first_only);
    }
    let Some(workload) = spec.workload.as_deref() else {
        return Err("a sweep needs `workload` or `dsl`".into());
    };
    let clocks = |default: &[u64]| axis(spec.clocks.as_deref(), default, first_only);
    let cycles = |default: &[u32]| axis(spec.cycles.as_deref(), default, first_only);
    let pts = match workload {
        "interpolation" | "interp" => {
            sweep::interpolation_sweep(&clocks(&[1100, 1400, 1800, 2400]), &cycles(&[3, 4, 6]))
        }
        "idct" => sweep::idct_sweep(
            &clocks(&[2200, 3000]),
            &cycles(&[12, 16, 24, 32]),
            &axis(spec.pipeline.as_deref(), &[None], first_only),
        ),
        "idct-table4" | "table4" if first_only => {
            let (name, cfg, clock_ps) = idct::table4_points().swap_remove(0);
            vec![DsePoint {
                name,
                design: Arc::new(idct::build_2d(&cfg)),
                clock_ps,
                pipeline_ii: cfg.pipelined,
                cycles_per_item: cfg.pipelined.unwrap_or(cfg.cycles),
            }]
        }
        "idct-table4" | "table4" => sweep::idct_table4(),
        "fir" => sweep::fir_sweep(
            spec.clocks
                .as_deref()
                .and_then(|c| c.first().copied())
                .unwrap_or(2200),
            &axis(None, &[2, 4, 8], first_only),
            &cycles(&[2, 3, 4]),
        ),
        "matmul" => sweep::matmul_sweep(
            spec.dim.unwrap_or(3),
            &clocks(&[2200, 3000]),
            &cycles(&[4, 6, 8]),
        ),
        "random" => {
            let count = spec.count.unwrap_or(12);
            let count = if first_only { count.min(1) } else { count };
            sweep::random_fleet(count, spec.seed.unwrap_or(42))
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (interpolation | idct | idct-table4 | \
                 fir | matmul | random)"
            ))
        }
    };
    Ok(pts)
}

fn dsl_points(
    spec: &WorkloadSpec,
    source: &str,
    first_only: bool,
) -> Result<Vec<DsePoint>, String> {
    let design = Arc::new(frontend::compile(source).map_err(|e| format!("dsl: {e}"))?);
    let cycles = DsePoint::states_per_item(&design);
    let clocks = axis(
        spec.clocks.as_deref(),
        &[1500, 2000, 2600, 3200],
        first_only,
    );
    let stem = spec
        .dsl_prefix
        .clone()
        .unwrap_or_else(|| design.cfg.name().to_string());
    Ok(clocks
        .into_iter()
        .map(|clock_ps| DsePoint {
            name: format!("{stem}-c{clock_ps}"),
            design: Arc::clone(&design),
            clock_ps,
            pipeline_ii: None,
            cycles_per_item: cycles,
        })
        .collect())
}

/// The stable routing key the multi-worker router consistent-hashes a
/// request's spec with: the [`design_fingerprint`] of the spec's first
/// expanded point (built alone, without expanding the rest of the sweep).
/// Every request over the same workload family lands on the same worker,
/// so that worker's point cache and incremental prefix artifacts stay warm
/// for the whole grid — and the key survives worker restarts, because it
/// depends only on the spec.
///
/// # Errors
///
/// The same spec-validation message the serving worker would produce
/// (callers route such requests anywhere; the worker repeats the
/// validation and answers the client with the error).
pub fn routing_fingerprint(spec: &WorkloadSpec) -> Result<u64, String> {
    let points = expand(spec, true)?;
    Ok(points.first().map_or(0, |p| design_fingerprint(&p.design)))
}

/// The grid, point-name prefix, and cell builder a `refine` request (or
/// `adhls explore --adaptive`, which delegates here) refines.
///
/// # Errors
///
/// A message naming the offending field; workloads without a grid builder
/// (random fleets, the fixed Table-4 points, DSL designs with their own
/// state structure) are rejected.
pub fn workload_grid(spec: &WorkloadSpec) -> Result<(SweepGrid, String, BuildFn), String> {
    let (grid, prefix, mut design) = grid_designs(spec)?;
    let build = move |cell: &SweepCell| design(cell.cycles, cell.pipeline_ii);
    Ok((grid, prefix, Box::new(build)))
}

/// [`workload_grid`] with its builder narrowed to what it reads of a
/// cell.
pub(crate) fn grid_designs(spec: &WorkloadSpec) -> Result<(SweepGrid, String, DesignFn), String> {
    validate_axes(spec)?;
    if spec.dsl.is_some() {
        return Err("adaptive refinement explores workload grids, not DSL designs".into());
    }
    let Some(workload) = spec.workload.as_deref() else {
        return Err("a refine request needs `workload`".into());
    };
    let clocks = spec.clocks.clone();
    let cycles = spec.cycles.clone();
    let modes = spec.pipeline.clone();
    match workload {
        "interpolation" | "interp" => {
            if modes.is_some() {
                return Err("pipeline: only the idct workload has a pipelining axis".into());
            }
            let grid = SweepGrid::new()
                .clocks_ps(clocks.unwrap_or_else(|| vec![1100, 1400, 1800, 2400]))
                .cycles(cycles.unwrap_or_else(|| vec![3, 4, 6]));
            let build = |cycles, _| {
                let cfg = interpolation::InterpolationConfig {
                    cycles,
                    ..Default::default()
                };
                interpolation::build(&cfg).0
            };
            Ok((grid, "interp".into(), Box::new(build)))
        }
        "idct" => {
            let grid = SweepGrid::new()
                .clocks_ps(clocks.unwrap_or_else(|| vec![2200, 3000]))
                .cycles(cycles.unwrap_or_else(|| vec![12, 16, 24, 32]))
                .pipeline_modes(modes.unwrap_or_else(|| vec![None]));
            let build = |cycles, pipelined| idct::build_2d(&idct::IdctConfig { cycles, pipelined });
            Ok((grid, "idct".into(), Box::new(build)))
        }
        "matmul" => {
            if modes.is_some() {
                return Err("pipeline: only the idct workload has a pipelining axis".into());
            }
            let n = spec.dim.unwrap_or(3);
            let grid = SweepGrid::new()
                .clocks_ps(clocks.unwrap_or_else(|| vec![2200, 3000]))
                .cycles(cycles.unwrap_or_else(|| vec![4, 6, 8]));
            let build = move |cycles, _| {
                matmul::build(&matmul::MatmulConfig {
                    n,
                    cycles,
                    ..Default::default()
                })
            };
            // The prefix must match the non-adaptive sweep's naming so rows
            // stay cross-referenceable; matmul encodes its dimension there.
            Ok((grid, format!("mm{n}"), Box::new(build)))
        }
        other => Err(format!(
            "workload `{other}` has no adaptive grid (interpolation | idct | matmul)"
        )),
    }
}

/// A long-lived exploration server multiplexing any number of client
/// connections onto one [`EvaluatorPool`].
pub struct Server {
    pool: EvaluatorPool,
    /// What each distinct spec expands to, built once per process.
    memo: SpecMemo,
    requests: AtomicU64,
    shutdown: AtomicBool,
    /// Construction time, for `stats`/`metrics` uptime reporting.
    started: Instant,
    /// Requests slower than this (milliseconds) are logged to stderr;
    /// `0` disables slow-request logging.
    slow_ms: AtomicU64,
    /// In-flight cancellable requests, keyed by the *rendered* request
    /// `id` (so `7`, `"a1"` and `7.0` resolve exactly as the wire echoes
    /// them). A `cancel` from any connection fires the matching token;
    /// the refining request deregisters itself when it finishes.
    cancels: Mutex<HashMap<String, CancelToken>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("pool", &self.pool)
            .field("requests", &self.requests)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Wraps a pool. The pool's options decide the evaluation policy for
    /// every request: worker threads, skip-infeasible, cache budget.
    ///
    /// The pool's telemetry registry is **enabled**: a long-lived server is
    /// exactly the deployment observability exists for, and the per-request
    /// overhead (a handful of atomic ops per phase) is noise next to an
    /// HLS evaluation. `stats`, the `metrics` verb, and the exposition
    /// listener all read from it.
    #[must_use]
    pub fn new(pool: EvaluatorPool) -> Self {
        Server::with_memo(pool, SpecMemo::new())
    }

    /// [`Server::new`] with the given spec memo.
    pub(crate) fn with_memo(pool: EvaluatorPool, memo: SpecMemo) -> Self {
        pool.telemetry().set_enabled(true);
        Server {
            pool,
            memo,
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            slow_ms: AtomicU64::new(0),
            cancels: Mutex::new(HashMap::new()),
        }
    }

    /// Fires the cancellation token of the in-flight request whose `id`
    /// renders as `target` renders, returning whether the cancellation
    /// takes effect: `false` when no such request is in flight or it has
    /// already finished its last round. The cancelled refinement stops at
    /// its next round boundary; its rows and trace stay a valid prefix of
    /// the uncancelled run's and stop short of its last round.
    pub fn cancel_request(&self, target: &Value) -> bool {
        let key = target.render();
        let cancels = self.cancels.lock().expect("cancel registry poisoned");
        cancels.get(&key).is_some_and(CancelToken::try_cancel)
    }

    /// Registers a cancellable in-flight request under its rendered `id`
    /// and hands back a deregistration guard. Requests without an `id`
    /// cannot be addressed by `cancel` and are not registered.
    fn register_cancel(&self, id: Option<&Value>) -> (Option<CancelToken>, CancelGuard<'_>) {
        let Some(id) = id else {
            return (
                None,
                CancelGuard {
                    server: self,
                    key: None,
                },
            );
        };
        let token = CancelToken::new();
        let key = id.render();
        self.cancels
            .lock()
            .expect("cancel registry poisoned")
            .insert(key.clone(), token.clone());
        (
            Some(token),
            CancelGuard {
                server: self,
                key: Some(key),
            },
        )
    }

    /// The wrapped pool (e.g. to inspect cache metrics out of band).
    #[must_use]
    pub fn pool(&self) -> &EvaluatorPool {
        &self.pool
    }

    /// Logs any request taking longer than `ms` milliseconds to stderr
    /// (`0` disables, the default).
    pub fn set_slow_ms(&self, ms: u64) {
        self.slow_ms.store(ms, Ordering::Relaxed);
    }

    /// One unified snapshot of everything observable: the pool's registry
    /// and cache counters ([`EvaluatorPool::metrics_snapshot`]), the spec
    /// memos' `memo.expand.*` and `memo.cell.*`, plus the serve tier's own
    /// `serve.requests` counter and `serve.uptime_ms` gauge. Every export
    /// surface — the `stats` and `metrics` verbs, the exposition listener
    /// — renders from this one snapshot, so they cannot drift from each
    /// other.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.pool.metrics_snapshot();
        self.memo.push_metrics(&mut snap);
        snap.push_counter("serve.requests", self.requests.load(Ordering::Relaxed));
        snap.push_gauge("serve.uptime_ms", self.started.elapsed().as_millis() as i64);
        snap.sort();
        snap
    }

    /// Asks the serve loops to wind down: [`Server::serve_tcp`] stops
    /// accepting, and connection loops exit at their next idle moment.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Handles one request line, writing response line(s) to `out` (each
    /// flushed, so `round` events stream while the request runs). Returns
    /// `false` when the connection should close (a `shutdown` request).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`; request-level problems are
    /// reported to the client as `ok:false` result lines instead.
    pub fn handle_line(&self, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        // The pool registry becomes this thread's current registry for the
        // whole request, so refine-level counters (and pipeline spans from
        // the submitter's share of the work) land beside the pool's own.
        let registry = self.pool.telemetry().clone();
        let _telemetry = adhls_telemetry::install(&registry);
        let seq = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let in_flight = registry.gauge_guard("serve.in_flight");
        registry.counter_add("serve.bytes_read", line.len() as u64);
        let started = registry.is_enabled().then(Instant::now);
        let (id, cmd) = protocol::parse_request(line);
        let verb = cmd.as_ref().map_or("invalid", |c| c.verb());
        let handled = self.dispatch(id.as_ref(), cmd, out)?;
        if let Some(t) = started {
            // Per-request accounting: every counted request ends in exactly
            // one `serve.request.<verb>` histogram sample and one
            // ok/errors increment — `metrics` totals reconcile with the
            // `serve.requests` counter (modulo requests still in flight).
            // Settled — and the request no longer in flight — before the
            // final flush releases the terminal line, so a client that has
            // its answer finds it accounted for.
            let us = t.elapsed().as_secs_f64() * 1e6;
            registry.observe(&format!("serve.request.{verb}"), us);
            registry.counter_add(
                if handled.ok {
                    "serve.ok"
                } else {
                    "serve.errors"
                },
                1,
            );
            let slow_ms = self.slow_ms.load(Ordering::Relaxed);
            #[allow(clippy::cast_precision_loss)]
            if slow_ms > 0 && us >= slow_ms as f64 * 1e3 {
                eprintln!(
                    "[adhls serve] slow request #{seq}: {verb} took {:.1} ms \
                     (threshold {slow_ms} ms)",
                    us / 1e3
                );
            }
        }
        drop(in_flight);
        out.flush()?;
        Ok(handled.keep_going)
    }

    /// Runs one parsed request, writing its response line(s). Factored out
    /// of [`Server::handle_line`] so the wrapper can time the request and
    /// classify its outcome uniformly.
    fn dispatch(
        &self,
        id: Option<&adhls_core::json::Value>,
        cmd: Result<Command, String>,
        out: &mut dyn Write,
    ) -> std::io::Result<Handled> {
        let mut ok = true;
        let mut keep_going = true;
        match cmd {
            Err(msg) => {
                writeln!(out, "{}", protocol::render_error(id, &msg))?;
                ok = false;
            }
            Ok(Command::Ping) => writeln!(out, "{}", protocol::render_ok(id, "ping"))?,
            Ok(Command::Shutdown) => {
                self.request_shutdown();
                writeln!(out, "{}", protocol::render_ok(id, "shutdown"))?;
                keep_going = false;
            }
            Ok(Command::Stats) => {
                let line = protocol::render_stats(id, &self.metrics_snapshot());
                writeln!(out, "{line}")?;
            }
            Ok(Command::Metrics) => {
                let line = protocol::render_metrics(id, &self.metrics_snapshot());
                writeln!(out, "{line}")?;
            }
            Ok(Command::Cancel { target }) => {
                if self.cancel_request(&target) {
                    writeln!(out, "{}", protocol::render_cancel_result(id, &target))?;
                } else {
                    let msg = format!("no in-flight request with id {}", target.render());
                    writeln!(out, "{}", protocol::render_error(id, &msg))?;
                    ok = false;
                }
            }
            Ok(Command::Sweep(spec)) => {
                let spaces = sweep_spaces(&spec);
                let prep = validate_spec_constraints(&spec, &spaces).and_then(|()| {
                    let _span = adhls_telemetry::span("session.expand");
                    self.memo.expand(&spec)
                });
                match prep {
                    Err(msg) => {
                        writeln!(out, "{}", protocol::render_error(id, &msg))?;
                        ok = false;
                    }
                    Ok(points) if points.points().is_empty() => {
                        writeln!(
                            out,
                            "{}",
                            protocol::render_error(id, "the sweep is empty (check clocks/cycles)")
                        )?;
                        ok = false;
                    }
                    Ok(points) => match self.pool.evaluate_set(&points) {
                        Ok(result) => {
                            let span = adhls_telemetry::span("session.render");
                            let planes: Vec<(ObjectiveSpace, Vec<adhls_core::dse::DseRow>)> =
                                spaces
                                    .iter()
                                    .map(|s| {
                                        (
                                            s.clone(),
                                            pareto_front_in_constrained(
                                                s,
                                                &spec.constraints,
                                                &result.rows,
                                            ),
                                        )
                                    })
                                    .collect();
                            let line = protocol::render_sweep_result(
                                id,
                                &result,
                                &planes,
                                &spec.constraints,
                            );
                            drop(span);
                            writeln!(out, "{line}")?;
                        }
                        Err(e) => {
                            let msg = format!(
                                "sweep failed: {e} (run the server with skip-infeasible \
                                 to drop such points)"
                            );
                            writeln!(out, "{}", protocol::render_error(id, &msg))?;
                            ok = false;
                        }
                    },
                }
            }
            Ok(Command::Refine {
                spec,
                budget,
                gap_tol,
                warm_front,
            }) => match adhls_telemetry::timed("session.expand", || grid_designs(&spec))
                .and_then(|g| refine_spaces(&spec).map(|s| (g, s)))
                .and_then(|(g, s)| validate_spec_constraints(&spec, &s).map(|()| (g, s)))
            {
                Err(msg) => {
                    writeln!(out, "{}", protocol::render_error(id, &msg))?;
                    ok = false;
                }
                Ok(((grid, _, _), _)) if grid.is_empty() => {
                    writeln!(
                        out,
                        "{}",
                        protocol::render_error(id, "the grid is empty (check clocks/cycles)")
                    )?;
                    ok = false;
                }
                Ok(((grid, prefix, design), spaces)) => {
                    let warm_start: Vec<SweepCell> = warm_front
                        .iter()
                        .filter_map(|n| DsePoint::parse_grid_name(n))
                        .map(|(clock_ps, cycles, pipeline_ii)| SweepCell {
                            clock_ps,
                            cycles,
                            pipeline_ii,
                        })
                        .collect();
                    // Register for `cancel` before the first round runs, so
                    // a cancel racing the refine's start still lands. The
                    // guard deregisters on every exit path.
                    let (cancel, _cancel_guard) = self.register_cancel(id);
                    let opts = RefineOptions {
                        budget,
                        gap_tol,
                        warm_start,
                        constraints: spec.constraints.clone(),
                        cancel,
                        ..Default::default()
                    };
                    let mut stream_err: Option<std::io::Error> = None;
                    let line = refine_multi_with_progress(
                        &self.pool,
                        &grid,
                        &prefix,
                        self.memo.cell_builder(&spec, design),
                        &opts,
                        &spaces,
                        |t| {
                            if stream_err.is_none() {
                                let line = protocol::render_round(id, t);
                                if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
                                    stream_err = Some(e);
                                }
                            }
                        },
                    )
                    .map(|r| {
                        if r.cancelled {
                            adhls_telemetry::counter_add("serve.cancelled", 1);
                        }
                        adhls_telemetry::timed("session.render", || {
                            protocol::render_refine_multi_result(id, &r)
                        })
                    });
                    if let Some(e) = stream_err {
                        return Err(e);
                    }
                    match line {
                        Ok(line) => writeln!(out, "{line}")?,
                        Err(e) => {
                            let msg = format!(
                                "refinement failed: {e} (run the server with \
                                 skip-infeasible to drop unschedulable cells)"
                            );
                            writeln!(out, "{}", protocol::render_error(id, &msg))?;
                            ok = false;
                        }
                    }
                }
            },
        }
        Ok(Handled { keep_going, ok })
    }

    /// Serves one connection from any reader/writer pair until EOF or a
    /// `shutdown` request — the stdio transport, and what tests drive with
    /// in-memory buffers. Request lines are capped at
    /// [`MAX_REQUEST_BYTES`]; an oversized line gets an error response and
    /// closes the connection (the line boundary is lost, so resyncing the
    /// protocol is not possible).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from either side.
    pub fn serve_connection(
        &self,
        reader: impl BufRead,
        writer: impl Write,
    ) -> std::io::Result<()> {
        transport::serve_connection(self, reader, writer)
    }

    /// Accepts and serves TCP connections until a `shutdown` request (from
    /// any connection) or [`Server::request_shutdown`]. Each connection is
    /// handled on its own thread; all of them share this server's pool.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O errors (per-connection errors only
    /// drop that connection).
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        transport::serve_tcp(self, listener)
    }

    /// Serves Prometheus text-format scrapes (`GET /metrics`-style) of
    /// [`Server::metrics_snapshot`] until shutdown — the `adhls serve
    /// --metrics-addr` listener. Runs on the caller's thread; pair it with
    /// [`Server::serve_tcp`] on another.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O errors (per-connection errors only
    /// drop that scrape).
    pub fn serve_metrics(&self, listener: &TcpListener) -> std::io::Result<()> {
        transport::serve_metrics(self, listener)
    }
}

impl Service for Server {
    fn handle_line(&self, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        Server::handle_line(self, line, out)
    }

    fn is_shutting_down(&self) -> bool {
        Server::is_shutting_down(self)
    }

    fn metrics_snapshot(&self) -> Snapshot {
        Server::metrics_snapshot(self)
    }

    fn registry(&self) -> &Registry {
        self.pool.telemetry()
    }

    fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }
}

/// How [`Server::dispatch`] left one request: whether the connection stays
/// open, and whether the terminal response was `ok:true`.
struct Handled {
    keep_going: bool,
    ok: bool,
}

/// Removes a request's cancellation-registry entry when the request
/// finishes — on every path, including stream-error early returns.
struct CancelGuard<'a> {
    server: &'a Server,
    key: Option<String>,
}

impl Drop for CancelGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.server
                .cancels
                .lock()
                .expect("cancel registry poisoned")
                .remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolOptions;
    use adhls_core::json::Value;
    use adhls_core::sched::HlsOptions;
    use adhls_reslib::tsmc90;

    fn server(threads: usize, cache_bytes: Option<usize>) -> Server {
        Server::new(EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads,
                skip_infeasible: true,
                cache_bytes,
            },
        ))
    }

    /// Runs `requests` through a fresh connection and returns the response
    /// lines.
    fn roundtrip(srv: &Server, requests: &str) -> Vec<String> {
        let mut out = Vec::new();
        srv.serve_connection(requests.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn ping_stats_and_errors_round_trip() {
        let srv = server(1, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":1,\"cmd\":\"ping\"}\n\nnot json\n{\"id\":2,\"cmd\":\"stats\"}\n",
        );
        assert_eq!(lines.len(), 3, "{lines:?}");
        let ping = Value::parse(&lines[0]).unwrap();
        assert_eq!(ping.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(ping.get("id").and_then(Value::as_u64), Some(1));
        let err = Value::parse(&lines[1]).unwrap();
        assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
        let stats = Value::parse(&lines[2]).unwrap();
        let s = stats.get("stats").unwrap();
        // Blank lines are skipped, malformed lines still count as requests.
        assert_eq!(s.get("requests").and_then(Value::as_u64), Some(3));
        assert_eq!(s.get("threads").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn sweep_request_returns_rows_front_and_summary() {
        let srv = server(2, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":\"s\",\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1400],\"cycles\":[3,4]}\n",
        );
        assert_eq!(lines.len(), 1);
        let v = Value::parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("rows").and_then(Value::as_arr).unwrap().len(), 4);
        assert!(!v.get("front").and_then(Value::as_arr).unwrap().is_empty());
        // The Table-4 (area, latency) staircase rides along with the
        // four-objective front, never larger than it.
        let staircase = v.get("staircase").and_then(Value::as_arr).unwrap();
        assert!(!staircase.is_empty());
        assert!(staircase.len() <= v.get("front").and_then(Value::as_arr).unwrap().len());
        assert!(v.get("summary").unwrap().get("avg_save_pct").is_some());
    }

    #[test]
    fn sweep_requests_honor_and_echo_the_objectives_field() {
        use crate::pareto::ObjectiveSpace;
        let srv = server(2, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1400],\"cycles\":[3,4]}\n\
             {\"id\":2,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1400],\"cycles\":[3,4],\"objectives\":[\"area\",\"power\"]}\n\
             {\"id\":3,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"objectives\":[\"area\",\"warp\"]}\n",
        );
        assert_eq!(lines.len(), 3, "{lines:?}");
        // No objectives requested: the full four-axis default, recorded.
        assert!(
            lines[0].contains("\"objectives\":[\"area\",\"latency\",\"power\",\"throughput\"]"),
            "{}",
            lines[0]
        );
        // A selected space is echoed, and the front is extracted in it —
        // byte-identical to projecting the same rows directly.
        assert!(
            lines[1].contains("\"objectives\":[\"area\",\"power\"]"),
            "{}",
            lines[1]
        );
        let spec = WorkloadSpec {
            workload: Some("interpolation".into()),
            clocks: Some(vec![1100, 1400]),
            cycles: Some(vec![3, 4]),
            ..Default::default()
        };
        let rows = srv
            .pool()
            .evaluate(&sweep_points(&spec).unwrap())
            .unwrap()
            .rows;
        let space = ObjectiveSpace::parse("area,power").unwrap();
        let expected =
            crate::export::rows_to_json_line(&crate::pareto::pareto_front_in(&space, &rows));
        assert!(
            lines[1].contains(&format!("\"front\":{expected}")),
            "served (area,power) front != direct projection\nserved: {}",
            lines[1]
        );
        // An unknown axis is a request-level error naming the field.
        let err = Value::parse(&lines[2]).unwrap();
        assert_eq!(err.get("ok"), Some(&Value::Bool(false)), "{}", lines[2]);
        assert!(lines[2].contains("objectives"), "{}", lines[2]);
        assert!(lines[2].contains("warp"), "{}", lines[2]);
    }

    #[test]
    fn constrained_sweeps_filter_fronts_and_echo_the_constraints() {
        use crate::constraint::Constraint;
        let srv = server(2, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1400],\"cycles\":[3,4]}\n\
             {\"id\":2,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1400],\"cycles\":[3,4],\"constraints\":[\"power<=1400\"]}\n",
        );
        assert_eq!(lines.len(), 2, "{lines:?}");
        let unconstrained = Value::parse(&lines[0]).unwrap();
        let constrained = Value::parse(&lines[1]).unwrap();
        assert_eq!(
            constrained.get("ok"),
            Some(&Value::Bool(true)),
            "{}",
            lines[1]
        );
        // The constraint is echoed; the unconstrained response omits the
        // field entirely (byte-compatible with pre-constraint responses).
        assert!(
            lines[1].contains("\"constraints\":[\"power<=1400\"]"),
            "{}",
            lines[1]
        );
        assert!(!lines[0].contains("\"constraints\""), "{}", lines[0]);
        // Every front row is feasible, and the constrained front is the
        // feasible slice of the unconstrained one.
        let bound = Constraint::parse("power<=1400").unwrap();
        let front_powers = |v: &Value| -> Vec<f64> {
            v.get("front")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|r| {
                    r.get("power")
                        .unwrap()
                        .get("total")
                        .and_then(Value::as_f64)
                        .unwrap()
                })
                .collect()
        };
        let feas = front_powers(&constrained);
        assert!(!feas.is_empty(), "{}", lines[1]);
        assert!(feas.iter().all(|&p| p <= bound.bound), "{feas:?}");
        let all = front_powers(&unconstrained);
        assert!(
            all.iter().any(|&p| p > bound.bound),
            "the bound must actually cut the front for this test to mean anything: {all:?}"
        );
        // Rows stay the full sweep — constraints shape fronts, not data.
        assert_eq!(
            unconstrained
                .get("rows")
                .and_then(Value::as_arr)
                .unwrap()
                .len(),
            constrained
                .get("rows")
                .and_then(Value::as_arr)
                .unwrap()
                .len()
        );
    }

    #[test]
    fn malformed_constraints_return_structured_errors_and_keep_the_connection() {
        let srv = server(1, None);
        // Unknown axis, bad shape, non-finite bound, axis outside the
        // active space — each gets an ok:false result naming the field,
        // and the connection keeps serving (the trailing ping answers).
        let lines = roundtrip(
            &srv,
            "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"constraints\":[\"warp<=1\"]}\n\
             {\"id\":2,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"constraints\":[\"area=1\"]}\n\
             {\"id\":3,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"constraints\":[\"area<=NaN\"]}\n\
             {\"id\":4,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"objectives\":[\"area\",\"latency\"],\"constraints\":[\"power<=10\"]}\n\
             {\"id\":5,\"cmd\":\"refine\",\"workload\":\"interpolation\",\
             \"constraints\":[\"power<=10\"]}\n\
             {\"id\":6,\"cmd\":\"ping\"}\n",
        );
        assert_eq!(lines.len(), 6, "{lines:?}");
        for (i, needle) in [
            (0, "warp"),
            (1, "<="),
            (2, "finite"),
            (3, "power"),
            (4, "power"),
        ] {
            let v = Value::parse(&lines[i]).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{}", lines[i]);
            let err = v.get("error").and_then(Value::as_str).unwrap();
            assert!(err.contains("constraints"), "{}", lines[i]);
            assert!(err.contains(needle), "{}", lines[i]);
            assert_eq!(
                v.get("id").and_then(Value::as_u64),
                Some(i as u64 + 1),
                "errors keep their request id: {}",
                lines[i]
            );
        }
        let ping = Value::parse(&lines[5]).unwrap();
        assert_eq!(ping.get("ok"), Some(&Value::Bool(true)), "{}", lines[5]);
    }

    #[test]
    fn multi_plane_sweeps_report_every_plane() {
        let srv = server(2, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1400],\"cycles\":[3,4],\
             \"objectives\":\"area,latency;area,power\"}\n",
        );
        assert_eq!(lines.len(), 1, "{lines:?}");
        let v = Value::parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", lines[0]);
        // Top level mirrors the first plane; `planes` holds both views.
        assert!(
            lines[0].contains("\"objectives\":[\"area\",\"latency\"]"),
            "{}",
            lines[0]
        );
        let planes = v.get("planes").and_then(Value::as_arr).unwrap();
        assert_eq!(planes.len(), 2);
        let names: Vec<String> = planes
            .iter()
            .map(|p| p.get("objectives").unwrap().render())
            .collect();
        assert_eq!(names, ["[\"area\",\"latency\"]", "[\"area\",\"power\"]"]);
        for p in planes {
            assert!(!p.get("front").and_then(Value::as_arr).unwrap().is_empty());
            assert!(!p
                .get("staircase")
                .and_then(Value::as_arr)
                .unwrap()
                .is_empty());
        }
        // The first plane's view is byte-identical at both levels.
        assert_eq!(
            planes[0].get("front").unwrap().render(),
            v.get("front").unwrap().render()
        );
    }

    #[test]
    fn multi_plane_refines_run_one_pass_and_report_per_plane_results() {
        let srv = server(2, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":9,\"cmd\":\"refine\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1250,1400,1800],\"cycles\":[3,4,6],\"gap_tol\":0.15,\
             \"objectives\":\"area,latency;area,power\"}\n",
        );
        assert!(lines.len() >= 2, "round events then result: {lines:?}");
        // Streams multi-plane round events carrying per-plane gaps.
        for l in &lines[..lines.len() - 1] {
            let v = Value::parse(l).unwrap();
            assert_eq!(v.get("event").and_then(Value::as_str), Some("round"));
            assert_eq!(
                v.get("plane_gaps")
                    .and_then(Value::as_arr)
                    .map(<[Value]>::len),
                Some(2),
                "{l}"
            );
        }
        let last = Value::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("ok"), Some(&Value::Bool(true)), "{lines:?}");
        let planes = last.get("planes").and_then(Value::as_arr).unwrap();
        assert_eq!(planes.len(), 2);
        for p in planes {
            assert!(!p
                .get("staircase")
                .and_then(Value::as_arr)
                .unwrap()
                .is_empty());
            assert!(!p.get("rounds").and_then(Value::as_arr).unwrap().is_empty());
        }
        // The shared evaluation set is reported once, with unique rows.
        let rows = last.get("rows").and_then(Value::as_arr).unwrap();
        let mut names: Vec<&str> = rows
            .iter()
            .map(|r| r.get("name").and_then(Value::as_str).unwrap())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a cell was evaluated twice");
    }

    #[test]
    fn refine_requests_accept_objective_strings_and_echo_the_plane() {
        let srv = server(2, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":9,\"cmd\":\"refine\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1250,1400,1800],\"cycles\":[3,4,6],\"gap_tol\":0.2,\
             \"objectives\":\"area,power\"}\n",
        );
        let last = Value::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("ok"), Some(&Value::Bool(true)), "{lines:?}");
        assert!(
            lines
                .last()
                .unwrap()
                .contains("\"objectives\":[\"area\",\"power\"]"),
            "{}",
            lines.last().unwrap()
        );
    }

    #[test]
    fn inline_dsl_sweeps_clocks() {
        let srv = server(1, None);
        let dsl = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/dsl/resizer.adhls"
        ))
        .unwrap();
        let req = Value::Obj(vec![
            ("cmd".into(), Value::Str("sweep".into())),
            ("dsl".into(), Value::Str(dsl)),
            (
                "clocks".into(),
                Value::Arr(vec![Value::Num(2000.0), Value::Num(2600.0)]),
            ),
        ])
        .render();
        let lines = roundtrip(&srv, &format!("{req}\n"));
        let v = Value::parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", lines[0]);
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        let name = rows[0].get("name").and_then(Value::as_str).unwrap();
        assert!(name.starts_with("resizer-c"), "{name}");
    }

    #[test]
    fn refine_request_streams_rounds_then_result_matching_direct_run() {
        use crate::pool::{Engine, EngineOptions};
        use crate::refine::refine;
        let srv = server(2, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":9,\"cmd\":\"refine\",\"workload\":\"interpolation\",\
             \"clocks\":[1100,1250,1400,1800],\"cycles\":[3,4,6],\"gap_tol\":0.1}\n",
        );
        assert!(
            lines.len() >= 2,
            "expected round events + result: {lines:?}"
        );
        for l in &lines[..lines.len() - 1] {
            let v = Value::parse(l).unwrap();
            assert_eq!(v.get("event").and_then(Value::as_str), Some("round"));
        }
        let last = Value::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("event").and_then(Value::as_str), Some("result"));
        assert_eq!(last.get("ok"), Some(&Value::Bool(true)));

        // The front over the wire is byte-identical to a direct engine run.
        let lib = tsmc90::library();
        let engine = Engine::with_options(
            &lib,
            HlsOptions::default(),
            EngineOptions {
                skip_infeasible: true,
                ..Default::default()
            },
        );
        let (grid, prefix, build) = workload_grid(&WorkloadSpec {
            workload: Some("interpolation".into()),
            clocks: Some(vec![1100, 1250, 1400, 1800]),
            cycles: Some(vec![3, 4, 6]),
            ..Default::default()
        })
        .unwrap();
        let direct = refine(
            &engine,
            &grid,
            &prefix,
            build,
            &RefineOptions {
                gap_tol: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        let expected = crate::export::rows_to_json_line(&direct.front);
        assert!(
            lines
                .last()
                .unwrap()
                .contains(&format!("\"front\":{expected}")),
            "served front != direct front\nserved: {}\nexpected: {expected}",
            lines.last().unwrap()
        );
    }

    #[test]
    fn routing_keys_equal_the_first_expanded_points_fingerprint() {
        let dsl = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/dsl/resizer.adhls"
        ))
        .unwrap();
        let inline = |fields: &str| {
            let mut line = String::from("{\"cmd\":\"sweep\",\"dsl\":");
            adhls_core::json::escape_into(&mut line, &dsl);
            line.push_str(fields);
            line.push('}');
            line
        };
        let mut lines: Vec<String> = [
            // The families a routed serve mix sends.
            r#"{"cmd":"sweep","workload":"random","count":4,"seed":5000000}"#,
            r#"{"cmd":"sweep","workload":"random","count":4,"seed":5000188}"#,
            r#"{"cmd":"refine","workload":"interpolation","clocks":[1130,1330,1530,1830,2430],"cycles":[3,4,6],"gap_tol":0.1}"#,
            r#"{"cmd":"sweep","workload":"fir","clocks":[2600],"cycles":[3,4]}"#,
            r#"{"cmd":"sweep","workload":"fir","clocks":[1800],"cycles":[2,3,4]}"#,
            // Every other family, default and explicit axes.
            r#"{"cmd":"sweep","workload":"interpolation"}"#,
            r#"{"cmd":"sweep","workload":"interp","cycles":[6,4]}"#,
            r#"{"cmd":"sweep","workload":"idct"}"#,
            r#"{"cmd":"refine","workload":"idct","clocks":[3000,2200],"cycles":[16,12],"pipeline":[8,null]}"#,
            r#"{"cmd":"sweep","workload":"table4"}"#,
            r#"{"cmd":"sweep","workload":"idct-table4","clocks":[1]}"#,
            r#"{"cmd":"sweep","workload":"matmul","dim":2,"cycles":[6,4]}"#,
            r#"{"cmd":"sweep","workload":"random"}"#,
            r#"{"cmd":"sweep","workload":"fir"}"#,
            // Empty sweeps and invalid specs keep the fallback key.
            r#"{"cmd":"sweep","workload":"interpolation","clocks":[]}"#,
            r#"{"cmd":"sweep","workload":"random","count":0}"#,
            r#"{"cmd":"sweep","workload":"idct","pipeline":[]}"#,
            r#"{"cmd":"sweep","workload":"warp"}"#,
            r#"{"cmd":"sweep","workload":"idct","clocks":[0,2200]}"#,
            r#"{"cmd":"sweep","workload":"matmul","dim":0}"#,
            r#"{"cmd":"sweep","clocks":[2200]}"#,
            r#"{"cmd":"sweep","dsl":"proc broken("}"#,
        ]
        .map(String::from)
        .to_vec();
        lines.push(inline(""));
        lines.push(inline(",\"clocks\":[2600,1500]"));
        lines.push(inline(",\"clocks\":[]"));
        lines.push(inline(",\"workload\":\"fir\""));
        for line in &lines {
            let (_, cmd) = protocol::parse_request(line);
            let spec = match cmd.expect(line) {
                Command::Sweep(spec) | Command::Refine { spec, .. } => spec,
                other => panic!("{line} parsed as {}", other.verb()),
            };
            let expanded = sweep_points(&spec)
                .map(|points| points.first().map_or(0, |p| design_fingerprint(&p.design)));
            assert_eq!(routing_fingerprint(&spec), expanded, "{line}");
        }
    }

    #[test]
    fn oversized_request_lines_are_refused_not_buffered() {
        let srv = server(1, None);
        // A newline-less flood larger than the cap: the server must answer
        // with one error line and close, not accumulate it.
        let mut flood = vec![b'x'; MAX_REQUEST_BYTES + 2];
        flood.push(b'\n');
        let mut out = Vec::new();
        srv.serve_connection(flood.as_slice(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "{text}");
        let v = Value::parse(lines[0]).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert!(
            v.get("error")
                .and_then(Value::as_str)
                .unwrap()
                .contains("exceeds"),
            "{text}"
        );
    }

    #[test]
    fn absurd_count_and_dim_are_rejected_up_front() {
        let srv = server(1, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"random\",\"count\":1000000000}\n\
             {\"id\":2,\"cmd\":\"sweep\",\"workload\":\"matmul\",\"dim\":4096}\n",
        );
        assert_eq!(lines.len(), 2);
        for l in &lines {
            let v = Value::parse(l).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{l}");
        }
        assert!(lines[0].contains("count"), "{}", lines[0]);
        assert!(lines[1].contains("dim"), "{}", lines[1]);
    }

    #[test]
    fn shutdown_request_ends_the_connection_and_flags_the_server() {
        let srv = server(1, None);
        let lines = roundtrip(
            &srv,
            "{\"id\":1,\"cmd\":\"shutdown\"}\n{\"id\":2,\"cmd\":\"ping\"}\n",
        );
        assert_eq!(lines.len(), 1, "nothing after shutdown: {lines:?}");
        assert!(srv.is_shutting_down());
    }

    #[test]
    fn tcp_serves_concurrent_clients_and_stops_on_shutdown() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;
        let srv = server(4, None);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let serve = scope.spawn(|| srv.serve_tcp(&listener).unwrap());
            let client = |req: String| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(req.as_bytes()).unwrap();
                let mut r = BufReader::new(s.try_clone().unwrap());
                let mut line = String::new();
                r.read_line(&mut line).unwrap();
                line
            };
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    scope.spawn(move || {
                        client(format!(
                            "{{\"id\":{i},\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
                             \"clocks\":[1100,1400],\"cycles\":[3,4]}}\n"
                        ))
                    })
                })
                .collect();
            let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Shut the server down *before* asserting: a failed assert
            // inside this scope would otherwise leave the serve thread
            // alive and the scope (hence the test) hung forever.
            client("{\"cmd\":\"shutdown\"}\n".into());
            serve.join().unwrap();
            for resp in &responses {
                let v = Value::parse(resp).unwrap();
                assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{resp}");
            }
            // Identical concurrent requests: both fronts bit-identical
            // (per-request counters like cache_hits legitimately differ).
            let front = |r: &str| Value::parse(r).unwrap().get("front").unwrap().render();
            assert_eq!(
                front(&responses[0]),
                front(&responses[1]),
                "concurrent clients saw different fronts"
            );
        });
    }
}
