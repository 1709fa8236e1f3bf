//! Persistent evaluator pool: worker threads and a sharded result cache
//! that outlive individual sweeps.
//!
//! [`Engine`](crate::engine::Engine) spawns scoped workers per sweep — fine
//! for one-shot CLI runs, wasteful when a server handles many concurrent
//! exploration requests (thread churn, and every request starts cold).
//! [`EvaluatorPool`] keeps the workers and the memo cache alive across
//! requests: share the pool via `Arc`, submit batches from any thread, and
//! cells revisited by later sweeps (adaptive refinement re-deriving a
//! neighborhood, two clients exploring overlapping grids) are free.
//!
//! Determinism contract, inherited from the engine: each point's row is a
//! pure function of (design, library, options), rows are published into
//! per-index slots, and cache hits return bit-identical rows — so a batch's
//! result does not depend on which thread ran which point, how many worker
//! threads exist, or what other batches are in flight.
//!
//! The submitting thread always helps drain its own batch, so a batch makes
//! progress even on a pool with zero background workers (`threads: 1`
//! behaves exactly like the serial engine) and submitters cannot deadlock
//! waiting on a saturated pool.

use crate::engine::{point_key, HitMiss, PrefixCache, SweepResult};
use crate::server::eviction::{CacheStats, EvictingCache, Outcome};
use adhls_core::dse::{DsePoint, DseRow};
use adhls_core::recover::evaluate_mode_prepared;
use adhls_core::sched::HlsOptions;
use adhls_core::PointMode;
use adhls_reslib::Library;
use adhls_telemetry::{Registry, Snapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use adhls_ir::{Error, Result};

/// Tuning knobs for [`EvaluatorPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolOptions {
    /// Total evaluation threads per batch, counting the submitter; `0` =
    /// one per available core. `1` means no background workers at all
    /// (submitters drain their own batches serially).
    pub threads: usize,
    /// Skip points that fail to schedule (recorded in
    /// [`SweepResult::skipped`]) instead of failing the whole batch.
    pub skip_infeasible: bool,
    /// Approximate byte budget for the cross-request result cache
    /// (`None` = unbounded, the one-shot CLI default). Long-lived servers
    /// should set this; see [`crate::server::eviction`].
    pub cache_bytes: Option<usize>,
    /// Evaluation mode for batches submitted without a per-call mode
    /// ([`EvaluatorPool::evaluate`]): full two-flow synthesis (default),
    /// slack recovery, or per-cell auto (see [`PointMode`]). Per-request
    /// modes ([`EvaluatorPool::evaluate_mode`]) share the same workers and
    /// cache — the mode is part of every row's cache key.
    pub point_mode: PointMode,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            threads: 0,
            skip_infeasible: false,
            cache_bytes: None,
            point_mode: PointMode::Full,
        }
    }
}

/// One submitted sweep: its points, result slots, and completion state.
///
/// Claiming is a single shared counter, so claimed indices always form a
/// contiguous prefix and every claimed slot is eventually filled by its
/// claimer — the same publication scheme the engine uses, which is what
/// makes pool results bit-identical to serial evaluation.
struct Batch {
    points: Vec<DsePoint>,
    /// Evaluation mode for every point in this batch; batches with
    /// different modes coexist on one pool.
    mode: PointMode,
    skip_infeasible: bool,
    next: AtomicUsize,
    filled: AtomicUsize,
    slots: Vec<OnceLock<Result<DseRow>>>,
    hits: AtomicU64,
    failed: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Submission time, captured only when the pool's telemetry is enabled
    /// (the pool records submit→start and start→done latencies from it).
    submitted: Option<Instant>,
    /// First claim time, set by whichever thread claims index 0's slot in
    /// the claim counter (i.e. wins the first `fetch_add`).
    started: OnceLock<Instant>,
}

impl Batch {
    fn new(points: Vec<DsePoint>, mode: PointMode, skip_infeasible: bool, timed: bool) -> Self {
        let slots = (0..points.len()).map(|_| OnceLock::new()).collect();
        Batch {
            points,
            mode,
            skip_infeasible,
            next: AtomicUsize::new(0),
            filled: AtomicUsize::new(0),
            slots,
            hits: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            submitted: timed.then(Instant::now),
            started: OnceLock::new(),
        }
    }

    /// True when no further indices should be claimed: every index is
    /// taken, or a strict-mode failure doomed the batch.
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.points.len()
            || (!self.skip_infeasible && self.failed.load(Ordering::Relaxed))
    }

    /// True when every claimed slot has been filled and no more claims can
    /// happen — the submitter may collect.
    ///
    /// `next`'s fetch_adds return 0, 1, 2, …, so the number of claims ever
    /// made is exactly `min(next, len)` — one atomic tells us both "how far
    /// claiming got" and "how many fills are owed", with no window where a
    /// claim is made but not yet registered. `filled` is read *before*
    /// `next`: if the two agree, no claim existed unfilled at the earlier
    /// read, and no claim has happened since (the count didn't move).
    fn complete(&self) -> bool {
        let filled = self.filled.load(Ordering::Acquire);
        let next = self.next.load(Ordering::Acquire);
        let claims = next.min(self.points.len());
        let exhausted = next >= self.points.len()
            || (!self.skip_infeasible && self.failed.load(Ordering::Acquire));
        exhausted && filled == claims
    }

    fn signal_if_complete(&self) {
        if self.complete() {
            let mut done = self.done.lock().expect("batch mutex poisoned");
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn wait_complete(&self) {
        let mut done = self.done.lock().expect("batch mutex poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("batch mutex poisoned");
        }
    }
}

/// Shared state between the pool handle and its worker threads.
struct Shared {
    lib: Library,
    base: HlsOptions,
    cache: EvictingCache,
    /// Prefix artifacts shared across batches (see
    /// [`PreparedDesign`](adhls_core::PreparedDesign)).
    prefixes: PrefixCache,
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    /// Pool-scoped metrics registry, installed as the thread-current
    /// registry on worker threads and around submitter drains so pipeline
    /// phase spans from any batch land here. Disabled (and therefore
    /// nearly free) unless the owner enables it.
    registry: Registry,
}

impl Shared {
    /// Evaluates one point through the cross-request cache, crediting a hit
    /// to the batch's own counter (per-sweep accounting — concurrent
    /// batches must not see each other's hits). Coalescing onto another
    /// request's in-flight evaluation of the same key counts as a hit too:
    /// from this batch's perspective the row was free. Only rows count: a
    /// replayed failure is a cache hit but not a sweep's `cache_hits`.
    ///
    /// A panic inside HLS evaluation is caught and surfaced as an
    /// [`Error::Internal`], which the cache never keeps: on a persistent
    /// pool the panicking thread may be a background worker, and a
    /// claimed-but-never-filled slot would leave the submitter waiting
    /// forever (the scoped-thread engine propagates such panics at join; a
    /// pool has no equivalent joining point per batch).
    fn evaluate_one(
        &self,
        p: &DsePoint,
        mode: PointMode,
        batch_hits: &AtomicU64,
    ) -> Result<DseRow> {
        let key = point_key(&self.base, p, mode);
        let (result, outcome) = self.cache.get_or_compute(key, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let prep = self.prefixes.get_or_prepare(&p.design, &self.lib)?;
                evaluate_mode_prepared(mode, &prep, p, &self.lib, &self.base)
            }))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(Error::Internal(format!(
                    "evaluating {} panicked: {msg}",
                    p.name
                )))
            })
        });
        if result.is_ok() && outcome != Outcome::Computed {
            batch_hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Claims and evaluates points from `batch` until it is exhausted.
    fn drain(&self, batch: &Batch) {
        loop {
            if !batch.skip_infeasible && batch.failed.load(Ordering::Relaxed) {
                break;
            }
            let i = batch.next.fetch_add(1, Ordering::AcqRel);
            if i >= batch.points.len() {
                break;
            }
            if let Some(submitted) = batch.submitted {
                // First claimer stamps the batch start and credits the time
                // it spent queued (submit→start) — each batch reports once.
                let now = Instant::now();
                if batch.started.set(now).is_ok() {
                    self.registry.observe(
                        "pool.batch.submit_to_start_us",
                        now.duration_since(submitted).as_secs_f64() * 1e6,
                    );
                }
            }
            let out = self.evaluate_one(&batch.points[i], batch.mode, &batch.hits);
            if out.is_err() {
                batch.failed.store(true, Ordering::Relaxed);
            }
            assert!(batch.slots[i].set(out).is_ok(), "slot {i} written twice");
            batch.filled.fetch_add(1, Ordering::AcqRel);
            batch.signal_if_complete();
        }
        // An exhausted batch with zero points (or one doomed before this
        // worker claimed anything) still needs its completion signal.
        batch.signal_if_complete();
    }

    /// Background worker: pick the oldest batch with work left, help drain
    /// it, repeat until shutdown. The pool registry is installed for the
    /// thread's lifetime, so pipeline spans from evaluations land on it,
    /// and idle (waiting for work) vs busy (draining) time is credited to
    /// the `pool.worker.{idle,busy}_us` counters.
    fn worker_loop(&self) {
        let _telemetry = adhls_telemetry::install(&self.registry);
        loop {
            let idle_from = self.registry.is_enabled().then(Instant::now);
            let batch = {
                let mut q = self.queue.lock().expect("pool queue poisoned");
                loop {
                    while q.front().is_some_and(|b| b.exhausted()) {
                        q.pop_front();
                    }
                    self.registry.gauge_set("pool.queue_depth", q.len() as i64);
                    if let Some(b) = q.front() {
                        break Arc::clone(b);
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self.work_ready.wait(q).expect("pool queue poisoned");
                }
            };
            if let Some(t) = idle_from {
                self.counter_elapsed_us("pool.worker.idle_us", t);
            }
            let busy_from = self.registry.is_enabled().then(Instant::now);
            self.drain(&batch);
            if let Some(t) = busy_from {
                self.counter_elapsed_us("pool.worker.busy_us", t);
            }
        }
    }

    /// Adds the whole microseconds elapsed since `from` to counter `name`.
    fn counter_elapsed_us(&self, name: &str, from: Instant) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.registry
            .counter_add(name, from.elapsed().as_micros() as u64);
    }
}

/// A persistent, shareable sweep evaluator.
///
/// Construct once (wrapping in `Arc` to share across request handlers),
/// then call [`EvaluatorPool::evaluate`] from any number of threads
/// concurrently. All requests share the worker threads and the sharded
/// result cache.
///
/// # Example
///
/// ```
/// use adhls_core::sched::HlsOptions;
/// use adhls_explore::pool::{EvaluatorPool, PoolOptions};
/// use adhls_reslib::tsmc90;
/// use adhls_workloads::sweep;
/// use std::sync::Arc;
///
/// let pool = Arc::new(EvaluatorPool::new(
///     tsmc90::library(),
///     HlsOptions::default(),
///     PoolOptions { threads: 4, ..Default::default() },
/// ));
/// let points = sweep::interpolation_default();
/// let first = pool.evaluate(&points).unwrap();
/// let second = pool.evaluate(&points).unwrap(); // all cache hits
/// assert_eq!(first.rows, second.rows);
/// assert_eq!(second.cache_hits, points.len() as u64);
/// ```
pub struct EvaluatorPool {
    shared: Arc<Shared>,
    opts: PoolOptions,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EvaluatorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvaluatorPool")
            .field("opts", &self.opts)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl EvaluatorPool {
    /// Spawns the pool. `threads` counts the submitting thread, so a pool
    /// of `threads: N` spawns `N - 1` background workers (`0` = one thread
    /// per available core). The pool owns a fresh, **disabled** metrics
    /// registry; use [`EvaluatorPool::with_telemetry`] to supply one (or
    /// enable via [`EvaluatorPool::telemetry`]).
    #[must_use]
    pub fn new(lib: Library, base: HlsOptions, opts: PoolOptions) -> Self {
        Self::with_telemetry(lib, base, opts, Registry::new())
    }

    /// [`EvaluatorPool::new`], collecting metrics into `registry`: queue
    /// depth, batch latencies, worker busy/idle time, and — because the
    /// registry is installed on worker threads and around submitter
    /// drains — the per-phase `pipeline.*` histograms of every evaluation
    /// run through the pool.
    #[must_use]
    pub fn with_telemetry(
        lib: Library,
        base: HlsOptions,
        opts: PoolOptions,
        registry: Registry,
    ) -> Self {
        let shared = Arc::new(Shared {
            lib,
            base,
            cache: EvictingCache::new(opts.cache_bytes),
            prefixes: PrefixCache::default(),
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            registry,
        });
        let threads = if opts.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            opts.threads
        };
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("adhls-pool-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawning pool worker")
            })
            .collect();
        EvaluatorPool {
            shared,
            opts,
            workers,
        }
    }

    /// Evaluates a batch through the pool: bit-identical rows to
    /// [`Engine::evaluate_serial`](crate::engine::Engine::evaluate_serial)
    /// under the same library/options, in input order. The submitting
    /// thread participates in the work, and background workers join in
    /// (also finishing older batches first).
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) point's scheduling error unless
    /// [`PoolOptions::skip_infeasible`] is set.
    pub fn evaluate(&self, points: &[DsePoint]) -> Result<SweepResult> {
        self.evaluate_mode(points, self.opts.point_mode)
    }

    /// [`EvaluatorPool::evaluate`] with an explicit per-batch evaluation
    /// mode, so one shared server pool serves full, recover, and auto
    /// requests concurrently (rows never alias — the mode is in the cache
    /// key).
    ///
    /// # Errors
    ///
    /// As [`EvaluatorPool::evaluate`].
    pub fn evaluate_mode(&self, points: &[DsePoint], mode: PointMode) -> Result<SweepResult> {
        // Route the submitting thread's own evaluations (it always helps
        // drain) to the pool registry, like the background workers.
        let _telemetry = adhls_telemetry::install(&self.shared.registry);
        let batch = Arc::new(Batch::new(
            points.to_vec(),
            mode,
            self.opts.skip_infeasible,
            self.shared.registry.is_enabled(),
        ));
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.push_back(Arc::clone(&batch));
            self.shared
                .registry
                .gauge_set("pool.queue_depth", q.len() as i64);
            self.shared.work_ready.notify_all();
        }
        self.shared.drain(&batch);
        batch.wait_complete();
        self.shared.registry.counter_add("pool.batches", 1);
        self.shared
            .registry
            .counter_add("pool.points", points.len() as u64);
        if let (Some(submitted), Some(&started)) = (batch.submitted, batch.started.get()) {
            let done = Instant::now();
            self.shared.registry.observe(
                "pool.batch.start_to_done_us",
                done.duration_since(started).as_secs_f64() * 1e6,
            );
            self.shared.registry.observe(
                "pool.batch.submit_to_done_us",
                done.duration_since(submitted).as_secs_f64() * 1e6,
            );
        }
        // Retire the batch from the queue ourselves: background workers
        // also pop exhausted fronts opportunistically, but on a pool with
        // no background workers (threads: 1) nobody else ever would, and a
        // long-lived pool would leak one finished batch per request.
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.retain(|b| !Arc::ptr_eq(b, &batch));
            self.shared
                .registry
                .gauge_set("pool.queue_depth", q.len() as i64);
        }
        // Claims were contiguous from 0 and every claimed slot is filled,
        // so filled slots form a prefix; the unfilled suffix (strict-mode
        // early bail) is exactly the never-claimed points. The queue (and a
        // worker between loop iterations) may still hold the Arc briefly,
        // so collect by reference instead of consuming it.
        let hits = batch.hits.load(Ordering::Acquire);
        let results: Vec<Result<DseRow>> =
            batch.slots.iter().map_while(|s| s.get().cloned()).collect();
        let mut rows = Vec::with_capacity(results.len());
        let mut skipped = Vec::new();
        for (p, r) in batch.points.iter().zip(results) {
            match r {
                Ok(row) => rows.push(row),
                Err(e) if self.opts.skip_infeasible => {
                    skipped.push((p.name.clone(), e.to_string()));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(SweepResult {
            rows,
            skipped,
            cache_hits: hits,
            workers: self.workers.len() + 1,
        })
    }

    /// Hit/miss totals across the pool's lifetime, all batches combined.
    /// Hits include coalesced in-flight waits — both avoided an HLS run.
    /// See [`EvaluatorPool::cache_metrics`] for the full breakdown.
    #[must_use]
    pub fn cache_stats(&self) -> HitMiss {
        self.shared.cache.stats().hit_miss()
    }

    /// Full cache counters and gauges (hits, coalesced waits, misses,
    /// evictions, live entries/bytes, configured budget) — what the
    /// server's `stats` request reports.
    #[must_use]
    pub fn cache_metrics(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Number of distinct (design, options) results currently cached.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Total evaluation threads per batch (background workers + the
    /// submitter).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.workers.len() + 1
    }

    /// The base options batches are evaluated under.
    #[must_use]
    pub fn base_options(&self) -> &HlsOptions {
        &self.shared.base
    }

    /// The pool's metrics registry. Enable it to start collecting:
    /// `pool.telemetry().set_enabled(true)`.
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.shared.registry
    }

    /// One unified snapshot: everything in the registry plus the eviction
    /// cache's own counters (`cache.*`) and the pool's structural gauges
    /// (`pool.threads`, `cache.capacity_bytes` when budgeted) — appended
    /// here so every export surface (`stats`, `metrics`, exposition,
    /// `--metrics-out`) reads the same numbers from the same place.
    #[must_use]
    #[allow(clippy::cast_possible_wrap)]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.shared.registry.snapshot();
        let s = self.shared.cache.stats();
        snap.push_counter("cache.hits", s.hits);
        snap.push_counter("cache.coalesced", s.coalesced);
        snap.push_counter("cache.misses", s.misses);
        snap.push_counter("cache.evictions", s.evictions);
        snap.push_gauge("cache.entries", s.entries as i64);
        snap.push_gauge("cache.bytes", s.bytes as i64);
        if let Some(cap) = s.capacity_bytes {
            snap.push_gauge("cache.capacity_bytes", cap as i64);
        }
        snap.push_gauge("pool.threads", self.thread_count() as i64);
        snap.sort();
        snap
    }
}

impl Drop for EvaluatorPool {
    fn drop(&mut self) {
        {
            // Set shutdown while holding the queue lock: a worker is then
            // either before its lock (it will observe the flag) or already
            // waiting (it will get the notification) — no missed wakeup.
            let _q = self.shared.queue.lock().expect("pool queue poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            // Surface worker panics instead of hiding them — unless we are
            // already unwinding, where a double panic would abort.
            if let Err(e) = w.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::OpKind;
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
            design: b.finish().unwrap(),
            clock_ps: clock,
            pipeline_ii: None,
            cycles_per_item: soft + 1,
        }
    }

    fn fleet() -> Vec<DsePoint> {
        (1..=6)
            .flat_map(|soft| {
                [1100u64, 1400].map(|clock| point(&format!("p{soft}c{clock}"), soft, clock))
            })
            .collect()
    }

    #[test]
    fn pool_rows_match_serial_engine_bit_for_bit() {
        let lib = tsmc90::library();
        let pts = fleet();
        let serial = Engine::new(&lib, HlsOptions::default())
            .evaluate_serial(&pts)
            .unwrap();
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 4,
                ..Default::default()
            },
        );
        let r = pool.evaluate(&pts).unwrap();
        assert_eq!(r.rows, serial.rows);
        assert_eq!(r.workers, 4);
    }

    #[test]
    fn single_thread_pool_works_without_background_workers() {
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(pool.thread_count(), 1);
        let r = pool.evaluate(&fleet()).unwrap();
        assert_eq!(r.rows.len(), 12);
    }

    #[test]
    fn cache_persists_across_batches() {
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 3,
                ..Default::default()
            },
        );
        let pts = fleet();
        let first = pool.evaluate(&pts).unwrap();
        assert_eq!(first.cache_hits, 0);
        let second = pool.evaluate(&pts).unwrap();
        assert_eq!(second.cache_hits, pts.len() as u64);
        assert_eq!(first.rows, second.rows);
        assert_eq!(pool.cache_len(), pts.len());
    }

    #[test]
    fn strict_failure_propagates_and_skip_policy_skips() {
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        let strict = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
        );
        assert!(strict.evaluate(&[good.clone(), bad.clone()]).is_err());
        let lenient = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                skip_infeasible: true,
                ..Default::default()
            },
        );
        let r = lenient.evaluate(&[good, bad]).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.skipped, vec![("bad".into(), r.skipped[0].1.clone())]);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
        );
        let r = pool.evaluate(&[]).unwrap();
        assert!(r.rows.is_empty());
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn completed_batches_are_retired_from_the_queue() {
        // With no background workers, only the submitter can retire its
        // batch; a long-lived pool must not accumulate finished batches.
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let pts = fleet();
        for _ in 0..3 {
            pool.evaluate(&pts).unwrap();
            assert_eq!(
                pool.shared.queue.lock().unwrap().len(),
                0,
                "finished batch left in the queue"
            );
        }
    }

    #[test]
    fn telemetry_collects_pipeline_and_pool_metrics() {
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
        );
        pool.telemetry().set_enabled(true);
        let pts = fleet();
        let r = pool.evaluate(&pts).unwrap();
        let snap = pool.metrics_snapshot();
        // Pipeline phases ran through the installed registry: each point
        // runs HLS twice (conventional + slack-based).
        let schedules = snap.histogram("pipeline.schedule").expect("phase timing");
        assert_eq!(schedules.count, 2 * pts.len() as u64);
        assert_eq!(
            snap.histogram("pipeline.evaluate").map(|h| h.count),
            Some(pts.len() as u64)
        );
        // Batch accounting and the unified cache counters.
        assert_eq!(snap.counter("pool.batches"), Some(1));
        assert_eq!(snap.counter("pool.points"), Some(pts.len() as u64));
        assert_eq!(
            snap.histogram("pool.batch.start_to_done_us")
                .map(|h| h.count),
            Some(1)
        );
        assert_eq!(snap.counter("cache.misses"), Some(pts.len() as u64));
        assert_eq!(snap.gauge("pool.threads"), Some(2));
        assert_eq!(snap.gauge("pool.queue_depth"), Some(0));
        // Telemetry observes, never steers: rows match the disabled pool.
        let quiet = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(quiet.evaluate(&pts).unwrap().rows, r.rows);
        assert!(quiet.metrics_snapshot().counter("pool.batches").is_none());
    }

    #[test]
    fn mixed_mode_batches_share_one_pool_without_aliasing() {
        // One pool, three modes over the same grid: rows must come from the
        // right evaluator (recover rows report the recovered binding, full
        // rows the slack flow) and repeats must hit per mode.
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
        );
        let pts = fleet();
        let full = pool.evaluate_mode(&pts, PointMode::Full).unwrap();
        let rec = pool.evaluate_mode(&pts, PointMode::Recover).unwrap();
        assert_eq!(rec.cache_hits, 0, "modes never alias in the cache");
        for (f, r) in full.rows.iter().zip(&rec.rows) {
            assert_eq!(f.a_conv, r.a_conv);
            assert!(r.a_slack <= r.a_conv);
        }
        let rec2 = pool.evaluate_mode(&pts, PointMode::Recover).unwrap();
        assert_eq!(rec2.cache_hits, pts.len() as u64);
        assert_eq!(rec2.rows, rec.rows);
    }

    #[test]
    fn prefix_bytes_gauge_returns_to_zero_when_caches_drop() {
        let registry = Registry::new();
        registry.set_enabled(true);
        let gauge = || registry.snapshot().gauge("pipeline.prefix.bytes");
        let lib = tsmc90::library();
        let pts = fleet();
        {
            let _installed = adhls_telemetry::install(&registry);
            let engine = Engine::new(&lib, HlsOptions::default());
            engine.evaluate_serial(&pts).unwrap();
            assert!(gauge() > Some(0), "the engine's prefixes were charged");
            // The refund must not depend on the registry still recording.
            registry.set_enabled(false);
        }
        registry.set_enabled(true);
        assert_eq!(
            gauge(),
            Some(0),
            "a dropped engine still holds prefix bytes"
        );
        let pool = EvaluatorPool::with_telemetry(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
            registry.clone(),
        );
        pool.evaluate(&pts).unwrap();
        assert!(gauge() > Some(0), "the pool's prefixes were charged");
        registry.set_enabled(false);
        drop(pool);
        registry.set_enabled(true);
        assert_eq!(gauge(), Some(0), "a dropped pool still holds prefix bytes");
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 4,
                ..Default::default()
            },
        ));
        let lib = tsmc90::library();
        let pts = fleet();
        let reference = Engine::new(&lib, HlsOptions::default())
            .evaluate_serial(&pts)
            .unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let pts = pts.clone();
                    scope.spawn(move || pool.evaluate(&pts).unwrap())
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap().rows, reference.rows);
            }
        });
    }
}
