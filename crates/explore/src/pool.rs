//! The sweep evaluator: worker threads, a result cache and a prefix cache
//! that outlive individual sweeps, both instances of the evicting
//! [`cache`](crate::cache).
//!
//! [`EvaluatorPool`] is the one evaluator. A one-shot run (`adhls explore`,
//! `adhls report`) builds one with [`EvaluatorPool::with_options`],
//! evaluates and drops it; `adhls serve` keeps one alive across requests
//! and shares it via `Arc`, so cells revisited by later sweeps (adaptive
//! refinement re-deriving a neighborhood, two clients exploring
//! overlapping grids) are free.
//!
//! Determinism contract: each point's row is a pure function of (design,
//! library, options), rows are published into per-index slots, and cache
//! hits return bit-identical rows — so a batch's result does not depend on
//! which thread ran which point, how many worker threads exist, or what
//! other batches are in flight. [`EvaluatorPool::evaluate_serial`] is the
//! serial reference.
//!
//! The submitting thread always helps drain its own batch, so a batch makes
//! progress even on a pool with zero background workers (`threads: 1`
//! evaluates serially) and submitters cannot deadlock waiting on a
//! saturated pool. A panicking evaluation becomes an [`Error::Internal`]
//! for its point rather than unwinding through the caller.

use crate::cache::{CacheKey, CacheStats, CacheValue, EvictingCache, Outcome, ENTRY_OVERHEAD};
use crate::fingerprint::{design_fingerprint, options_fingerprint, same_structure, Fnv};
use adhls_core::dse::{evaluate_prepared, DsePoint, DseRow};
use adhls_core::sched::HlsOptions;
use adhls_core::PreparedDesign;
use adhls_ir::Design;
use adhls_reslib::Library;
use adhls_telemetry::{Registry, Snapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use adhls_ir::{Error, Result};

/// Tuning knobs for [`EvaluatorPool`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// should set this; see [`crate::cache`]. Prepared prefixes are kept
    /// apart, always under [`PREFIX_BUDGET`].
    pub cache_bytes: Option<usize>,
}

/// Another name for [`EvaluatorPool`], which callers outside this crate
/// (the `perfbench` harness among them) still use. The lifetime is unused.
pub type Engine<'a> = EvaluatorPool;

/// Another name for [`PoolOptions`], used alongside [`Engine`].
pub type EngineOptions = PoolOptions;

/// Outcome of one sweep evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// One row per feasible point, in input order.
    pub rows: Vec<DseRow>,
    /// Infeasible points as (name, error message), in input order. Empty
    /// unless [`PoolOptions::skip_infeasible`] is set.
    pub skipped: Vec<(String, String)>,
    /// Cache hits observed during this evaluation.
    pub cache_hits: u64,
    /// Evaluation threads: the pool's thread count, or 1 for
    /// [`EvaluatorPool::evaluate_serial`].
    pub workers: usize,
}

/// Memo key for one point under `base` options. `design_fp` is the
/// point's [`design_fingerprint`], computed once by the caller and shared
/// with the prefix lookup.
///
/// The pipeline-II option is encoded as a separate tag word plus the raw
/// value: the old `ii + 1` trick both overflowed at `u32::MAX` (debug
/// panic) and, in release, wrapped `Some(u32::MAX)` onto the same word as
/// `None` — a silent key collision between a pipelined and a sequential
/// point.
fn point_key(base: &HlsOptions, p: &DsePoint, design_fp: u64) -> u64 {
    let mut h = Fnv::default();
    h.u64(design_fp);
    h.u64(options_fingerprint(base));
    h.u64(p.clock_ps);
    match p.pipeline_ii {
        None => h.u64(0),
        Some(ii) => h.u64(1).u64(u64::from(ii)),
    };
    h.u64(u64::from(p.cycles_per_item));
    h.str(&p.name);
    h.digest()
}

/// Byte budget of a pool's prefix cache, split evenly across the cache's
/// 16 shards. A shard's 1-MiB slice holds the largest paper prefix
/// (IDCT-2D at 32 cycles, 0.6 MB), and perfbench's `serve-mix` keeps
/// all of its prefixes well inside the budget; a prefix larger than its
/// slice serves its request and is not kept.
pub const PREFIX_BUDGET: usize = 16 << 20;

/// A prefix-cache key: the design itself, indexed by its
/// [`design_fingerprint`] — the clock/flow/II-independent half of the
/// point key, so every cell of a sweep axis over one design (and every
/// serve request touching it) shares one [`PreparedDesign`].
///
/// A hit is verified, never trusted to the 64-bit index: two keys are
/// equal when they share the design, or when the designs are equal under
/// the canonical walk the fingerprint hashes
/// ([`same_structure`](crate::fingerprint::same_structure)). Constants
/// are not part of that walk, so designs that differ only in constants
/// share a prefix; that is sound because prefix artifacts never read a
/// constant's value, and the library is fixed for the pool's lifetime.
/// The design is shared with the points and is not charged to the cache.
#[derive(Clone)]
struct PrefixKey {
    index: u64,
    design: Arc<Design>,
}

impl PartialEq for PrefixKey {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && (Arc::ptr_eq(&self.design, &other.design)
                || same_structure(&self.design, &other.design))
    }
}

impl Eq for PrefixKey {}

impl CacheKey for PrefixKey {
    fn index(&self) -> u64 {
        self.index
    }

    fn key_bytes(&self) -> usize {
        0
    }
}

/// A prefix is charged its exact [`PreparedDesign::approx_bytes`]; a
/// design that fails to elaborate is never kept (the row cache keeps the
/// failure).
impl CacheValue for Result<Arc<PreparedDesign>> {
    fn charge(&self) -> usize {
        ENTRY_OVERHEAD + self.as_ref().map_or(0, |p| p.approx_bytes())
    }

    fn keep(&self) -> bool {
        self.is_ok()
    }
}

/// Points with their design fingerprints, each distinct design hashed
/// once — what a pool batch evaluates (the fingerprint keys both the row
/// and the prefix lookup), and what the serve tier's expansion memo keeps,
/// so a memoized spec is never hashed again.
#[derive(Debug)]
pub struct PointSet {
    points: Vec<DsePoint>,
    fingerprints: Vec<u64>,
}

impl PointSet {
    /// Fingerprints `points`; points sharing one [`Design`] allocation
    /// share its fingerprint.
    #[must_use]
    pub fn new(points: Vec<DsePoint>) -> Self {
        let mut seen: HashMap<*const Design, u64> = HashMap::new();
        let fingerprints = points
            .iter()
            .map(|p| {
                *seen
                    .entry(Arc::as_ptr(&p.design))
                    .or_insert_with(|| design_fingerprint(&p.design))
            })
            .collect();
        PointSet {
            points,
            fingerprints,
        }
    }

    /// The points, in input order.
    #[must_use]
    pub fn points(&self) -> &[DsePoint] {
        &self.points
    }

    /// Each point's [`design_fingerprint`], index-aligned with
    /// [`PointSet::points`].
    #[must_use]
    pub fn fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }
}

/// One submitted sweep: its points, result slots, and completion state.
///
/// Claiming is a single shared counter, so claimed indices always form a
/// contiguous prefix and every claimed slot is eventually filled by its
/// claimer — which is what makes pool results bit-identical to serial
/// evaluation.
struct Batch {
    points: Arc<PointSet>,
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
    fn new(points: Arc<PointSet>, skip_infeasible: bool, timed: bool) -> Self {
        let slots = (0..points.points.len()).map(|_| OnceLock::new()).collect();
        Batch {
            points,
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
        self.next.load(Ordering::Relaxed) >= self.slots.len()
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
        let claims = next.min(self.slots.len());
        let exhausted = next >= self.slots.len()
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
    /// Prefix artifacts shared across batches (see [`PreparedDesign`]),
    /// under [`PREFIX_BUDGET`].
    prefixes: EvictingCache<PrefixKey, Result<Arc<PreparedDesign>>>,
    /// Applied to every prefix index: the identity in service; tests
    /// force collisions with a constant.
    prefix_mix: fn(u64) -> u64,
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
    /// [`Error::Internal`], which the cache never keeps: the panicking
    /// thread may be a background worker, and a claimed-but-never-filled
    /// slot would leave the submitter waiting forever.
    fn evaluate_one(&self, p: &DsePoint, design_fp: u64, batch_hits: &AtomicU64) -> Result<DseRow> {
        let key = point_key(&self.base, p, design_fp);
        let (result, outcome) = self.cache.get_or_compute(key, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let prep = self.prefix(design_fp, &p.design)?;
                evaluate_prepared(&prep, p, &self.lib, &self.base)
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

    /// The prepared prefix for `design`, whose [`design_fingerprint`] is
    /// `design_fp`, elaborated on a miss (concurrent misses on one design
    /// coalesce onto one elaboration). The prefix keeps the caller's shared
    /// design rather than a copy. Counts `pipeline.prefix.{hit,miss}` on
    /// the thread's registry.
    fn prefix(&self, design_fp: u64, design: &Arc<Design>) -> Result<Arc<PreparedDesign>> {
        let key = PrefixKey {
            index: (self.prefix_mix)(design_fp),
            design: Arc::clone(design),
        };
        let (prep, outcome) = self.prefixes.get_or_compute(key, || {
            PreparedDesign::from_shared(Arc::clone(design), &self.lib).map(Arc::new)
        });
        let counter = match outcome {
            Outcome::Computed => "pipeline.prefix.miss",
            Outcome::Hit | Outcome::Coalesced => "pipeline.prefix.hit",
        };
        adhls_telemetry::counter_add(counter, 1);
        prep
    }

    /// Claims and evaluates points from `batch` until it is exhausted.
    fn drain(&self, batch: &Batch) {
        loop {
            if !batch.skip_infeasible && batch.failed.load(Ordering::Relaxed) {
                break;
            }
            let i = batch.next.fetch_add(1, Ordering::AcqRel);
            if i >= batch.slots.len() {
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
            let out = self.evaluate_one(
                &batch.points.points[i],
                batch.points.fingerprints[i],
                &batch.hits,
            );
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

/// The parallel, memoizing, shareable sweep evaluator.
///
/// Construct once (wrapping in `Arc` to share across request handlers),
/// then call [`EvaluatorPool::evaluate`] from any number of threads
/// concurrently. All requests share the worker threads, the sharded
/// result cache and the prefix cache.
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

    /// A pool for a one-shot run over a copy of `lib`, recording into the
    /// registry current on this thread ([`adhls_telemetry::current`]: the
    /// global one unless the caller installed another), so the submitter's
    /// and the workers' spans land in one place. Like every pool it reports
    /// its thread count as [`SweepResult::workers`], turns a panicking
    /// evaluation into an [`Error::Internal`] for that point, and keeps
    /// deterministic failures in its row cache — unbounded unless
    /// [`PoolOptions::cache_bytes`] is set.
    #[must_use]
    pub fn with_options(lib: &Library, base: HlsOptions, opts: PoolOptions) -> Self {
        Self::with_telemetry(lib.clone(), base, opts, adhls_telemetry::current())
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
        Self::spawn(lib, base, opts, registry, std::convert::identity)
    }

    /// [`EvaluatorPool::with_telemetry`] with every prefix index passed
    /// through `prefix_mix`.
    fn spawn(
        lib: Library,
        base: HlsOptions,
        opts: PoolOptions,
        registry: Registry,
        prefix_mix: fn(u64) -> u64,
    ) -> Self {
        let shared = Arc::new(Shared {
            lib,
            base,
            cache: EvictingCache::new(opts.cache_bytes),
            prefixes: EvictingCache::with_capacity(Some(PREFIX_BUDGET)),
            prefix_mix,
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
    /// [`EvaluatorPool::evaluate_serial`], in input order. The submitting
    /// thread participates in the work, and background workers join in
    /// (also finishing older batches first).
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) point's scheduling error unless
    /// [`PoolOptions::skip_infeasible`] is set.
    pub fn evaluate(&self, points: &[DsePoint]) -> Result<SweepResult> {
        self.evaluate_set(&Arc::new(PointSet::new(points.to_vec())))
    }

    /// The serial reference: the submitting thread evaluates the batch
    /// alone, in input order, through the same caches, without queueing
    /// it for the background workers. The result reports one worker.
    ///
    /// # Errors
    ///
    /// As [`EvaluatorPool::evaluate`]; in strict mode the points after the
    /// first failure are never evaluated.
    pub fn evaluate_serial(&self, points: &[DsePoint]) -> Result<SweepResult> {
        let points = Arc::new(PointSet::new(points.to_vec()));
        self.run(&points, false)
    }

    /// [`EvaluatorPool::evaluate`] over already fingerprinted points:
    /// the batch shares `points` instead of copying it, and hashes no
    /// design.
    ///
    /// # Errors
    ///
    /// As [`EvaluatorPool::evaluate`].
    pub fn evaluate_set(&self, points: &Arc<PointSet>) -> Result<SweepResult> {
        self.run(points, true)
    }

    /// Evaluates `points` on the submitting thread, with the background
    /// workers helping when `queued`.
    fn run(&self, points: &Arc<PointSet>, queued: bool) -> Result<SweepResult> {
        // Route the submitting thread's own evaluations (it always helps
        // drain) to the pool registry, like the background workers.
        let _telemetry = adhls_telemetry::install(&self.shared.registry);
        let batch = Arc::new(Batch::new(
            Arc::clone(points),
            self.opts.skip_infeasible,
            self.shared.registry.is_enabled(),
        ));
        if queued {
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
            .counter_add("pool.points", batch.slots.len() as u64);
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
        if queued {
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
        for (p, r) in batch.points.points.iter().zip(results) {
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
            workers: if queued { self.thread_count() } else { 1 },
        })
    }

    /// Result-cache counters and gauges across the pool's lifetime, all
    /// batches combined (hits, coalesced waits, misses, evictions, live
    /// entries/bytes, configured budget) — what the server's `stats`
    /// request reports. Lookups that avoided an evaluation are
    /// `hits + coalesced`.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
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

    /// The pool's metrics registry. Enable it to start collecting:
    /// `pool.telemetry().set_enabled(true)`.
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.shared.registry
    }

    /// One unified snapshot: everything in the registry plus the row
    /// cache's own counters (`cache.*`), the prefix cache's retained bytes,
    /// evictions and collisions (`pipeline.prefix.{bytes,evictions,
    /// collisions}`) and the pool's structural gauges (`pool.threads`,
    /// `cache.capacity_bytes` when budgeted) — read here, at snapshot time,
    /// so every export surface (`stats`, `metrics`, exposition,
    /// `--metrics-out`) sees the same numbers and none can drift.
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
        let p = self.shared.prefixes.stats();
        snap.push_gauge("pipeline.prefix.bytes", p.bytes as i64);
        snap.push_counter("pipeline.prefix.evictions", p.evictions);
        snap.push_counter("pipeline.prefix.collisions", p.collisions);
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
            design: b.finish().unwrap().into(),
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

    fn pool(threads: usize) -> EvaluatorPool {
        EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads,
                ..Default::default()
            },
        )
    }

    #[test]
    fn pool_rows_match_serial_engine_bit_for_bit() {
        let pts = fleet();
        let serial = pool(4).evaluate_serial(&pts).unwrap();
        assert_eq!(serial.workers, 1);
        let r = pool(4).evaluate(&pts).unwrap();
        assert_eq!(r.rows, serial.rows);
        assert_eq!(r.workers, 4);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        // The one-shot constructor over a borrowed library: a parallel
        // sweep equals the serial reference row for row.
        let lib = tsmc90::library();
        let pts = fleet();
        let serial =
            EvaluatorPool::with_options(&lib, HlsOptions::default(), PoolOptions::default())
                .evaluate_serial(&pts)
                .unwrap();
        let par = EvaluatorPool::with_options(
            &lib,
            HlsOptions::default(),
            PoolOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .evaluate(&pts)
        .unwrap();
        assert_eq!(par.rows, serial.rows);
        assert!(
            par.workers > 1,
            "expected a parallel run, got {} worker",
            par.workers
        );
    }

    #[test]
    fn cache_makes_repeat_sweeps_free() {
        let lib = tsmc90::library();
        let pts = fleet();
        let pool = EvaluatorPool::with_options(&lib, HlsOptions::default(), PoolOptions::default());
        let first = pool.evaluate(&pts).unwrap();
        assert_eq!(first.cache_hits, 0);
        let second = pool.evaluate(&pts).unwrap();
        assert_eq!(second.cache_hits, pts.len() as u64);
        assert_eq!(first.rows, second.rows);
    }

    #[test]
    fn infeasible_point_fails_or_skips_by_policy() {
        let lib = tsmc90::library();
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        let strict =
            EvaluatorPool::with_options(&lib, HlsOptions::default(), PoolOptions::default());
        assert!(strict.evaluate(&[good.clone(), bad.clone()]).is_err());
        let lenient = EvaluatorPool::with_options(
            &lib,
            HlsOptions::default(),
            PoolOptions {
                skip_infeasible: true,
                ..Default::default()
            },
        );
        let r = lenient.evaluate(&[good, bad]).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.skipped.len(), 1);
        assert_eq!(r.skipped[0].0, "bad");
    }

    #[test]
    fn single_thread_pool_works_without_background_workers() {
        let pool = pool(1);
        assert_eq!(pool.thread_count(), 1);
        let r = pool.evaluate(&fleet()).unwrap();
        assert_eq!(r.rows.len(), 12);
    }

    #[test]
    fn cache_persists_across_batches() {
        let pool = pool(3);
        let pts = fleet();
        let first = pool.evaluate(&pts).unwrap();
        assert_eq!(first.cache_hits, 0);
        let second = pool.evaluate(&pts).unwrap();
        assert_eq!(second.cache_hits, pts.len() as u64);
        assert_eq!(first.rows, second.rows);
        assert_eq!(pool.cache_len(), pts.len());
    }

    #[test]
    fn duplicate_points_hit_within_one_sweep() {
        let p = point("dup", 2, 1100);
        let pts = vec![p.clone(), p.clone(), p];
        let r = pool(2).evaluate_serial(&pts).unwrap();
        assert_eq!(r.cache_hits, 2);
        assert_eq!(r.rows[0], r.rows[1]);
        assert_eq!(r.rows[0], r.rows[2]);
    }

    #[test]
    fn strict_failure_propagates_and_skip_policy_skips() {
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        assert!(pool(2).evaluate(&[good.clone(), bad.clone()]).is_err());
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
    fn strict_failure_short_circuits_remaining_points() {
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        let pool = pool(2);
        assert!(pool.evaluate_serial(&[bad, good]).is_err());
        assert_eq!(
            pool.cache_stats().misses,
            1,
            "the point after the failure must not be evaluated"
        );
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let r = pool(2).evaluate(&[]).unwrap();
        assert!(r.rows.is_empty());
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn completed_batches_are_retired_from_the_queue() {
        // With no background workers, only the submitter can retire its
        // batch; a long-lived pool must not accumulate finished batches.
        let pool = pool(1);
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
        let pool = pool(2);
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
        let quiet = self::pool(2);
        assert_eq!(quiet.evaluate(&pts).unwrap().rows, r.rows);
        assert!(quiet.metrics_snapshot().counter("pool.batches").is_none());
    }

    #[test]
    fn with_options_records_into_the_current_registry() {
        // The submitter and the background worker both meter into the
        // registry current at construction.
        let registry = Registry::new();
        registry.set_enabled(true);
        let lib = tsmc90::library();
        let pool = {
            let _installed = adhls_telemetry::install(&registry);
            Engine::with_options(
                &lib,
                HlsOptions::default(),
                EngineOptions {
                    threads: 2,
                    ..Default::default()
                },
            )
        };
        let pts = fleet();
        pool.evaluate(&pts).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("pipeline.evaluate").map(|h| h.count),
            Some(pts.len() as u64)
        );
        assert_eq!(snap.counter("pool.points"), Some(pts.len() as u64));
    }

    #[test]
    fn point_key_distinguishes_max_ii_from_sequential() {
        // `ii + 1` used to wrap Some(u32::MAX) onto None's encoding (and
        // panic in debug); the tag+value encoding must keep them distinct
        // without overflowing.
        let base = HlsOptions::default();
        let seq = point("k", 2, 1100);
        let fp = design_fingerprint(&seq.design);
        let mut max_ii = seq.clone();
        max_ii.pipeline_ii = Some(u32::MAX);
        assert_ne!(point_key(&base, &seq, fp), point_key(&base, &max_ii, fp));
        let mut ii0 = seq.clone();
        ii0.pipeline_ii = Some(0);
        assert_ne!(point_key(&base, &seq, fp), point_key(&base, &ii0, fp));
        assert_ne!(point_key(&base, &max_ii, fp), point_key(&base, &ii0, fp));
        // Same point, same key — the memo still works.
        assert_eq!(
            point_key(&base, &max_ii, fp),
            point_key(&base, &max_ii.clone(), fp)
        );
    }

    #[test]
    fn prefix_bytes_gauge_is_read_from_the_retained_prefixes() {
        let lib = tsmc90::library();
        let pts = fleet();
        let pool = pool(2);
        assert_eq!(
            pool.metrics_snapshot().gauge("pipeline.prefix.bytes"),
            Some(0)
        );
        pool.evaluate(&pts).unwrap();
        let mut designs: HashMap<u64, usize> = HashMap::new();
        for p in &pts {
            designs
                .entry(design_fingerprint(&p.design))
                .or_insert_with(|| {
                    ENTRY_OVERHEAD + PreparedDesign::new(&p.design, &lib).unwrap().approx_bytes()
                });
        }
        let retained: usize = designs.values().sum();
        assert!(retained > 0 && retained <= PREFIX_BUDGET);
        // The registry is disabled; the gauge is read from the cache.
        assert_eq!(
            pool.metrics_snapshot().gauge("pipeline.prefix.bytes"),
            Some(retained as i64)
        );
    }

    /// A design named `name` computing `(x + k) * y` over `soft` soft
    /// states, built afresh (its own allocation) on every call.
    fn shaped(name: &str, soft: u32, k: i64, clock: u64) -> DsePoint {
        let mut b = DesignBuilder::new(name);
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let c = b.constant(k, 8);
        let a = b.binop(OpKind::Add, x, c, 8);
        let m = b.binop(OpKind::Mul, a, y, 16);
        b.soft_waits(soft);
        b.write("z", m);
        DsePoint {
            name: format!("{name}k{k}@{clock}"),
            design: b.finish().unwrap().into(),
            clock_ps: clock,
            pipeline_ii: None,
            cycles_per_item: soft + 1,
        }
    }

    #[test]
    fn forced_prefix_collisions_never_share_a_prefix() {
        // Every design on one prefix index: the one slot holds one prefix
        // at a time, and a lookup must verify the resident is its own.
        // Each design comes twice, as a separate allocation (the second
        // lookup is a verified hit on an equal design), and designs that
        // differ only in a constant share a prefix.
        let mut pts = Vec::new();
        for soft in 1..=3 {
            for (k, clock) in [(3, 1100), (3, 1400), (5, 1400)] {
                pts.push(shaped(&format!("s{soft}"), soft, k, clock));
            }
        }
        pts.push(shaped("s1", 1, 3, 1800));
        let reference = pool(1).evaluate_serial(&pts).unwrap();
        let colliding = EvaluatorPool::spawn(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
            Registry::new(),
            |_| 0,
        );
        colliding.telemetry().set_enabled(true);
        assert_eq!(
            colliding.evaluate_serial(&pts).unwrap().rows,
            reference.rows
        );
        let snap = colliding.metrics_snapshot();
        // In order: each design misses once and hits for its other two
        // cells; the last point collides with s3's resident prefix.
        assert_eq!(snap.counter("pipeline.prefix.miss"), Some(4));
        assert_eq!(snap.counter("pipeline.prefix.hit"), Some(6));
        assert_eq!(snap.counter("pipeline.prefix.collisions"), Some(3));
        // Concurrent workers racing on the one slot return the same rows.
        let racing = EvaluatorPool::spawn(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 4,
                ..Default::default()
            },
            Registry::new(),
            |_| 0,
        );
        for _ in 0..3 {
            assert_eq!(racing.evaluate(&pts).unwrap().rows, reference.rows);
        }
    }

    #[test]
    fn a_prefix_larger_than_its_slice_is_served_not_kept() {
        // 600 soft states: the CFG's edge-pair tables alone outgrow a
        // shard's 1-MiB slice of `PREFIX_BUDGET`.
        let long = |clock| shaped("long", 600, 3, clock);
        let pool = pool(1);
        let first = pool.evaluate_serial(&[long(2000)]).unwrap();
        let prep = PreparedDesign::new(&long(2000).design, &tsmc90::library()).unwrap();
        assert!(prep.approx_bytes() > PREFIX_BUDGET / 16);
        let snap = pool.metrics_snapshot();
        assert_eq!(snap.gauge("pipeline.prefix.bytes"), Some(0));
        assert_eq!(snap.counter("pipeline.prefix.evictions"), Some(1));
        // The row cache still answers the repeat; a fresh clock misses it
        // and elaborates the prefix again.
        let again = pool.evaluate_serial(&[long(2000), long(2400)]).unwrap();
        assert_eq!((again.cache_hits, &again.rows[..1]), (1, &first.rows[..]));
        assert_eq!(
            pool.metrics_snapshot().counter("pipeline.prefix.evictions"),
            Some(2)
        );
    }

    #[test]
    fn a_registry_outliving_its_pool_holds_no_prefix_bytes() {
        let registry = Registry::new();
        registry.set_enabled(true);
        let pool = EvaluatorPool::with_telemetry(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                ..Default::default()
            },
            registry.clone(),
        );
        pool.evaluate(&fleet()).unwrap();
        assert!(pool.metrics_snapshot().gauge("pipeline.prefix.bytes") > Some(0));
        drop(pool);
        let snap = registry.snapshot();
        assert!(snap.counter("pipeline.prefix.miss") > Some(0));
        assert_eq!(snap.gauge("pipeline.prefix.bytes"), None);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(pool(4));
        let pts = fleet();
        let reference = self::pool(1).evaluate_serial(&pts).unwrap();
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

    #[test]
    fn concurrent_sweeps_each_count_their_own_hits() {
        // Two sweeps racing on one shared pool must not attribute each
        // other's hits to themselves.
        let pool = pool(2);
        let pts = fleet();
        pool.evaluate_serial(&pts).unwrap(); // warm the cache
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| pool.evaluate(&pts).unwrap()))
                .collect();
            for h in handles {
                let r = h.join().unwrap();
                assert_eq!(
                    r.cache_hits,
                    pts.len() as u64,
                    "each warm sweep sees exactly its own hits"
                );
            }
        });
    }

    #[test]
    fn one_shot_helper_matches_core_explore() {
        let lib = tsmc90::library();
        let pts = fleet();
        let via_pool = pool(2).evaluate(&pts).unwrap().rows;
        let via_core = adhls_core::dse::explore(&pts, &lib, &HlsOptions::default()).unwrap();
        assert_eq!(via_pool, via_core);
    }
}
