//! Work-stealing parallel sweep evaluator with a memoizing result cache.
//!
//! Workers pull point indices from a shared atomic counter (dynamic load
//! balancing — cheap points don't leave a core idle behind an expensive
//! one) and publish each row into its input slot, so the output order is
//! the input order no matter how the threads interleave. Every point's
//! result depends only on (design, library, options); combined with the
//! slot-per-point publication this makes parallel evaluation bit-identical
//! to serial evaluation.

use crate::fingerprint::{design_fingerprint, options_fingerprint, Fnv};
use adhls_core::dse::{DsePoint, DseRow};
use adhls_core::recover::evaluate_mode_prepared;
use adhls_core::sched::HlsOptions;
use adhls_core::{PointMode, PreparedDesign};
use adhls_ir::{Design, Error, Result};
use adhls_reslib::Library;
use adhls_telemetry::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of independent cache shards (reduces lock contention).
const CACHE_SHARDS: usize = 16;

/// Named hit/miss counters — one shape for every cache surface (the
/// engine's [`ResultCache`], the pool's evicting cache) so call sites can't
/// transpose the two the way a bare `(u64, u64)` tuple silently allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HitMiss {
    /// Lookups that avoided an evaluation. For the pool's evicting cache
    /// this includes coalesced in-flight waits — both served a cached run.
    pub hits: u64,
    /// Lookups that had to run the evaluator.
    pub misses: u64,
}

/// A sharded, thread-safe memo of evaluated (design, options) pairs.
#[derive(Debug, Default)]
pub struct ResultCache {
    shards: [Mutex<HashMap<u64, DseRow>>; CACHE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, DseRow>> {
        &self.shards[(key % CACHE_SHARDS as u64) as usize]
    }

    /// Cached row for `key`, if any.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<DseRow> {
        let row = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .cloned();
        if row.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        row
    }

    /// Stores a row under `key`.
    pub fn insert(&self, key: u64, row: DseRow) {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, row);
    }

    /// Hit/miss counters since construction.
    #[must_use]
    pub fn stats(&self) -> HitMiss {
        HitMiss {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sharded cache of prepared phase-artifact prefixes, keyed by
/// [`design_fingerprint`] — the clock/flow/II-independent half of the
/// point key, so every cell of a sweep axis over one design (and every
/// serve request touching it) shares one [`PreparedDesign`].
///
/// Soundness: prefix artifacts are a pure function of `(design, library)`;
/// both the engine and the pool hold one library for their whole lifetime,
/// so the design fingerprint alone identifies the prefix. The satellite
/// proptests in `tests/incremental_equivalence.rs` pin the key contract
/// (insensitive to clock/flow/II/latency knobs, sensitive to structure).
///
/// Consults count `pipeline.prefix.{hit,miss}` and retained artifact bytes
/// move the `pipeline.prefix.bytes` gauge on the thread's registry —
/// observational only, like every other `pipeline.*` metric. Dropping the
/// cache refunds each prefix's bytes to the registry it was charged to, so
/// the gauge counts live prefixes, not every prefix ever built. Gauges
/// move whether or not that registry is enabled, so a refund after a
/// disable is never lost.
#[derive(Debug, Default)]
pub(crate) struct PrefixCache {
    shards: [Mutex<HashMap<u64, Prefix>>; CACHE_SHARDS],
}

/// One retained prefix and the registry its bytes were charged to.
#[derive(Debug)]
struct Prefix {
    prep: Arc<PreparedDesign>,
    charged: Registry,
}

impl PrefixCache {
    /// The prepared prefix for `design`, elaborating and inserting on miss.
    ///
    /// Concurrent first touches of one design may prepare twice; the first
    /// insert wins and both callers see the same artifacts thereafter (the
    /// preparation is a pure function, so the race is benign and the rows
    /// stay deterministic).
    pub(crate) fn get_or_prepare(
        &self,
        design: &Design,
        lib: &Library,
    ) -> Result<Arc<PreparedDesign>> {
        let key = design_fingerprint(design);
        let shard = &self.shards[(key % CACHE_SHARDS as u64) as usize];
        if let Some(p) = shard.lock().expect("prefix shard poisoned").get(&key) {
            adhls_telemetry::counter_add("pipeline.prefix.hit", 1);
            return Ok(Arc::clone(&p.prep));
        }
        adhls_telemetry::counter_add("pipeline.prefix.miss", 1);
        let prep = Arc::new(PreparedDesign::new(design, lib)?);
        let mut guard = shard.lock().expect("prefix shard poisoned");
        let entry = guard.entry(key).or_insert_with(|| {
            let charged = adhls_telemetry::current();
            charged.gauge_add("pipeline.prefix.bytes", prep.approx_bytes() as i64);
            Prefix {
                prep: Arc::clone(&prep),
                charged,
            }
        });
        Ok(Arc::clone(&entry.prep))
    }
}

impl Drop for PrefixCache {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            let shard = shard.get_mut().unwrap_or_else(PoisonError::into_inner);
            for p in shard.values() {
                p.charged
                    .gauge_add("pipeline.prefix.bytes", -(p.prep.approx_bytes() as i64));
            }
        }
    }
}

/// Memo key for one point under `base` options — the one shared definition
/// used by [`Engine`] and the persistent pool in [`crate::pool`].
///
/// The pipeline-II option is encoded as a separate tag word plus the raw
/// value: the old `ii + 1` trick both overflowed at `u32::MAX` (debug
/// panic) and, in release, wrapped `Some(u32::MAX)` onto the same word as
/// `None` — a silent key collision between a pipelined and a sequential
/// point.
///
/// The evaluation mode is part of the key (its one-byte
/// [`PointMode::cache_tag`]): full, recover, and auto rows are distinct
/// results for the same point, so they may never alias in any result
/// cache. The *prefix* cache deliberately stays mode-blind — elaboration
/// artifacts are identical across modes and recovery must never
/// re-elaborate (see
/// [`crate::fingerprint::prefix_options_fingerprint`]).
pub(crate) fn point_key(base: &HlsOptions, p: &DsePoint, mode: PointMode) -> u64 {
    let mut h = Fnv::default();
    h.u64(design_fingerprint(&p.design));
    h.u64(options_fingerprint(base));
    h.u64(p.clock_ps);
    match p.pipeline_ii {
        None => h.u64(0),
        Some(ii) => h.u64(1).u64(u64::from(ii)),
    };
    h.u64(u64::from(p.cycles_per_item));
    h.str(&p.name);
    h.u64(u64::from(mode.cache_tag()));
    h.digest()
}

/// Tuning knobs for [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads; `0` = one per available core (capped by point count).
    pub threads: usize,
    /// Skip points that fail to schedule (recorded in
    /// [`SweepResult::skipped`]) instead of failing the whole sweep.
    pub skip_infeasible: bool,
    /// How points are evaluated when no per-call mode is given: the full
    /// two-flow synthesis (default), the slack-recovery generator, or a
    /// per-cell automatic choice (see [`PointMode`]).
    pub point_mode: PointMode,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: 0,
            skip_infeasible: false,
            point_mode: PointMode::Full,
        }
    }
}

/// Outcome of one sweep evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// One row per feasible point, in input order.
    pub rows: Vec<DseRow>,
    /// Infeasible points as (name, error message), in input order. Empty
    /// unless [`EngineOptions::skip_infeasible`] is set.
    pub skipped: Vec<(String, String)>,
    /// Cache hits observed during this evaluation.
    pub cache_hits: u64,
    /// Worker threads actually used.
    pub workers: usize,
}

impl SweepResult {
    /// The result's Pareto front projected through `space` — the rows
    /// non-dominated under exactly the space's axes, deterministically
    /// ordered (see [`crate::pareto::pareto_front_in`]).
    #[must_use]
    pub fn front_in(&self, space: &crate::pareto::ObjectiveSpace) -> Vec<DseRow> {
        crate::pareto::pareto_front_in(space, &self.rows)
    }

    /// The result's tradeoff staircase in `space`'s plane (see
    /// [`crate::pareto::tradeoff_staircase_in`]).
    #[must_use]
    pub fn staircase_in(&self, space: &crate::pareto::ObjectiveSpace) -> Vec<DseRow> {
        crate::pareto::tradeoff_staircase_in(space, &self.rows)
    }
}

/// The parallel, cache-aware sweep evaluator.
///
/// The cache lives for the engine's lifetime, so successive sweeps sharing
/// points (e.g. grid refinements around a Pareto knee) only pay for the new
/// points.
#[derive(Debug)]
pub struct Engine<'a> {
    lib: &'a Library,
    base: HlsOptions,
    opts: EngineOptions,
    cache: ResultCache,
    prefixes: PrefixCache,
}

impl<'a> Engine<'a> {
    /// An engine with default [`EngineOptions`].
    #[must_use]
    pub fn new(lib: &'a Library, base: HlsOptions) -> Self {
        Engine::with_options(lib, base, EngineOptions::default())
    }

    /// An engine with explicit options.
    #[must_use]
    pub fn with_options(lib: &'a Library, base: HlsOptions, opts: EngineOptions) -> Self {
        Engine {
            lib,
            base,
            opts,
            cache: ResultCache::default(),
            prefixes: PrefixCache::default(),
        }
    }

    /// The base options points are evaluated under (per-point clock/II
    /// override the corresponding fields, as in `dse::evaluate_point`).
    #[must_use]
    pub fn base_options(&self) -> &HlsOptions {
        &self.base
    }

    /// Result-cache hit/miss counters across all evaluations so far.
    #[must_use]
    pub fn cache_stats(&self) -> HitMiss {
        self.cache.stats()
    }

    /// Memo key for one point under the engine's base options.
    fn point_key(&self, p: &DsePoint, mode: PointMode) -> u64 {
        point_key(&self.base, p, mode)
    }

    /// Evaluates one point through the cache, crediting a hit to the
    /// caller's per-sweep counter (not the engine-lifetime stats, which
    /// other concurrent sweeps also move).
    fn evaluate_one(
        &self,
        p: &DsePoint,
        mode: PointMode,
        sweep_hits: &AtomicU64,
    ) -> Result<DseRow> {
        let key = self.point_key(p, mode);
        if let Some(row) = self.cache.get(key) {
            sweep_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(row);
        }
        let prep = self.prefixes.get_or_prepare(&p.design, self.lib)?;
        let row = evaluate_mode_prepared(mode, &prep, p, self.lib, &self.base)?;
        self.cache.insert(key, row.clone());
        Ok(row)
    }

    /// Serial reference evaluation (also cache-aware), in the engine's
    /// configured [`EngineOptions::point_mode`].
    ///
    /// # Errors
    ///
    /// Returns the first point's scheduling error unless
    /// [`EngineOptions::skip_infeasible`] is set.
    pub fn evaluate_serial(&self, points: &[DsePoint]) -> Result<SweepResult> {
        self.evaluate_serial_mode(points, self.opts.point_mode)
    }

    /// [`Engine::evaluate_serial`] with an explicit per-call mode.
    ///
    /// # Errors
    ///
    /// As [`Engine::evaluate_serial`].
    pub fn evaluate_serial_mode(
        &self,
        points: &[DsePoint],
        mode: PointMode,
    ) -> Result<SweepResult> {
        let hits = AtomicU64::new(0);
        let mut results: Vec<Result<DseRow>> = Vec::with_capacity(points.len());
        for p in points {
            let r = self.evaluate_one(p, mode, &hits);
            // In strict mode one failure fails the whole sweep — don't burn
            // HLS runs on the remaining points.
            let bail = r.is_err() && !self.opts.skip_infeasible;
            results.push(r);
            if bail {
                break;
            }
        }
        self.collect(points, results, hits.into_inner(), 1)
    }

    /// Parallel evaluation: bit-identical rows to
    /// [`Engine::evaluate_serial`], in input order, in the engine's
    /// configured [`EngineOptions::point_mode`].
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) point's scheduling error unless
    /// [`EngineOptions::skip_infeasible`] is set.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics (propagated).
    pub fn evaluate(&self, points: &[DsePoint]) -> Result<SweepResult> {
        self.evaluate_mode(points, self.opts.point_mode)
    }

    /// [`Engine::evaluate`] with an explicit per-call mode.
    ///
    /// # Errors
    ///
    /// As [`Engine::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics (propagated).
    pub fn evaluate_mode(&self, points: &[DsePoint], mode: PointMode) -> Result<SweepResult> {
        let workers = self.worker_count(points.len());
        if workers <= 1 {
            return self.evaluate_serial_mode(points, mode);
        }
        let hits = AtomicU64::new(0);
        let next = AtomicUsize::new(0);
        let failed = std::sync::atomic::AtomicBool::new(false);
        let slots: Vec<OnceLock<Result<DseRow>>> =
            (0..points.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // In strict mode a recorded failure dooms the sweep;
                    // stop claiming new points instead of evaluating them.
                    if !self.opts.skip_infeasible && failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = points.get(i) else { break };
                    let out = self.evaluate_one(p, mode, &hits);
                    if out.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    assert!(slots[i].set(out).is_ok(), "slot {i} written twice");
                });
            }
        });
        // Indices are claimed contiguously from 0, so filled slots form a
        // prefix; on an early strict-mode bail the unfilled suffix is
        // exactly the points that were never claimed. The first error in
        // the prefix is therefore the first failing point in input order.
        let results: Vec<Result<DseRow>> =
            slots.into_iter().map_while(OnceLock::into_inner).collect();
        self.collect(points, results, hits.into_inner(), workers)
    }

    fn worker_count(&self, n_points: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let requested = if self.opts.threads == 0 {
            hw
        } else {
            self.opts.threads
        };
        requested.min(n_points).max(1)
    }

    /// Applies the error policy and assembles the result, deterministically
    /// (everything is keyed by input order).
    fn collect(
        &self,
        points: &[DsePoint],
        results: Vec<Result<DseRow>>,
        cache_hits: u64,
        workers: usize,
    ) -> Result<SweepResult> {
        let mut rows = Vec::with_capacity(results.len());
        let mut skipped = Vec::new();
        for (p, r) in points.iter().zip(results) {
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
            cache_hits,
            workers,
        })
    }
}

// `Error` is Clone + Send + Sync (asserted in adhls-ir); designs and the
// library are plain data, so sharing them across scoped threads is safe by
// construction. This keeps the compiler honest about it:
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Error>();
    assert_send_sync::<ResultCache>();
};

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
    fn parallel_matches_serial_bit_for_bit() {
        let lib = tsmc90::library();
        let pts = fleet();
        let serial = Engine::new(&lib, HlsOptions::default())
            .evaluate_serial(&pts)
            .unwrap();
        let par = Engine::with_options(
            &lib,
            HlsOptions::default(),
            EngineOptions {
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
        let engine = Engine::new(&lib, HlsOptions::default());
        let first = engine.evaluate(&pts).unwrap();
        assert_eq!(first.cache_hits, 0);
        let second = engine.evaluate(&pts).unwrap();
        assert_eq!(second.cache_hits, pts.len() as u64);
        assert_eq!(first.rows, second.rows);
    }

    #[test]
    fn duplicate_points_hit_within_one_sweep() {
        let lib = tsmc90::library();
        let p = point("dup", 2, 1100);
        let pts = vec![p.clone(), p.clone(), p];
        let engine = Engine::new(&lib, HlsOptions::default());
        let r = engine.evaluate_serial(&pts).unwrap();
        assert_eq!(r.cache_hits, 2);
        assert_eq!(r.rows[0], r.rows[1]);
        assert_eq!(r.rows[0], r.rows[2]);
    }

    #[test]
    fn infeasible_point_fails_or_skips_by_policy() {
        let lib = tsmc90::library();
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        let strict = Engine::new(&lib, HlsOptions::default());
        assert!(strict.evaluate(&[good.clone(), bad.clone()]).is_err());
        let lenient = Engine::with_options(
            &lib,
            HlsOptions::default(),
            EngineOptions {
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
    fn strict_failure_short_circuits_remaining_points() {
        let lib = tsmc90::library();
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        let engine = Engine::new(&lib, HlsOptions::default());
        assert!(engine.evaluate_serial(&[bad, good]).is_err());
        assert_eq!(
            engine.cache_stats().misses,
            1,
            "the point after the failure must not be evaluated"
        );
    }

    #[test]
    fn point_key_distinguishes_max_ii_from_sequential() {
        // `ii + 1` used to wrap Some(u32::MAX) onto None's encoding (and
        // panic in debug); the tag+value encoding must keep them distinct
        // without overflowing.
        let base = HlsOptions::default();
        let m = PointMode::Full;
        let seq = point("k", 2, 1100);
        let mut max_ii = seq.clone();
        max_ii.pipeline_ii = Some(u32::MAX);
        assert_ne!(point_key(&base, &seq, m), point_key(&base, &max_ii, m));
        let mut ii0 = seq.clone();
        ii0.pipeline_ii = Some(0);
        assert_ne!(point_key(&base, &seq, m), point_key(&base, &ii0, m));
        assert_ne!(point_key(&base, &max_ii, m), point_key(&base, &ii0, m));
        // Same point, same key — the memo still works.
        assert_eq!(
            point_key(&base, &max_ii, m),
            point_key(&base, &max_ii.clone(), m)
        );
    }

    #[test]
    fn point_key_distinguishes_modes() {
        // Full, recover, and auto rows for one point are distinct results;
        // a shared cache must never serve one for another.
        let base = HlsOptions::default();
        let p = point("k", 2, 1100);
        let keys = [
            point_key(&base, &p, PointMode::Full),
            point_key(&base, &p, PointMode::Recover),
            point_key(&base, &p, PointMode::Auto),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn recover_mode_rows_dominate_full_mode_baseline() {
        // Engine-level recovery: same grid in both modes; every recovered
        // row's reported implementation must not exceed its own
        // conventional baseline, and the baselines must agree bit-for-bit
        // with full mode's.
        let lib = tsmc90::library();
        let pts = fleet();
        let engine = Engine::new(&lib, HlsOptions::default());
        let full = engine.evaluate_mode(&pts, PointMode::Full).unwrap();
        let rec = engine.evaluate_mode(&pts, PointMode::Recover).unwrap();
        assert_eq!(full.rows.len(), rec.rows.len());
        for (f, r) in full.rows.iter().zip(&rec.rows) {
            assert_eq!(f.a_conv, r.a_conv, "shared conventional baseline");
            assert!(r.a_slack <= r.a_conv, "recovered area exceeds baseline");
        }
    }

    #[test]
    fn concurrent_sweeps_each_count_their_own_hits() {
        // Two sweeps racing on one shared engine must not attribute each
        // other's hits to themselves (the old global-delta accounting did).
        let lib = tsmc90::library();
        let pts = fleet();
        let engine = Engine::new(&lib, HlsOptions::default());
        engine.evaluate_serial(&pts).unwrap(); // warm the cache
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| engine.evaluate(&pts).unwrap()))
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
        let via_engine = Engine::new(&lib, HlsOptions::default())
            .evaluate(&pts)
            .unwrap()
            .rows;
        let via_core = adhls_core::dse::explore(&pts, &lib, &HlsOptions::default()).unwrap();
        assert_eq!(via_engine, via_core);
    }
}
