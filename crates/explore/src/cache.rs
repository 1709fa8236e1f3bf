//! The evicting cache behind the [`EvaluatorPool`](crate::pool::EvaluatorPool)
//! and the serve tier's memos.
//!
//! [`EvictingCache`] holds the pool's rows and failures — unbounded for a
//! one-shot run, under a byte budget for a server that evaluates millions
//! of cells over weeks — and the pool's prepared prefixes, always under
//! their own fixed budget.
//!
//! * **results, not just rows** — a deterministic failure (a point the
//!   scheduler's relaxation loop gave up on, often the costliest cells to
//!   evaluate) is cached next to the rows and replayed verbatim, message
//!   included. Only [`Error::Internal`] — a panicked evaluation — is never
//!   kept, since it says nothing about the key,
//! * **byte budget, evicted by recompute cost** — an optional global budget,
//!   split evenly across the shards. Every entry is charged its approximate
//!   heap footprint, and a shard over its slice evicts by GreedyDual-Size
//!   (Cao & Irani, "Cost-Aware WWW Proxy Caching Algorithms", USITS 1997):
//!   each shard keeps an inflation value `L`; an entry's priority is `L`
//!   plus its measured compute time per byte, reset on every hit; eviction
//!   drops the lowest priority and raises `L` to it. A 1.5-ms row thus
//!   outlives a stream of 0.1-ms rows, while an expensive entry nobody
//!   touches again ages out once `L` climbs past it. Compute time counts
//!   in whole microseconds and ties go to the least recently used entry,
//!   so when costs are equal (sub-µs computations always are) the order
//!   is exactly LRU. A newcomer that is the cheapest entry is its own
//!   victim,
//! * **in-flight coalescing** — concurrent requests for the same
//!   (design, options) key wait for the one evaluation in progress instead
//!   of re-running HLS; with requests multiplexed onto one pool this is
//!   what makes cross-request sharing deterministic rather than a race,
//! * **one implementation, several tenants** — the cache is generic over
//!   its key ([`CacheKey`]) and value ([`CacheValue`]). Rows and failures
//!   under 64-bit point keys ([`EvictingCache::new`]) are the pool's first
//!   tenant and prepared prefixes keyed by their design its second
//!   ([`crate::pool::PREFIX_BUDGET`]); the serve tier's spec-expansion,
//!   cell-design and route-key memos ([`crate::server::memo`]) are three
//!   more, each under its own fixed budget. A value larger than its
//!   shard's slice is returned to its caller but never kept,
//! * **verified hits** — an entry keeps its full key, and a hit compares
//!   it: two keys that share a 64-bit [`CacheKey::index`] never answer for
//!   each other. The mismatch counts as a collision and is served as a
//!   miss (the newcomer then replaces the resident),
//! * **observable** — hit/coalesced/miss/collision/eviction counters and
//!   live entry/byte gauges (failures included), surfaced by the server's
//!   `stats` request.
//!
//! Eviction never changes what an evaluation returns: rows and failures
//! are pure functions of (design, library, options), so an evicted entry
//! is merely recomputed on the next miss. Costs are measured wall time, so
//! *which* entries stay depends on the machine and the schedule — as it
//! already did under concurrent submitters — but never what a lookup
//! returns. The proptests in `tests/pool_eviction.rs` pin this down
//! against the unbudgeted pool.

use adhls_core::dse::DseRow;
use adhls_ir::{Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Number of independent shards; a budget is split evenly across them.
pub(crate) const SHARDS: usize = 16;

/// Approximate per-entry bookkeeping overhead (hash-map slot, key, rank
/// metadata) charged on top of the payload.
pub(crate) const ENTRY_OVERHEAD: usize = 48;

/// Fractional bits of the fixed-point cost per byte. A 120-µs row of ~200
/// bytes costs 0.6 µs per byte, which whole units would round down to the
/// same zero as a sub-µs computation.
const COST_FRAC_BITS: u32 = 16;

/// Cap on one entry's cost per byte (2^32 µs per byte in fixed point), so
/// `L + cost` stays far from `u64::MAX`.
const MAX_COST: u64 = 1 << 48;

/// Inflation at which a shard rebases every priority to `L = 0`. With
/// costs capped at [`MAX_COST`], no priority ever exceeds
/// `REBASE_AT + MAX_COST`, so a server may run for any length of time.
const REBASE_AT: u64 = 1 << 62;

/// What an [`EvictingCache`] keys its entries by.
pub trait CacheKey: Clone + Eq {
    /// The 64-bit index that picks the entry's shard and slot. Distinct
    /// keys may share one; every hit compares the full key.
    fn index(&self) -> u64;

    /// Heap bytes the entry keeps for the key, charged on top of the
    /// value's [`CacheValue::charge`].
    fn key_bytes(&self) -> usize;
}

/// A 64-bit point key is its own index, and the per-entry overhead already
/// covers it.
impl CacheKey for u64 {
    fn index(&self) -> u64 {
        *self
    }

    fn key_bytes(&self) -> usize {
        0
    }
}

/// What an [`EvictingCache`] stores.
pub trait CacheValue: Clone {
    /// Approximate bytes charged for keeping the value, per-entry overhead
    /// included.
    fn charge(&self) -> usize;

    /// Whether the value may be kept. One that may not is still shared
    /// with coalesced waiters, but the next lookup computes afresh.
    fn keep(&self) -> bool {
        true
    }
}

/// Rows and deterministic failures; an internal fault is never kept.
impl CacheValue for Result<DseRow> {
    fn charge(&self) -> usize {
        entry_cost(self)
    }

    fn keep(&self) -> bool {
        !matches!(self, Err(Error::Internal(_)))
    }
}

/// Approximate heap cost of caching one row, in bytes.
#[must_use]
pub fn row_cost(row: &DseRow) -> usize {
    ENTRY_OVERHEAD + std::mem::size_of::<DseRow>() + row.name.len()
}

/// Approximate heap cost of caching one result: [`row_cost`] for a row; for
/// a failure the overhead, the stored result's size and its message bytes.
fn entry_cost(value: &Result<DseRow>) -> usize {
    match value {
        Ok(row) => row_cost(row),
        Err(e) => ENTRY_OVERHEAD + std::mem::size_of::<Result<DseRow>>() + e.to_string().len(),
    }
}

/// Recompute cost per charged byte, in fixed point, of an entry that took
/// `us` whole microseconds to compute.
fn cost_per_byte(us: u64, bytes: usize) -> u64 {
    let per_byte = (u128::from(us) << COST_FRAC_BITS) / bytes.max(1) as u128;
    u64::try_from(per_byte).map_or(MAX_COST, |c| c.min(MAX_COST))
}

/// How a [`EvictingCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Found in the cache (a row or a replayed failure).
    Hit,
    /// Waited for another thread's in-flight evaluation of the same key.
    Coalesced,
    /// Evaluated by this call.
    Computed,
}

/// A point-in-time snapshot of the cache's counters and gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache, replayed failures included.
    pub hits: u64,
    /// Lookups answered by waiting on a concurrent in-flight evaluation.
    pub coalesced: u64,
    /// Lookups that had to evaluate (collisions included).
    pub misses: u64,
    /// Lookups whose index was held, resident or in flight, by a
    /// different key — served as misses, never from the other key's entry.
    pub collisions: u64,
    /// Entries evicted to respect the byte budget (including entries too
    /// big to cache at all and newcomers that were their own victim).
    pub evictions: u64,
    /// Entries currently cached, rows and failures.
    pub entries: usize,
    /// Approximate bytes currently cached (incl. per-entry overhead).
    pub bytes: usize,
    /// The configured byte budget (`None` = unbounded).
    pub capacity_bytes: Option<usize>,
}

struct Entry<K, V> {
    /// The full key, compared on every hit.
    key: K,
    /// A row, or a deterministic failure replayed verbatim.
    value: V,
    /// Bytes charged against the budget.
    bytes: usize,
    /// Recompute cost per byte (fixed point, see [`cost_per_byte`]).
    cost: u64,
    /// The entry's key in its shard's eviction order.
    rank: Rank,
}

/// An entry's place in eviction order: GreedyDual-Size priority first, then
/// the tick of its last use, so equal priorities evict least recently used
/// first. Ticks are unique within a shard, and so are ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    priority: u64,
    tick: u64,
}

/// What a shard holds at a key's index.
enum Found<V> {
    /// The key's own entry, its priority refreshed.
    Hit(V),
    /// Nothing.
    Absent,
    /// A different key's entry.
    Collision,
}

struct Shard<K, V> {
    /// Entries by [`CacheKey::index`].
    map: HashMap<u64, Entry<K, V>>,
    /// Eviction index: rank → key index. The first entry is always the
    /// victim, so eviction is O(log n) instead of a full scan per evicted
    /// entry (a server shard can hold tens of thousands of entries, and the
    /// scan runs inside the shard lock).
    order: BTreeMap<Rank, u64>,
    bytes: usize,
    tick: u64,
    /// GreedyDual-Size inflation `L`: the priority of the last victim. No
    /// live entry's priority is below it.
    inflation: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
            tick: 0,
            inflation: 0,
        }
    }
}

impl<K: CacheKey, V: CacheValue> Shard<K, V> {
    /// The cached value for `key`, its priority reset to `L` plus its cost.
    fn touch(&mut self, key: &K) -> Found<V> {
        let Some(e) = self.map.get_mut(&key.index()) else {
            return Found::Absent;
        };
        if e.key != *key {
            return Found::Collision;
        }
        self.tick += 1;
        let rank = Rank {
            priority: self.inflation + e.cost,
            tick: self.tick,
        };
        self.order.remove(&e.rank);
        self.order.insert(rank, key.index());
        e.rank = rank;
        Found::Hit(e.value.clone())
    }

    /// Inserts a value that took `compute_us` to compute, replacing
    /// whatever held its index, then evicts the lowest-priority entries
    /// until the shard fits `budget` — the new entry itself when it is the
    /// cheapest to recompute. Returns how many entries were evicted (an
    /// entry bigger than the whole shard budget is not cached at all and
    /// counts as one).
    fn insert(&mut self, key: K, value: V, compute_us: u64, budget: Option<usize>) -> u64 {
        let bytes = key.key_bytes() + value.charge();
        if budget.is_some_and(|b| bytes > b) {
            return 1;
        }
        let cost = cost_per_byte(compute_us, bytes);
        self.tick += 1;
        let rank = Rank {
            priority: self.inflation + cost,
            tick: self.tick,
        };
        let index = key.index();
        let entry = Entry {
            key,
            value,
            bytes,
            cost,
            rank,
        };
        if let Some(old) = self.map.insert(index, entry) {
            self.bytes -= old.bytes;
            self.order.remove(&old.rank);
        }
        self.bytes += bytes;
        self.order.insert(rank, index);
        let mut evicted = 0;
        while budget.is_some_and(|b| self.bytes > b) {
            let (victim, index) = self
                .order
                .pop_first()
                .expect("over budget implies an evictable entry");
            self.bytes -= self.map.remove(&index).expect("ranked key present").bytes;
            // The minimum priority is never below `L`, so this only raises it.
            self.inflation = victim.priority;
            evicted += 1;
        }
        if self.inflation >= REBASE_AT {
            self.rebase();
        }
        evicted
    }

    /// Subtracts `L` from every priority and resets it to zero. Every
    /// priority is at least `L`, and shifting all of them by the same amount
    /// keeps their order, so eviction proceeds exactly as before.
    fn rebase(&mut self) {
        let base = self.inflation;
        self.order = self
            .map
            .iter_mut()
            .map(|(&index, e)| {
                e.rank.priority -= base;
                (e.rank, index)
            })
            .collect();
        self.inflation = 0;
    }
}

/// The state of one in-flight computation.
enum Slot<V> {
    Pending,
    Ready(V),
    /// The computing thread unwound before publishing.
    Abandoned,
}

/// One in-flight evaluation other threads can wait on.
struct Inflight<V> {
    slot: Mutex<Slot<V>>,
    done: Condvar,
}

impl<V> Inflight<V> {
    fn publish(&self, slot: Slot<V>) {
        *self.slot.lock().expect("inflight slot poisoned") = slot;
        self.done.notify_all();
    }
}

impl<V: Clone> Inflight<V> {
    /// The published value, or `None` when the computing thread unwound.
    fn wait(&self) -> Option<V> {
        let mut slot = self.slot.lock().expect("inflight slot poisoned");
        loop {
            match &*slot {
                Slot::Pending => slot = self.done.wait(slot).expect("inflight slot poisoned"),
                Slot::Ready(v) => return Some(v.clone()),
                Slot::Abandoned => return None,
            }
        }
    }
}

/// Releases a claimed in-flight slot, marking it abandoned if the computing
/// thread unwinds before publishing — without this, waiters on the slot
/// would block forever behind a panicked computation. They compute
/// afresh instead.
struct PublishGuard<'a, K, V> {
    cache: &'a EvictingCache<K, V>,
    index: u64,
    inflight: &'a Arc<Inflight<V>>,
    published: bool,
}

impl<K, V> Drop for PublishGuard<'_, K, V> {
    fn drop(&mut self) {
        {
            let mut map = self.cache.inflight.lock().expect("inflight map poisoned");
            map.remove(&self.index);
        }
        if !self.published {
            self.inflight.publish(Slot::Abandoned);
        }
    }
}

/// The in-flight computations of a cache, by key index.
type InflightMap<K, V> = HashMap<u64, (K, Arc<Inflight<V>>)>;

/// A sharded cache with an optional byte budget (GreedyDual-Size eviction
/// by recompute time per byte), verified hits and in-flight request
/// coalescing. See the module docs. The default parameters are the pool's
/// row tenant.
pub struct EvictingCache<K = u64, V = Result<DseRow>> {
    shards: [Mutex<Shard<K, V>>; SHARDS],
    inflight: Mutex<InflightMap<K, V>>,
    shard_budget: Option<usize>,
    capacity: Option<usize>,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> std::fmt::Debug for EvictingCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvictingCache")
            .field("capacity_bytes", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl EvictingCache {
    /// A row cache bounded to roughly `capacity_bytes` (`None` =
    /// unbounded: nothing is ever evicted); see
    /// [`EvictingCache::with_capacity`].
    #[must_use]
    pub fn new(capacity_bytes: Option<usize>) -> Self {
        EvictingCache::with_capacity(capacity_bytes)
    }
}

impl<K: CacheKey, V: CacheValue> EvictingCache<K, V> {
    /// A cache bounded to roughly `capacity_bytes` (`None` = unbounded:
    /// nothing is ever evicted). The budget is split evenly across the
    /// shards, so the worst-case overshoot of the global budget is zero:
    /// each shard enforces its slice under its own lock.
    #[must_use]
    pub fn with_capacity(capacity_bytes: Option<usize>) -> Self {
        EvictingCache {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            inflight: Mutex::new(HashMap::new()),
            shard_budget: capacity_bytes.map(|c| c / SHARDS),
            capacity: capacity_bytes,
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, index: u64) -> &Mutex<Shard<K, V>> {
        &self.shards[(index % SHARDS as u64) as usize]
    }

    /// Looks `key` up; on a miss, either waits for a concurrent in-flight
    /// evaluation of the same key or runs `compute` itself, timing it, and
    /// caches the result. The returned value is identical no matter which
    /// path was taken (values are pure functions of their keys). A key
    /// whose index another key holds, resident or in flight, is computed
    /// without coalescing and replaces the resident.
    ///
    /// Failures are cached and replayed like any value, except those
    /// [`CacheValue::keep`] refuses, which a later lookup computes afresh.
    /// A waiter whose computing thread unwound computes for itself.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, Outcome) {
        let index = key.index();
        // Whether another key held the index; counted once per call.
        let mut collided = false;
        loop {
            match self.lookup(&key) {
                Found::Hit(hit) => return (hit, Outcome::Hit),
                Found::Collision => collided = true,
                Found::Absent => {}
            }
            // Claim or join the in-flight slot for this key.
            let claim = {
                let mut map = self.inflight.lock().expect("inflight map poisoned");
                match map.get(&index) {
                    Some((k, f)) if *k == key => Some((Arc::clone(f), false)),
                    Some(_) => None,
                    None => {
                        let f = Arc::new(Inflight {
                            slot: Mutex::new(Slot::Pending),
                            done: Condvar::new(),
                        });
                        map.insert(index, (key.clone(), Arc::clone(&f)));
                        Some((f, true))
                    }
                }
            };
            let Some((inflight, claimed)) = claim else {
                let value = self.compute_and_store(key, true, compute);
                return (value, Outcome::Computed);
            };
            if !claimed {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                match inflight.wait() {
                    Some(v) => return (v, Outcome::Coalesced),
                    None => continue,
                }
            }
            let mut guard = PublishGuard {
                cache: self,
                index,
                inflight: &inflight,
                published: false,
            };
            // An evaluation of this key may have finished between the
            // lookup above and the claim. It cached its result before
            // releasing its slot, so look again rather than evaluate the
            // key twice.
            match self.lookup(&key) {
                Found::Hit(hit) => {
                    inflight.publish(Slot::Ready(hit.clone()));
                    guard.published = true;
                    return (hit, Outcome::Hit);
                }
                Found::Collision => collided = true,
                Found::Absent => {}
            }
            let value = self.compute_and_store(key, collided, compute);
            inflight.publish(Slot::Ready(value.clone()));
            guard.published = true;
            return (value, Outcome::Computed);
        }
    }

    /// Runs `compute` as a counted miss (and collision, if `collided`),
    /// timing it, and caches the value unless [`CacheValue::keep`] refuses
    /// it.
    fn compute_and_store(&self, key: K, collided: bool, compute: impl FnOnce() -> V) -> V {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if collided {
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        let started = Instant::now();
        let value = compute();
        let compute_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        if value.keep() {
            let evicted = self
                .shard(key.index())
                .lock()
                .expect("cache shard poisoned")
                .insert(key, value.clone(), compute_us, self.shard_budget);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        value
    }

    /// What the cache holds at `key`'s index, counted as a hit when it is
    /// `key`'s own entry.
    fn lookup(&self, key: &K) -> Found<V> {
        let found = self
            .shard(key.index())
            .lock()
            .expect("cache shard poisoned")
            .touch(key);
        if matches!(found, Found::Hit(_)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Point-in-time counters and gauges.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for s in &self.shards {
            let s = s.lock().expect("cache shard poisoned");
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity_bytes: self.capacity,
        }
    }

    /// Number of cached entries, rows and failures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    //! Shard-level eviction order with explicit costs. The policy as the
    //! pool's row cache runs it, through the public surface, is tested in
    //! `server::eviction`.

    use super::*;
    use adhls_core::power::PowerReport;

    fn row(name: &str) -> DseRow {
        DseRow {
            name: name.into(),
            a_conv: 10.0,
            a_slack: 9.0,
            save_pct: 10.0,
            power: PowerReport {
                dynamic: 1.0,
                leakage: 1.0,
                total: 2.0,
            },
            throughput: 100.0,
            latency_ps: 10_000.0,
            clock_ps: 1000,
        }
    }

    /// Key `i` of shard 0.
    fn k(i: u64) -> u64 {
        i * SHARDS as u64
    }

    #[test]
    fn lru_keeps_recently_used_entries() {
        // Equal, explicit costs straight into a shard, so only the
        // least-recently-used tie-break decides (no measured time can).
        let mut s = Shard::default();
        let slice = Some(row_cost(&row("r1")) * 2);
        s.insert(k(1), Ok(row("r1")), 1000, slice);
        s.insert(k(2), Ok(row("r2")), 1000, slice);
        // Touch r1 so r2 is the LRU when r3 arrives.
        assert!(matches!(s.touch(&k(1)), Found::Hit(_)));
        assert_eq!(s.insert(k(3), Ok(row("r3")), 1000, slice), 1);
        assert!(
            !s.map.contains_key(&k(2)),
            "r2 was the LRU and must have been evicted"
        );
        assert!(s.map.contains_key(&k(1)) && s.map.contains_key(&k(3)));
    }

    #[test]
    fn untouched_expensive_entry_ages_out() {
        // Exact costs, straight into a shard: r00 took twice as long as each
        // later entry, so it would outrank them forever if evictions did
        // not raise the inflation that newcomers start from.
        let mut s = Shard::default();
        let slice = Some(row_cost(&row("r00")) * 2);
        s.insert(k(0), Ok(row("r00")), 4000, slice);
        let mut churned = 0;
        while s.map.contains_key(&k(0)) {
            churned += 1;
            assert!(churned < 10, "r00 outlived {churned} newer entries");
            s.insert(k(churned), Ok(row(&format!("r{churned:02}"))), 2000, slice);
        }
        assert_eq!(churned, 4, "r00 goes once `L` has caught up with it");
    }

    #[test]
    fn inflation_rebases_without_reordering() {
        let mut s = Shard::default();
        let slice = Some(row_cost(&row("r1")) * 2);
        s.inflation = REBASE_AT - 1;
        s.insert(k(1), Ok(row("r1")), 2000, slice);
        s.insert(k(2), Ok(row("r2")), 1000, slice);
        // Evicting r2, the cheapest, lifts `L` past the threshold.
        assert_eq!(s.insert(k(3), Ok(row("r3")), 3000, slice), 1);
        assert!(s.inflation < REBASE_AT, "rebased");
        assert!(s.order.keys().all(|r| r.priority >= s.inflation));
        // Relative order survived: r1 is still cheaper than r3.
        assert_eq!(s.insert(k(4), Ok(row("r4")), 5000, slice), 1);
        assert!(!s.map.contains_key(&k(1)));
        assert!(s.map.contains_key(&k(3)) && s.map.contains_key(&k(4)));
        // A cost beyond any real computation saturates instead of
        // overflowing.
        s.insert(k(5), Ok(row("r5")), u64::MAX, slice);
        assert!(s.map.contains_key(&k(5)));
    }
}
