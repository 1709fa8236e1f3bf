//! Policy tests of the pool's row cache as a long-lived server runs it:
//! the byte budget, GreedyDual-Size eviction by recompute cost, kept
//! failures, in-flight coalescing and verified hits, all driven through
//! the public surface of [`EvictingCache`](crate::cache::EvictingCache).
//! Shard-level eviction order with explicit costs is tested next to the
//! shard in `crate::cache`.

#[cfg(test)]
mod tests {
    use crate::cache::{
        row_cost, CacheKey, CacheValue, EvictingCache, Outcome, ENTRY_OVERHEAD, SHARDS,
    };
    use adhls_core::dse::DseRow;
    use adhls_core::power::PowerReport;
    use adhls_ir::{Error, Result};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

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

    /// A row whose computation takes at least 2 ms.
    fn slow_row(name: &str) -> Result<DseRow> {
        std::thread::sleep(Duration::from_millis(2));
        Ok(row(name))
    }

    #[test]
    fn hit_after_compute_and_stats_track_both() {
        let c = EvictingCache::new(None);
        let (r, o) = c.get_or_compute(7, || Ok(row("a")));
        assert_eq!(o, Outcome::Computed);
        let (r2, o2) = c.get_or_compute(7, || panic!("must not recompute"));
        assert_eq!(o2, Outcome::Hit);
        assert_eq!(r.unwrap(), r2.unwrap());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.entries, 1);
        assert!(s.bytes >= row_cost(&row("a")));
    }

    #[test]
    fn budget_is_respected_and_evictions_counted() {
        // Budget for ~2 entries per shard; hammer one shard (keys share
        // key % 16) so eviction must kick in.
        let per_entry = row_cost(&row("r000"));
        let c = EvictingCache::new(Some(per_entry * 2 * SHARDS));
        for i in 0..20u64 {
            let name = format!("r{i:03}");
            let (r, _) = c.get_or_compute(i * SHARDS as u64, || Ok(row(&name)));
            r.unwrap();
        }
        let s = c.stats();
        assert!(s.evictions >= 18, "evictions: {}", s.evictions);
        assert!(s.bytes <= per_entry * 2, "one shard over its slice");
        assert_eq!(s.entries, c.len());
    }

    #[test]
    fn expensive_entry_survives_churn_of_cheap_ones() {
        let per_entry = row_cost(&row("r00"));
        let c = EvictingCache::new(Some(per_entry * 2 * SHARDS));
        c.get_or_compute(k(0), || slow_row("r00")).0.unwrap();
        // Under LRU the second of these would already evict r00.
        for i in 1..40 {
            let cheap = row(&format!("r{i:02}"));
            c.get_or_compute(k(i), move || Ok(cheap)).0.unwrap();
        }
        assert_eq!(
            c.get_or_compute(k(0), || unreachable!()).1,
            Outcome::Hit,
            "the 2-ms entry outlives the sub-µs churn"
        );
        assert_eq!(c.stats().evictions, 38);
    }

    #[test]
    fn budget_holds_when_newest_entry_is_cheapest() {
        let per_entry = row_cost(&row("r1"));
        let slice = per_entry * 2;
        let c = EvictingCache::new(Some(slice * SHARDS));
        c.get_or_compute(k(1), || slow_row("r1")).0.unwrap();
        c.get_or_compute(k(2), || slow_row("r2")).0.unwrap();
        // Bigger than either resident but within the slice, and instant.
        let cheap = row("r3-a-longer-name");
        assert!(row_cost(&cheap) <= slice);
        let (r, o) = c.get_or_compute(k(3), move || Ok(cheap));
        assert_eq!(
            (r.unwrap().name.as_str(), o),
            ("r3-a-longer-name", Outcome::Computed)
        );
        let s = c.stats();
        assert_eq!(s.evictions, 1, "the cheap newcomer is its own victim");
        assert_eq!(s.entries, 2);
        assert!(
            s.bytes <= slice,
            "{} bytes over the {slice}-byte slice",
            s.bytes
        );
        for i in [1, 2] {
            assert_eq!(c.get_or_compute(k(i), || unreachable!()).1, Outcome::Hit);
        }
    }

    #[test]
    fn oversized_rows_are_not_cached_but_still_returned() {
        let c = EvictingCache::new(Some(SHARDS)); // 1 byte per shard
        let (r, o) = c.get_or_compute(1, || Ok(row("giant")));
        assert_eq!(o, Outcome::Computed);
        assert_eq!(r.unwrap().name, "giant");
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn deterministic_failures_are_cached() {
        let c = EvictingCache::new(None);
        let msg = "op m2 cannot meet the 900 ps clock";
        let (r, o) = c.get_or_compute(5, || Err(Error::Transform(msg.into())));
        assert_eq!(o, Outcome::Computed);
        let (r2, o2) = c.get_or_compute(5, || panic!("a cached failure is replayed"));
        assert_eq!(o2, Outcome::Hit);
        assert_eq!(r2, r);
        assert!(matches!(&r2, Err(Error::Transform(m)) if m == msg));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, r2.charge());
        assert!(s.bytes > ENTRY_OVERHEAD + msg.len());
    }

    #[test]
    fn panics_are_shared_but_not_cached() {
        let c = EvictingCache::new(None);
        let computed = AtomicUsize::new(0);
        let gate = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    gate.wait();
                    let (r, o) = c.get_or_compute(5, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(20));
                        Err(Error::Internal("evaluating p panicked: boom".into()))
                    });
                    assert_ne!(
                        o,
                        Outcome::Hit,
                        "an internal fault was served from the cache"
                    );
                    assert!(matches!(r, Err(Error::Internal(_))), "{r:?}");
                });
            }
        });
        assert!(computed.load(Ordering::Relaxed) >= 1);
        assert_eq!(c.stats().entries, 0);
        // The next lookup evaluates afresh rather than replaying the fault.
        let (r, o) = c.get_or_compute(5, || Ok(row("ok")));
        assert_eq!(o, Outcome::Computed);
        assert_eq!(r.unwrap().name, "ok");
    }

    #[test]
    fn concurrent_same_key_coalesces_onto_one_computation() {
        let c = EvictingCache::new(None);
        let computed = AtomicUsize::new(0);
        let gate = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    gate.wait();
                    let (r, _) = c.get_or_compute(9, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Hold the in-flight window open long enough for
                        // the other threads to join it.
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(row("shared"))
                    });
                    assert_eq!(r.unwrap().name, "shared");
                });
            }
        });
        assert_eq!(
            computed.load(Ordering::Relaxed),
            1,
            "exactly one thread computes; the rest coalesce or hit"
        );
        let s = c.stats();
        assert_eq!(s.hits + s.coalesced, 7);
    }

    #[test]
    fn publish_guard_unblocks_waiters_on_panic() {
        let c = EvictingCache::new(None);
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.get_or_compute(3, || {
                        std::thread::sleep(Duration::from_millis(30));
                        panic!("evaluation blew up")
                    })
                }));
            });
            std::thread::sleep(Duration::from_millis(10));
            let waiter = scope.spawn(|| c.get_or_compute(3, || Ok(row("late"))));
            let (r, _) = waiter.join().unwrap();
            // Either the waiter coalesced onto the panicked slot (an
            // internal fault) or arrived after cleanup and computed fresh —
            // both must return, never hang.
            match r {
                Ok(row) => assert_eq!(row.name, "late"),
                Err(e) => assert!(matches!(e, Error::Internal(_)), "{e}"),
            }
            panicker.join().unwrap();
        });
    }

    /// A key whose index the test picks, so distinct keys can share one.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Forced {
        index: u64,
        name: String,
    }

    impl CacheKey for Forced {
        fn index(&self) -> u64 {
            self.index
        }

        fn key_bytes(&self) -> usize {
            self.name.len()
        }
    }

    fn forced(index: u64, name: &str) -> Forced {
        Forced {
            index,
            name: name.into(),
        }
    }

    #[test]
    fn colliding_keys_miss_and_replace_each_other() {
        let c: EvictingCache<Forced, Result<DseRow>> = EvictingCache::with_capacity(None);
        let (a, _) = c.get_or_compute(forced(3, "a"), || Ok(row("a")));
        assert_eq!(a.unwrap().name, "a");
        // Same index, different key: never the resident's value.
        let (b, o) = c.get_or_compute(forced(3, "b"), || Ok(row("b")));
        assert_eq!((b.unwrap().name.as_str(), o), ("b", Outcome::Computed));
        let (b2, o) = c.get_or_compute(forced(3, "b"), || unreachable!());
        assert_eq!((b2.unwrap().name.as_str(), o), ("b", Outcome::Hit));
        let (a2, o) = c.get_or_compute(forced(3, "a"), || Ok(row("a")));
        assert_eq!((a2.unwrap().name.as_str(), o), ("a", Outcome::Computed));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.collisions), (1, 3, 2));
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 1 + row_cost(&row("a")), "the key is charged");
    }

    #[test]
    fn colliding_keys_in_flight_do_not_coalesce() {
        let c: EvictingCache<Forced, Result<DseRow>> = EvictingCache::with_capacity(None);
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            for name in ["left", "right"] {
                let (c, gate) = (&c, &gate);
                scope.spawn(move || {
                    gate.wait();
                    let (r, _) = c.get_or_compute(forced(5, name), || {
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(row(name))
                    });
                    assert_eq!(r.unwrap().name, name);
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.coalesced, 0);
        assert_eq!(s.misses, 2);
        assert!(s.collisions >= 1);
    }
}
