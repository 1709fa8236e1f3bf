//! `adhls serve` request throughput against one shared pool.
//!
//! Drives the session layer directly through in-memory reader/writer pairs
//! (no sockets — this measures dispatch + evaluation + rendering, not the
//! kernel's TCP stack): protocol-only requests (`stats`), warm-cache
//! sweeps (every point a cache hit), a warm sweep whose grid includes
//! overconstrained cells (their failures are cached too, so a repeat
//! replays them instead of re-running the scheduler until it gives up),
//! and warm adaptive refinements. The cold path is the same HLS work
//! `explore_parallel` already tracks.
//!
//! The `serve/concurrent_refines_*` pair is the multi-worker acceptance
//! comparison: a fixed working set of concurrent refinements against one
//! single-pool worker vs a router over two workers of the **same
//! configuration** — same requests, bit-identical responses, throughput
//! scaling with the aggregate warm-cache capacity the extra worker
//! brings.

use adhls_core::sched::HlsOptions;
use adhls_explore::fingerprint::Fnv;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::protocol::parse_request;
use adhls_explore::server::{
    in_process_factory, routing_fingerprint, Command, Router, RouterOptions, Server,
};
use adhls_reslib::tsmc90;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const SWEEP_REQ: &str = "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
                         \"clocks\":[1100,1400,1800,2400],\"cycles\":[3,4,6]}\n";
const REFINE_REQ: &str = "{\"id\":2,\"cmd\":\"refine\",\"workload\":\"interpolation\",\
                          \"clocks\":[1100,1250,1400,1800,2400],\"cycles\":[3,4,6],\
                          \"gap_tol\":0.1}\n";
const STATS_REQ: &str = "{\"id\":3,\"cmd\":\"stats\"}\n";
/// Three of its nine cells are overconstrained (900 ps at 2 and 3 cycles,
/// 1100 ps at 2 cycles) and come back in `skipped`.
const FAILING_SWEEP_REQ: &str = "{\"id\":4,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
                                 \"clocks\":[900,1100,1400],\"cycles\":[2,3,4]}\n";

fn roundtrip(server: &Server, req: &str) -> usize {
    let mut out = Vec::new();
    server
        .serve_connection(req.as_bytes(), &mut out)
        .expect("in-memory serve");
    out.len()
}

fn bench(c: &mut Criterion) {
    let _metrics = adhls_bench::metrics_dump("serve_throughput");
    // The server always meters its pool (Server::new enables the
    // registry), so handing it the global one costs nothing extra and
    // lets a recording run dump the serve-tier histograms.
    let server = Server::new(EvaluatorPool::with_telemetry(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 0,
            skip_infeasible: true,
            cache_bytes: Some(32 << 20),
        },
        adhls_telemetry::global().clone(),
    ));
    // Warm the cache: after this, sweep/refine requests measure the serve
    // overhead on top of pure cache hits — the steady state of a long-
    // lived server answering popular grids.
    roundtrip(&server, SWEEP_REQ);
    roundtrip(&server, REFINE_REQ);
    let mut warm = Vec::new();
    server
        .serve_connection(FAILING_SWEEP_REQ.as_bytes(), &mut warm)
        .expect("in-memory serve");
    assert!(
        String::from_utf8_lossy(&warm).contains("\"skipped\":[[\"interp-c900-l2\""),
        "the failing sweep no longer has overconstrained cells"
    );

    c.bench_function("serve/stats_protocol_only", |b| {
        b.iter(|| black_box(roundtrip(&server, STATS_REQ)));
    });
    c.bench_function("serve/sweep_warm_cache", |b| {
        b.iter(|| black_box(roundtrip(&server, SWEEP_REQ)));
    });
    c.bench_function("serve/refine_warm_cache", |b| {
        b.iter(|| black_box(roundtrip(&server, REFINE_REQ)));
    });
    let misses = || server.metrics_snapshot().counter("cache.misses");
    let before = misses();
    c.bench_function("serve/warm_sweep_with_failures", |b| {
        b.iter(|| black_box(roundtrip(&server, FAILING_SWEEP_REQ)));
    });
    assert_eq!(
        misses(),
        before,
        "a warm repeat re-ran an overconstrained cell"
    );
    // --- Multi-worker comparison -------------------------------------
    //
    // The scaling unit is a whole worker (one pool, one result-cache
    // shard), so both sides use identical single-thread worker pools: the
    // baseline is one worker's server, the contender a router sharding
    // over two. The load is a fixed working set of eight refinement
    // grids, driven concurrently every iteration, with each worker's
    // cache budget sized by a calibration pass to hold ~70% of the full
    // set: one worker alone cycles its LRU and re-runs most of the HLS
    // work each pass, while two rendezvous shards each hold their half
    // warm. The pair therefore measures the router's *aggregate cache*
    // scaling — a benefit that (unlike raw CPU parallelism) shows up
    // even on a single-core runner; responses stay bit-identical
    // throughout, since eviction never changes rows.
    // Routing hashes the *design* fingerprint, and IDCT bakes its cycle
    // budget into the design — so distinct leading `cycles` values are
    // what spreads these grids across the shards. IDCT is also the right
    // load here because its cells are expensive enough that an evicted
    // entry costs real recomputation, not just a relay round trip.
    // Disjoint cycle windows: no cell is shared between requests, so the
    // per-request cache footprints measured below partition exactly into
    // the two shards.
    let working_set: Vec<String> = (0..8u64)
        .map(|i| {
            format!(
                "{{\"id\":{},\"cmd\":\"refine\",\"workload\":\"idct\",\
                 \"clocks\":[2200,3000],\"cycles\":[{},{},{}],\"gap_tol\":0.5}}",
                i + 1,
                12 + 3 * i,
                13 + 3 * i,
                14 + 3 * i,
            )
        })
        .collect();
    // Which of the two shards each request lands on (the router's own
    // rendezvous placement, recomputed here to size the cache budgets).
    let slot_of = |line: &str| -> usize {
        let Ok(Command::Refine { ref spec, .. }) = parse_request(line).1 else {
            panic!("working-set line is a refine request")
        };
        let key = routing_fingerprint(spec).expect("working-set spec fingerprints");
        (0..2usize)
            .max_by_key(|&i| {
                let mut h = Fnv::default();
                h.u64(key).u64(i as u64);
                (h.digest(), i)
            })
            .expect("two slots")
    };
    // Calibration: run the set against an unbounded pool and read each
    // request's cache footprint off the `cache.bytes` gauge.
    let probe = Server::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            cache_bytes: None,
        },
    ));
    let mut shard_bytes = [0i64; 2];
    let mut prev = 0i64;
    for req in &working_set {
        roundtrip(&probe, &format!("{req}\n"));
        let bytes = probe
            .metrics_snapshot()
            .gauge("cache.bytes")
            .expect("probe cache gauge");
        shard_bytes[slot_of(req)] += bytes - prev;
        prev = bytes;
    }
    // Per-worker budget: the larger shard plus slack fits warm, but one
    // worker alone is well over budget and must evict.
    let budget = (shard_bytes[0].max(shard_bytes[1]) * 140 / 100) as usize;
    assert!(
        (budget as i64) * 10 < (shard_bytes[0] + shard_bytes[1]) * 9,
        "working set no longer overflows one worker's cache \
         (shards {shard_bytes:?}, budget {budget}); rebalance the grids"
    );
    let worker_pool = move || {
        EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                skip_infeasible: true,
                cache_bytes: Some(budget),
            },
        )
    };
    let drive = |handle: &(dyn Fn(&str) -> usize + Sync), reqs: &[String]| -> usize {
        std::thread::scope(|scope| {
            let handles: Vec<_> = reqs
                .iter()
                .map(|req| scope.spawn(move || handle(req)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).sum()
        })
    };

    let single = Server::new(worker_pool());
    c.bench_function("serve/concurrent_refines_1worker", |b| {
        b.iter(|| {
            let handle = |req: &str| -> usize {
                let mut out = Vec::new();
                single
                    .handle_line(req, &mut out)
                    .expect("single-pool serve");
                out.len()
            };
            black_box(drive(&handle, &working_set))
        });
    });

    let router = Router::new(
        in_process_factory(move |_idx| worker_pool()),
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");
    c.bench_function("serve/concurrent_refines_2workers", |b| {
        b.iter(|| {
            let handle = |req: &str| -> usize {
                let mut out = Vec::new();
                router.handle_line(req, &mut out).expect("routed serve");
                out.len()
            };
            black_box(drive(&handle, &working_set))
        });
    });

    c.bench_function("serve/sweep_cold_pool", |b| {
        b.iter(|| {
            // A fresh pool per iteration: the cold-start cost a first
            // request pays, for comparison with the warm path above.
            let cold = Server::new(EvaluatorPool::new(
                tsmc90::library(),
                HlsOptions::default(),
                PoolOptions {
                    threads: 0,
                    skip_infeasible: true,
                    cache_bytes: Some(32 << 20),
                },
            ));
            black_box(roundtrip(&cold, SWEEP_REQ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
