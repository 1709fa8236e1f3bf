//! Reconciliation of the router's aggregated observability surfaces: the
//! `stats`/`metrics` verbs answered by a router must combine every
//! worker's pool and cache counters exactly once, count each client
//! request exactly once (never router + worker double-counting), and
//! keep the wire rendering consistent with the in-process snapshot —
//! the multi-worker sibling of `telemetry_equivalence.rs`.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::worker::{WorkerFactory, WorkerHandle};
use adhls_explore::server::{Router, RouterOptions, Server};
use adhls_reslib::tsmc90;
use std::sync::{Arc, Mutex};

const REFINE_A: &str = r#"{"id":1,"cmd":"refine","workload":"interpolation","clocks":[1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[3,4,5,6],"gap_tol":0.0}"#;
const REFINE_B: &str = r#"{"id":2,"cmd":"refine","workload":"idct","clocks":[2200,2600,3000],"cycles":[12,16,20,24],"gap_tol":0.0}"#;

/// A factory that also hands the test a reference to every worker's
/// [`Server`], so worker-side counters can be read directly instead of
/// trusting the aggregate being tested.
fn observed_factory() -> (WorkerFactory, Arc<Mutex<Vec<Arc<Server>>>>) {
    let servers: Arc<Mutex<Vec<Arc<Server>>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = Arc::clone(&servers);
    let factory: WorkerFactory = Box::new(move |_idx| {
        let server = Arc::new(Server::new(EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                skip_infeasible: true,
                ..Default::default()
            },
        )));
        captured
            .lock()
            .expect("capture lock")
            .push(Arc::clone(&server));
        Ok(WorkerHandle::in_process(server))
    });
    (factory, servers)
}

fn route_one(router: &Router, line: &str) -> String {
    let mut out = Vec::new();
    router.handle_line(line, &mut out).expect("routed request");
    String::from_utf8(out).expect("responses are UTF-8")
}

fn wire_counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn wire_gauge(metrics: &Value, name: &str) -> i64 {
    metrics
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Value::as_f64)
        .map_or(0, |v| v as i64)
}

#[test]
fn aggregated_metrics_sum_workers_once_and_count_requests_once() {
    let (factory, servers) = observed_factory();
    let router = Router::new(
        factory,
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");

    // Work through the router: two distinct refines (distinct fingerprints,
    // so potentially distinct shards), one repeated refine (a warm-cache
    // replay inside whichever worker owns that shard), and a ping.
    for line in [REFINE_A, REFINE_B, REFINE_A, r#"{"id":3,"cmd":"ping"}"#] {
        let resp = route_one(&router, line);
        assert!(
            resp.trim_end()
                .lines()
                .last()
                .is_some_and(|l| l.contains("\"ok\":true")),
            "request failed: {line}\n{resp}"
        );
    }

    // The wire surface under test.
    let resp = route_one(&router, r#"{"id":9,"cmd":"metrics"}"#);
    let doc = Value::parse(resp.trim_end()).expect("metrics response is JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    let metrics = doc.get("metrics").expect("metrics payload");

    // Request accounting comes from the router alone: 4 prior requests
    // plus the metrics request itself — even though each routed request
    // was *also* counted by the worker that served it.
    assert_eq!(wire_counter(metrics, "serve.requests"), 5);
    // serve.ok is settled for the 4 prior requests only (the metrics
    // request's own outcome is recorded after rendering).
    assert_eq!(wire_counter(metrics, "serve.ok"), 4);
    assert_eq!(wire_gauge(metrics, "serve.workers"), 2);

    // Pool and cache traffic exists only inside workers; the aggregate
    // must equal the directly-read per-worker sum — exactly once each.
    let workers = servers.lock().expect("capture lock");
    assert_eq!(workers.len(), 2, "both slots spawned exactly once");
    for name in ["pool.points", "pool.batches", "cache.hits", "cache.misses"] {
        let direct: u64 = workers
            .iter()
            .map(|w| w.metrics_snapshot().counter(name).unwrap_or(0))
            .sum();
        assert_eq!(
            wire_counter(metrics, name),
            direct,
            "aggregated `{name}` must equal the per-worker sum"
        );
    }
    let total_points = wire_counter(metrics, "pool.points");
    assert!(total_points > 0, "refines must have evaluated points");
    let hits = wire_counter(metrics, "cache.hits");
    assert!(
        hits > 0,
        "replaying a refine against the same shard must hit its warm cache"
    );

    // Worker-side request accounting must NOT leak into the aggregate:
    // each worker counted its served refines under serve.ok, and summing
    // those on top of the router's own would overshoot.
    let worker_ok: u64 = workers
        .iter()
        .map(|w| w.metrics_snapshot().counter("serve.ok").unwrap_or(0))
        .sum();
    assert!(worker_ok >= 3, "workers saw the routed refines");
    assert_eq!(
        wire_counter(metrics, "serve.ok"),
        4,
        "aggregate serve.ok must stay the router's own count, not {} + {worker_ok}",
        4
    );
}

/// Worker histograms merge bucket by bucket: every span shares one bucket
/// ladder, so the routed `metrics` verb can report `pipeline.*` and
/// `pool.*` timing that equals the per-worker sums exactly, while worker
/// `serve.request.*` spans stay dropped in favour of the router's own.
#[test]
fn aggregated_histograms_equal_per_worker_bucket_sums() {
    let (factory, servers) = observed_factory();
    let router = Router::new(
        factory,
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");
    for line in [REFINE_A, REFINE_B, REFINE_A] {
        route_one(&router, line);
    }
    let resp = route_one(&router, r#"{"id":9,"cmd":"metrics"}"#);
    let doc = Value::parse(resp.trim_end()).expect("metrics response is JSON");
    let histograms = doc
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .expect("histograms payload");

    let workers = servers.lock().expect("capture lock");
    let snaps: Vec<_> = workers.iter().map(|w| w.metrics_snapshot()).collect();
    let mut checked = 0;
    for name in [
        "pipeline.evaluate",
        "pipeline.schedule",
        "pipeline.bind",
        "pool.batch.submit_to_done_us",
    ] {
        let parts: Vec<_> = snaps.iter().filter_map(|s| s.histogram(name)).collect();
        assert!(!parts.is_empty(), "workers recorded no `{name}`");
        let wire = histograms
            .get(name)
            .unwrap_or_else(|| panic!("aggregate lacks `{name}`"));
        let count: u64 = parts.iter().map(|h| h.count).sum();
        assert_eq!(
            wire.get("count").and_then(Value::as_u64),
            Some(count),
            "`{name}` count must equal the per-worker sum"
        );
        let buckets: Vec<u64> = (0..parts[0].counts.len())
            .map(|i| parts.iter().map(|h| h.counts[i]).sum())
            .collect();
        let wire_buckets: Vec<u64> = wire
            .get("counts")
            .and_then(Value::as_arr)
            .expect("bucket counts")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(wire_buckets, buckets, "`{name}` buckets must add up");
        checked += 1;
    }
    assert_eq!(checked, 4);

    // The router times each routed refine once; the workers' own
    // `serve.request.refine` samples are not added on top.
    let refines = histograms
        .get("serve.request.refine")
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64);
    assert_eq!(refines, Some(3));
}

#[test]
fn stats_through_the_router_reports_the_summed_cache() {
    let (factory, servers) = observed_factory();
    let router = Router::new(
        factory,
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");

    for line in [REFINE_A, REFINE_B, REFINE_A] {
        route_one(&router, line);
    }
    let resp = route_one(&router, r#"{"id":"s","cmd":"stats"}"#);
    let doc = Value::parse(resp.trim_end()).expect("stats response is JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    let stats = doc.get("stats").expect("stats payload");

    let workers = servers.lock().expect("capture lock");
    for (field, counter) in [("hits", "cache.hits"), ("misses", "cache.misses")] {
        let direct: u64 = workers
            .iter()
            .map(|w| w.metrics_snapshot().counter(counter).unwrap_or(0))
            .sum();
        assert_eq!(
            stats.get(field).and_then(Value::as_u64),
            Some(direct),
            "stats `{field}` must be the cross-worker sum"
        );
    }
    assert_eq!(
        stats.get("requests").and_then(Value::as_u64),
        Some(4),
        "stats requests is the router's own count (3 refines + stats itself)"
    );
}

/// The Prometheus exposition listener renders the same aggregate: the
/// scrape must carry summed worker cache counters and the router's
/// worker gauge.
#[test]
fn the_exposition_listener_serves_the_aggregate() {
    use std::io::{Read, Write};

    let (factory, _servers) = observed_factory();
    let router = Arc::new(
        Router::new(
            factory,
            RouterOptions {
                workers: 2,
                ..Default::default()
            },
        )
        .expect("router spawns"),
    );
    route_one(&router, REFINE_A);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let srv = Arc::clone(&router);
    let handle = std::thread::spawn(move || {
        let _ = srv.serve_metrics(&listener);
    });

    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    conn.read_to_string(&mut body).expect("response");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "scrape failed: {body}");
    assert!(
        body.contains("adhls_serve_workers 2"),
        "scrape must carry the live-worker gauge:\n{body}"
    );
    assert!(
        body.contains("adhls_pool_points"),
        "scrape must carry aggregated worker pool counters:\n{body}"
    );

    router.request_shutdown();
    let _ = handle.join();
}
