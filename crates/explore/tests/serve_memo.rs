//! The serve tier's spec memos: each distinct spec expands once per
//! process, and nothing a client sees changes. A spec differing from a
//! memoized one in any field expansion reads misses the memo and is
//! answered exactly as a fresh server answers it; specs differing only in
//! per-request fields share one expansion. The memo stays inside its byte
//! budget under a stream of distinct inline designs, a `refine` builds one
//! design per latency budget and a repeat, or a refine over other clocks,
//! builds none, and the router computes each spec's routing key once.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::memo::EXPANSION_BUDGET;
use adhls_explore::server::{in_process_factory, Router, RouterOptions, Server};
use adhls_reslib::tsmc90;
use adhls_telemetry::Snapshot;
use std::collections::HashSet;

fn pool() -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            ..Default::default()
        },
    )
}

/// A server whose row cache keeps nothing, so the memos are the only state
/// one request leaves for the next, and a response reports the same
/// `cache_hits` a fresh server's does.
fn memo_only_server() -> Server {
    Server::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            cache_bytes: Some(0),
        },
    ))
}

fn respond(srv: &Server, line: &str) -> String {
    let mut out = Vec::new();
    srv.handle_line(line, &mut out).expect("in-memory response");
    String::from_utf8(out).expect("responses are UTF-8")
}

/// What a server that has never seen any spec answers.
fn fresh(line: &str) -> String {
    respond(&Server::new(pool()), line)
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name)
        .unwrap_or_else(|| panic!("{name} missing"))
}

fn gauge(snap: &Snapshot, name: &str) -> usize {
    usize::try_from(snap.gauge(name).unwrap_or_else(|| panic!("{name} missing")))
        .expect("a byte or entry gauge is never negative")
}

/// A sweep request over an inline DSL source.
fn dsl_sweep(source: &str, fields: &str) -> String {
    let mut line = String::from(r#"{"cmd":"sweep","dsl":"#);
    adhls_core::json::escape_into(&mut line, source);
    line.push_str(fields);
    line.push('}');
    line
}

const RESIZER: &str = include_str!("../../../examples/dsl/resizer.adhls");

#[test]
fn every_key_field_misses_and_every_per_request_field_hits() {
    let srv = memo_only_server();
    let base = r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4]}"#;
    let dsl_base = dsl_sweep(RESIZER, r#","clocks":[2000]"#);
    let mut lines: Vec<(String, bool)> = vec![(base.into(), false), (dsl_base.clone(), false)];
    // One line per key field the wire carries (`dsl_prefix` is CLI-only;
    // the memo's unit tests cover it), each differing from a base in that
    // field alone.
    let misses = [
        r#"{"cmd":"sweep","workload":"interp","clocks":[1400],"cycles":[4]}"#.to_string(),
        dsl_sweep(&RESIZER.replace("+ 3", "+ 4"), r#","clocks":[2000]"#),
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1800],"cycles":[4]}"#.into(),
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[6]}"#.into(),
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"pipeline":[null]}"#.into(),
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"dim":2}"#.into(),
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"count":3}"#.into(),
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"seed":9}"#.into(),
    ];
    lines.extend(misses.into_iter().map(|l| (l, false)));
    // Per-request fields: the same expansion serves them all.
    let hits = [
        r#"{"id":7,"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4]}"#,
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"objectives":"area,latency"}"#,
        r#"{"cmd":"sweep","workload":"interpolation","clocks":[1400],"cycles":[4],"constraints":["area<=100000"]}"#,
    ];
    lines.extend(hits.into_iter().map(|l| (l.to_string(), true)));
    lines.push((dsl_sweep(RESIZER, r#","clocks":[2000],"id":"again""#), true));
    for (line, hit) in &lines {
        let before = srv.metrics_snapshot();
        let got = respond(&srv, line);
        let after = srv.metrics_snapshot();
        let (h, m) = ("memo.expand.hits", "memo.expand.misses");
        assert_eq!(
            (
                counter(&after, h) - counter(&before, h),
                counter(&after, m) - counter(&before, m)
            ),
            if *hit { (1, 0) } else { (0, 1) },
            "{line}"
        );
        assert!(got.contains(r#""ok":true"#), "{got}");
        assert_eq!(got, fresh(line), "{line}");
    }
    assert_eq!(
        counter(&srv.metrics_snapshot(), "memo.expand.collisions"),
        0
    );
}

#[test]
fn expansion_errors_are_recomputed_verbatim() {
    let srv = Server::new(pool());
    let bad = r#"{"id":1,"cmd":"sweep","workload":"warp"}"#;
    let first = respond(&srv, bad);
    assert!(first.contains("unknown workload"), "{first}");
    assert_eq!(respond(&srv, bad), first);
    let snap = srv.metrics_snapshot();
    assert_eq!(counter(&snap, "memo.expand.misses"), 2);
    assert_eq!(gauge(&snap, "memo.expand.entries"), 0);
}

#[test]
fn memo_bytes_stay_within_budget_under_distinct_designs() {
    let srv = memo_only_server();
    // ~120 KB of comment per source: 200 of them overflow the budget
    // several times over, so entries must be evicted along the way.
    let padding = "// padding\n".repeat(11_000);
    for i in 0..200 {
        let source = format!("// design {i}\n{padding}{RESIZER}");
        let line = dsl_sweep(&source, r#","clocks":[2000]"#);
        let got = respond(&srv, &line);
        assert!(got.contains(r#""ok":true"#), "{got}");
        let snap = srv.metrics_snapshot();
        let bytes = gauge(&snap, "memo.expand.bytes");
        assert!(bytes <= EXPANSION_BUDGET, "{bytes} bytes after request {i}");
    }
    let snap = srv.metrics_snapshot();
    assert!(counter(&snap, "memo.expand.evictions") > 0, "{snap:?}");
    assert!(gauge(&snap, "memo.expand.entries") < 200);

    // A source bigger than a shard's slice of the budget is answered like
    // any other, but not kept.
    let giant = format!("{}{RESIZER}", "// giant\n".repeat(150_000));
    assert!(giant.len() > EXPANSION_BUDGET / 16);
    let line = dsl_sweep(&giant, r#","clocks":[2000]"#);
    let before = srv.metrics_snapshot();
    let got = respond(&srv, &line);
    assert_eq!(got, fresh(&line));
    let after = srv.metrics_snapshot();
    for g in ["memo.expand.entries", "memo.expand.bytes"] {
        assert_eq!(gauge(&after, g), gauge(&before, g), "{g}");
    }
    assert_eq!(
        counter(&after, "memo.expand.evictions"),
        counter(&before, "memo.expand.evictions") + 1
    );
}

/// The names of the cells a refine `result` line evaluated: its rows and
/// the cells it skipped.
fn evaluated_cells(result: &str) -> Vec<String> {
    let v = Value::parse(result.lines().last().expect("a result line")).unwrap();
    let names = |field: &str| -> Vec<String> {
        let Some(Value::Arr(items)) = v.get(field) else {
            panic!("no `{field}` array");
        };
        items
            .iter()
            .map(|item| match item {
                Value::Arr(pair) => pair[0].as_str().unwrap().to_string(),
                row => row.get("name").and_then(Value::as_str).unwrap().to_string(),
            })
            .collect()
    };
    let mut cells = names("rows");
    cells.extend(names("skipped"));
    cells
}

/// The designs of refine cells: a design depends on its cell's cycles
/// and II, never its clock (`-c<ps>` in a cell's name).
fn designs_of(cells: &[String]) -> HashSet<String> {
    cells
        .iter()
        .map(|name| {
            let parts: Vec<&str> = name.split('-').filter(|p| !p.starts_with('c')).collect();
            parts.join("-")
        })
        .collect()
}

#[test]
fn a_repeated_refine_builds_no_cell_design() {
    let srv = Server::new(pool());
    let line = r#"{"id":1,"cmd":"refine","workload":"interpolation","clocks":[1100,1400,1800,2400],"cycles":[3,4,6],"gap_tol":0.0}"#;
    let first = respond(&srv, line);
    // One build per distinct (cycles, II) pair.
    let cells = evaluated_cells(&first);
    let mut designs = designs_of(&cells);
    let built = counter(&srv.metrics_snapshot(), "memo.cell.misses");
    assert_eq!(built, designs.len() as u64, "{cells:?}");
    assert!(cells.len() > designs.len(), "clocks share designs");
    let second = respond(&srv, line);
    assert_eq!(second, first);
    assert_eq!(first, fresh(line));
    let snap = srv.metrics_snapshot();
    assert_eq!(
        counter(&snap, "memo.cell.misses"),
        built,
        "a cell was rebuilt"
    );
    // Every other cell of both refines found its design.
    assert_eq!(
        counter(&snap, "memo.cell.hits"),
        2 * cells.len() as u64 - built
    );
    // A refine over other clocks builds only the designs of budgets no
    // earlier refine evaluated.
    let shifted = r#"{"id":2,"cmd":"refine","workload":"interpolation","clocks":[1130,1430,1830,2430],"cycles":[3,4,6],"gap_tol":0.0}"#;
    let third = respond(&srv, shifted);
    assert_eq!(third, fresh(shifted));
    let shifted_cells = evaluated_cells(&third);
    designs.extend(designs_of(&shifted_cells));
    let snap = srv.metrics_snapshot();
    assert_eq!(
        counter(&snap, "memo.cell.misses"),
        designs.len() as u64,
        "{shifted_cells:?}"
    );
    assert_eq!(
        counter(&snap, "memo.cell.hits"),
        (2 * cells.len() + shifted_cells.len()) as u64 - designs.len() as u64
    );
}

#[test]
fn a_routed_repeat_expands_and_routes_once() {
    let router = Router::new(
        in_process_factory(|_| pool()),
        RouterOptions {
            workers: 2,
            ..RouterOptions::default()
        },
    )
    .expect("in-process workers spawn");
    let line = r#"{"id":1,"cmd":"sweep","workload":"random","count":2,"seed":11}"#;
    let mut out = Vec::new();
    router.handle_line(line, &mut out).unwrap();
    router.handle_line(line, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let results: Vec<&str> = text.lines().collect();
    assert_eq!(results.len(), 2);
    // The repeat is a row-cache hit, so only `cache_hits` may differ.
    let strip = |l: &str| {
        let at = l.find(r#""cache_hits":"#).expect("a sweep result");
        let end = at + l[at..].find(',').expect("more fields follow");
        format!("{}{}", &l[..at], &l[end..])
    };
    assert_eq!(strip(results[0]), strip(results[1]));
    let snap = router.metrics_snapshot();
    assert_eq!(counter(&snap, "memo.expand.misses"), 1);
    assert_eq!(counter(&snap, "memo.expand.hits"), 1);
    assert_eq!(counter(&snap, "memo.route.misses"), 1);
    assert_eq!(counter(&snap, "memo.route.hits"), 1);
    assert_eq!(
        snap.histogram("router.route").map(|h| h.count),
        Some(2),
        "{snap:?}"
    );
}
