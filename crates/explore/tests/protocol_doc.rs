//! Executes `docs/PROTOCOL.md`: every JSON request line in the document
//! is extracted and replayed against an in-process stdio server, so the
//! worked examples cannot rot — a request the server would reject (or a
//! field the protocol no longer knows) fails this test, not a user's
//! first netcat session.
//!
//! Extraction is syntactic: any brace-balanced region of the document
//! that parses as a JSON object with a string `cmd` field is a request
//! (responses are recognizable by their `event` field and skipped;
//! response sketches with `...` placeholders do not parse at all). That
//! deliberately includes the Python example's request dict — it is valid
//! JSON and must stay valid.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::Server;
use adhls_reslib::tsmc90;

/// Every JSON object in `doc` with a string `cmd` field and no `event`
/// field, in document order.
fn extract_requests(doc: &str) -> Vec<String> {
    let bytes = doc.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        match balanced_object(&doc[i..]) {
            Some(len) => {
                let candidate = &doc[i..i + len];
                if let Ok(v) = Value::parse(candidate) {
                    let is_request =
                        v.get("cmd").and_then(Value::as_str).is_some() && v.get("event").is_none();
                    if is_request {
                        // Re-render compactly: the protocol is one request
                        // per line, and doc examples may span lines.
                        out.push(v.render());
                        i += len;
                        continue;
                    }
                }
                i += 1;
            }
            None => i += 1,
        }
    }
    out
}

/// Length of the brace-balanced prefix starting at `{`, honoring JSON
/// string literals and escapes; `None` if the braces never balance.
fn balanced_object(s: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + c.len_utf8());
                }
            }
            _ => {}
        }
    }
    None
}

#[test]
fn every_protocol_md_request_replays_against_the_server() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/PROTOCOL.md"
    ))
    .expect("docs/PROTOCOL.md is readable from the workspace");
    let requests = extract_requests(&doc);
    assert!(
        requests.len() >= 10,
        "PROTOCOL.md should carry a healthy example set, found {}: {requests:#?}",
        requests.len()
    );
    // Sanity: the document exercises every evaluation-bearing surface the
    // examples document.
    for needle in ["\"sweep\"", "\"refine\"", "\"stats\"", "\"shutdown\""] {
        assert!(
            requests.iter().any(|r| r.contains(needle)),
            "no {needle} example found in PROTOCOL.md"
        );
    }
    assert!(
        requests.iter().any(|r| r.contains("constraints")),
        "no constrained example found in PROTOCOL.md"
    );
    assert!(
        requests.iter().any(|r| r.contains(';')),
        "no multi-plane example found in PROTOCOL.md"
    );
    assert!(
        requests.iter().any(|r| r.contains("\"cancel\"")),
        "no cancel example found in PROTOCOL.md"
    );
    assert!(
        requests.iter().any(|r| r.contains("\"mode\":")),
        "no example of the removed `mode` field found in PROTOCOL.md"
    );

    // One pool for every replay: repeated doc examples over the same
    // grids answer from cache, like a long-lived `adhls serve` would.
    let srv = Server::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 0,
            skip_infeasible: true,
            ..Default::default()
        },
    ));
    for req in &requests {
        // A fresh connection per request: the `shutdown` example ends its
        // connection, and requests must not depend on connection state.
        let mut out = Vec::new();
        srv.serve_connection(format!("{req}\n").as_bytes(), &mut out)
            .unwrap_or_else(|e| panic!("serving doc example failed: {req}\n{e}"));
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let last = text
            .lines()
            .last()
            .unwrap_or_else(|| panic!("no response to doc example: {req}"));
        let v = Value::parse(last)
            .unwrap_or_else(|e| panic!("unparseable response to {req}: {last}\n{e}"));
        assert_eq!(
            v.get("event").and_then(Value::as_str),
            Some("result"),
            "doc example did not end in a terminal result: {req} -> {last}"
        );
        if req.contains("\"cmd\":\"cancel\"") {
            // On a fresh connection nothing is in flight, so the documented
            // cancel must answer with the documented *structured* error —
            // the live two-connection path is exercised by
            // `the_docs_cancel_example_aborts_an_in_flight_refine` below.
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{req} -> {last}");
            assert!(
                v.get("error")
                    .and_then(Value::as_str)
                    .is_some_and(|e| e.contains("no in-flight request")),
                "cancel with no target in flight must say so: {req} -> {last}"
            );
        } else if req.contains("\"mode\":") {
            // The removed `mode` field is refused with the documented
            // structured error, never silently ignored.
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{req} -> {last}");
            assert!(
                v.get("error")
                    .and_then(Value::as_str)
                    .is_some_and(|e| e.contains("`mode` was removed")),
                "a `mode` request must name the removal: {req} -> {last}"
            );
        } else {
            assert_eq!(
                v.get("ok"),
                Some(&Value::Bool(true)),
                "doc example was rejected by the server it documents: {req} -> {last}"
            );
        }
    }
}

/// Runs the document's cancel walkthrough as written: its `refine`
/// example streams on one connection while its `cancel` example fires
/// from a second, and both connections resolve exactly as the document
/// promises (for whichever way the race lands).
#[test]
fn the_docs_cancel_example_aborts_an_in_flight_refine() {
    use adhls_explore::server::worker::pipe;
    use std::io::{BufRead, BufReader, Write};
    use std::sync::Arc;

    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/PROTOCOL.md"
    ))
    .expect("docs/PROTOCOL.md is readable from the workspace");
    let requests = extract_requests(&doc);
    let cancel = requests
        .iter()
        .find(|r| r.contains("\"cmd\":\"cancel\""))
        .expect("PROTOCOL.md documents a cancel request");
    let target = Value::parse(cancel)
        .expect("doc cancel parses")
        .get("target")
        .expect("doc cancel names a target")
        .render();
    let refine = requests
        .iter()
        .find(|r| {
            r.contains("\"cmd\":\"refine\"")
                && Value::parse(r)
                    .ok()
                    .and_then(|v| v.get("id").map(Value::render))
                    == Some(target.clone())
        })
        .expect("the doc's cancel target is one of its refine examples");

    let srv = Arc::new(Server::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            ..Default::default()
        },
    )));
    let connect = |srv: &Arc<Server>| {
        let (req_tx, req_rx) = pipe();
        let (resp_tx, resp_rx) = pipe();
        let server = Arc::clone(srv);
        std::thread::spawn(move || {
            let _ = server.serve_connection(BufReader::new(req_rx), resp_tx);
        });
        (req_tx, BufReader::new(resp_rx))
    };

    let (mut refine_tx, mut refine_rx) = connect(&srv);
    refine_tx
        .write_all(format!("{refine}\n").as_bytes())
        .expect("refine request");
    let mut first = String::new();
    refine_rx.read_line(&mut first).expect("first round event");
    assert!(
        first.contains("\"event\":\"round\""),
        "refine streams: {first}"
    );

    let (mut cancel_tx, mut cancel_rx) = connect(&srv);
    cancel_tx
        .write_all(format!("{cancel}\n").as_bytes())
        .expect("cancel request");
    let mut ack = String::new();
    cancel_rx.read_line(&mut ack).expect("cancel response");
    let ack = Value::parse(ack.trim_end()).expect("cancel ack is JSON");

    let terminal = loop {
        let mut line = String::new();
        assert_ne!(
            refine_rx.read_line(&mut line).expect("refine stream"),
            0,
            "refine connection closed without a terminal result"
        );
        if line.contains("\"event\":\"result\"") {
            break line;
        }
    };
    assert!(
        terminal.contains("\"ok\":true"),
        "refine result: {terminal}"
    );
    if ack.get("ok") == Some(&Value::Bool(true)) {
        // The documented happy path: acknowledged on one connection,
        // truncated-but-valid on the other.
        assert_eq!(ack.get("cmd").and_then(Value::as_str), Some("cancel"));
        assert!(
            terminal.contains("\"cancelled\":true"),
            "an acknowledged cancel must truncate the refine: {terminal}"
        );
    } else {
        // The documented race loss: the refinement finished first.
        assert!(
            ack.get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains("no in-flight request")),
            "losing the race must yield the documented error: {ack:?}"
        );
        assert!(!terminal.contains("\"cancelled\":true"));
    }
}

#[test]
fn extraction_sees_requests_and_skips_responses() {
    let doc = r#"
request: {"id":1,"cmd":"ping"}
multi-line python:
    req = {"id": 2, "cmd": "stats",
           "note": "still one object"}
a response (skipped): {"id":1,"event":"result","ok":true,"cmd":"ping"}
a sketch (unparseable, skipped): {"id":1,"cmd":"sweep","rows":[...]}
"#;
    let reqs = extract_requests(doc);
    assert_eq!(reqs.len(), 2, "{reqs:#?}");
    assert!(reqs[0].contains("ping"));
    assert!(reqs[1].contains("stats"));
}
