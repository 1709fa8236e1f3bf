//! Loopback round trips through the TCP transport both serve front-ends
//! share. A response line must leave in one write: when a line and its
//! newline go out as two segments, Nagle's algorithm holds the second
//! until the client acknowledges the first, and the client — waiting for
//! the rest of the line, with nothing to send — delays that ACK (≈40 ms on
//! Linux). Sequential request/response traffic over one connection is
//! exactly where that stall shows, so 60 round trips in well under a
//! second pin the single-pool server and the router alike.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::{in_process_factory, Router, RouterOptions, Server};
use adhls_reslib::tsmc90;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SWEEP: &str =
    r#"{"id":"s","cmd":"sweep","workload":"interpolation","clocks":[1100,1400],"cycles":[3,4]}"#;

/// Well above the round trips' own cost, well below one delayed ACK each.
const BOUND: Duration = Duration::from_secs(1);

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

/// One client connection sending one request at a time, as a closed-loop
/// client does: the request in one write, then its response line.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("request write");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("response read");
        resp
    }
}

/// 50 `ping`s and 10 repeats of a warm sweep over one connection; returns
/// their wall time and every response, after shutting the server down.
fn drive(addr: SocketAddr) -> (Duration, Vec<String>) {
    let mut client = Client::connect(addr);
    // Untimed: the first sweep evaluates its cells; the repeats hit the
    // cache, so the timed loop measures the transport, not HLS.
    let mut responses = vec![client.roundtrip(SWEEP)];
    let started = Instant::now();
    for i in 0..50 {
        responses.push(client.roundtrip(&format!("{{\"id\":{i},\"cmd\":\"ping\"}}")));
    }
    for _ in 0..10 {
        responses.push(client.roundtrip(SWEEP));
    }
    let elapsed = started.elapsed();
    client.roundtrip(r#"{"cmd":"shutdown"}"#);
    (elapsed, responses)
}

fn assert_fast_and_ok(who: &str, elapsed: Duration, responses: &[String]) {
    assert_eq!(responses.len(), 61);
    for resp in responses {
        let v = Value::parse(resp.trim_end()).expect("response is JSON");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{resp}");
    }
    assert!(
        elapsed < BOUND,
        "{who}: 60 sequential round trips took {elapsed:?} (bound {BOUND:?}); \
         a response line is being split across segments"
    );
}

#[test]
fn the_single_pool_server_answers_sequential_requests_without_stalling() {
    let server = Server::new(pool());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (elapsed, responses) = std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_tcp(&listener));
        let driven = drive(addr);
        serve.join().expect("serve thread").expect("serve_tcp");
        driven
    });
    assert_fast_and_ok("Server::serve_tcp", elapsed, &responses);
}

#[test]
fn the_router_answers_sequential_requests_without_stalling() {
    let router = Router::new(
        in_process_factory(|_| pool()),
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (elapsed, responses) = std::thread::scope(|scope| {
        let serve = scope.spawn(|| router.serve_tcp(&listener));
        let driven = drive(addr);
        serve.join().expect("serve thread").expect("serve_tcp");
        driven
    });
    assert_fast_and_ok("Router::serve_tcp", elapsed, &responses);
}
