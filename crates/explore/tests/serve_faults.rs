//! Fault-injection drills for the multi-worker router: rigged worker
//! backends are killed, stalled, made to emit garbage mid-stream, or
//! refused respawn, and in every case the client must still receive the
//! exact byte stream a direct single-pool server would have produced —
//! the router's retry/respawn/reassign machinery may not leak a fault
//! into rows, rounds, or framing.
//!
//! The rig wraps a *real* in-process worker's data links, so everything
//! downstream of the fault (respawned workers, reassigned slots) runs
//! the genuine protocol; only the failure itself is scripted.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::fingerprint::Fnv;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::protocol::parse_request;
use adhls_explore::server::worker::{WorkerFactory, WorkerGuard, WorkerHandle, WorkerLink};
use adhls_explore::server::{routing_fingerprint, Command, Router, RouterOptions, Server};
use adhls_reslib::tsmc90;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A multi-round refinement — the axes are long enough that the seed
/// (first/middle/last per axis) covers only part of the grid, so closing
/// every gap takes several streamed rounds; interpolation keeps each
/// evaluation cheap.
const REFINE: &str = r#"{"id":1,"cmd":"refine","workload":"interpolation","clocks":[1100,1175,1250,1325,1400,1500,1650,1800],"cycles":[3,4,5,6],"gap_tol":0.0}"#;

fn fresh_pool() -> EvaluatorPool {
    EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 2,
            skip_infeasible: true,
            ..Default::default()
        },
    )
}

/// The reference byte stream: the same request against a direct
/// single-pool server.
fn direct_response(line: &str) -> String {
    let srv = Server::new(fresh_pool());
    let mut out = Vec::new();
    srv.serve_connection(format!("{line}\n").as_bytes(), &mut out)
        .expect("direct serve");
    String::from_utf8(out).expect("responses are UTF-8")
}

fn route_one(router: &Router, line: &str) -> String {
    let mut out = Vec::new();
    router.handle_line(line, &mut out).expect("routed request");
    String::from_utf8(out).expect("responses are UTF-8")
}

/// A scripted failure for one spawned worker generation.
enum Rig {
    /// Behave like a real worker.
    Clean,
    /// Pass through `n` response lines, then claim EOF (a killed worker).
    KillAfter(usize),
    /// Pass through `n` response lines, then emit a non-protocol line.
    GarbageAfter(usize),
    /// Pass through `n` response lines, then report a receive timeout (a
    /// wedged worker, as the router's recv timeout would surface it).
    StallAfter(usize),
    /// The factory itself fails (respawn impossible).
    SpawnFail,
    /// Park the first receive on `Gate` until the test releases it, then
    /// claim EOF — holds a request in flight for backpressure drills.
    Blocked(Arc<Gate>),
}

/// Coordination for [`Rig::Blocked`]: the link reports when it is parked
/// and stays parked until the test releases it.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>, // (blocked, released)
    cv: Condvar,
}

impl Gate {
    fn park(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 = true;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn await_parked(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 = true;
        self.cv.notify_all();
    }
}

/// A real worker data link with a scripted fault layered on top. Once
/// its worker generation is retired, it reports EOF, as a link to a
/// killed worker would.
struct RiggedLink {
    inner: Box<dyn WorkerLink>,
    rig: Rig,
    recvs: usize,
    killed: Arc<AtomicBool>,
}

impl WorkerLink for RiggedLink {
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.inner.send_line(line)
    }

    fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        if self.killed.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let fire = match &self.rig {
            Rig::Clean | Rig::SpawnFail => false,
            Rig::KillAfter(n) | Rig::GarbageAfter(n) | Rig::StallAfter(n) => self.recvs >= *n,
            Rig::Blocked(_) => true,
        };
        if !fire {
            self.recvs += 1;
            return self.inner.recv_line();
        }
        match &self.rig {
            Rig::KillAfter(_) => Ok(None),
            Rig::GarbageAfter(_) => Ok(Some("%% this is not a protocol line %%".into())),
            Rig::StallAfter(_) => Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "rigged stall",
            )),
            Rig::Blocked(gate) => {
                gate.park();
                Ok(None)
            }
            Rig::Clean | Rig::SpawnFail => unreachable!("no fault to fire"),
        }
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }
}

/// A rigged generation's real guard plus the kill switch its links watch:
/// retiring the generation takes its in-flight links down with it.
struct RiggedGuard {
    inner: Option<Box<dyn WorkerGuard>>,
    killed: Arc<AtomicBool>,
}

impl WorkerGuard for RiggedGuard {
    fn stop(&mut self) {
        self.killed.store(true, Ordering::SeqCst);
        if let Some(guard) = self.inner.as_mut() {
            guard.stop();
        }
    }
}

/// A factory dealing each slot its scripted generations in order; slots
/// whose script runs out spawn clean workers. A generation's script
/// applies to the first data link the router opens to it; any further
/// links are clean.
fn rigged_factory(plans: Vec<Vec<Rig>>) -> WorkerFactory {
    let plans: Arc<Mutex<Vec<VecDeque<Rig>>>> =
        Arc::new(Mutex::new(plans.into_iter().map(VecDeque::from).collect()));
    Box::new(move |idx| {
        let rig = plans.lock().unwrap()[idx].pop_front().unwrap_or(Rig::Clean);
        if matches!(rig, Rig::SpawnFail) {
            return Err(std::io::Error::other("rigged spawn failure"));
        }
        let WorkerHandle {
            connect,
            ctrl,
            guard,
        } = WorkerHandle::in_process(Arc::new(Server::new(fresh_pool())));
        let killed = Arc::new(AtomicBool::new(false));
        let link_killed = Arc::clone(&killed);
        let rig = Mutex::new(Some(rig));
        Ok(WorkerHandle {
            connect: Box::new(move || -> std::io::Result<Box<dyn WorkerLink>> {
                Ok(Box::new(RiggedLink {
                    inner: connect()?,
                    rig: rig.lock().unwrap().take().unwrap_or(Rig::Clean),
                    recvs: 0,
                    killed: Arc::clone(&link_killed),
                }))
            }),
            ctrl,
            guard: Some(Box::new(RiggedGuard {
                inner: guard,
                killed,
            })),
        })
    })
}

fn single_worker_router(plan: Vec<Rig>) -> Router {
    Router::new(
        rigged_factory(vec![plan]),
        RouterOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("router spawns")
}

fn counter(router: &Router, name: &str) -> u64 {
    router.telemetry().snapshot().counter(name).unwrap_or(0)
}

/// [`REFINE`] under another request id.
fn refine_with_id(id: u32) -> String {
    REFINE.replacen("\"id\":1", &format!("\"id\":{id}"), 1)
}

/// A client stream that runs `hook` once its first full line is written.
struct OnFirstLine<F: FnOnce()> {
    buf: Vec<u8>,
    hook: Option<F>,
}

impl<F: FnOnce()> Write for OnFirstLine<F> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.contains(&b'\n') {
            if let Some(hook) = self.hook.take() {
                hook();
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Polls `done` until it holds, failing the test after a generous bound.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn the_reference_refine_streams_rounds() {
    // The fixture the fault drills rely on: mid-stream faults only mean
    // something if the stream has a middle.
    let direct = direct_response(REFINE);
    let rounds = direct
        .lines()
        .filter(|l| l.contains("\"event\":\"round\""))
        .count();
    assert!(
        rounds >= 2,
        "expected a multi-round refinement, got {rounds} rounds:\n{direct}"
    );
    assert!(direct
        .trim_end()
        .lines()
        .last()
        .unwrap()
        .contains("\"ok\":true"));
}

#[test]
fn a_worker_killed_mid_stream_is_respawned_and_rows_are_bit_identical() {
    let router = single_worker_router(vec![Rig::KillAfter(1)]);
    let routed = route_one(&router, REFINE);
    assert_eq!(
        routed,
        direct_response(REFINE),
        "retry after a mid-stream worker death must reproduce the exact stream"
    );
    assert_eq!(counter(&router, "serve.worker.faults"), 1);
    assert_eq!(counter(&router, "serve.worker.restarts"), 1);
    assert_eq!(counter(&router, "serve.worker.reassigned"), 0);
}

#[test]
fn garbage_from_a_worker_is_a_fault_not_a_client_visible_line() {
    let router = single_worker_router(vec![Rig::GarbageAfter(1)]);
    let routed = route_one(&router, REFINE);
    assert!(
        !routed.contains("not a protocol line"),
        "worker garbage leaked to the client:\n{routed}"
    );
    assert_eq!(routed, direct_response(REFINE));
    assert_eq!(counter(&router, "serve.worker.faults"), 1);
}

#[test]
fn a_stalled_worker_is_replaced_within_the_same_request() {
    let router = single_worker_router(vec![Rig::StallAfter(0)]);
    let routed = route_one(&router, REFINE);
    assert_eq!(routed, direct_response(REFINE));
    assert_eq!(counter(&router, "serve.worker.restarts"), 1);
}

#[test]
fn repeated_faults_beyond_the_retry_budget_become_a_structured_error() {
    // Every generation of the only worker dies instantly and the retry
    // budget is zero: the client must get a terminal protocol error, not
    // a hang or a panic.
    let router = Router::new(
        rigged_factory(vec![vec![Rig::KillAfter(0), Rig::KillAfter(0)]]),
        RouterOptions {
            workers: 1,
            retries: 0,
            ..Default::default()
        },
    )
    .expect("router spawns");
    let routed = route_one(&router, REFINE);
    let last = Value::parse(routed.trim_end().lines().last().unwrap()).expect("terminal JSON");
    assert_eq!(last.get("event").and_then(Value::as_str), Some("result"));
    assert_eq!(last.get("ok"), Some(&Value::Bool(false)));
    assert!(
        last.get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("attempts")),
        "error should say the retry budget ran out: {routed}"
    );
}

#[test]
fn a_dead_slot_reassigns_the_request_to_a_surviving_worker() {
    // Work out which of two slots rendezvous hashing will pick for the
    // request, then script that slot to die and refuse respawn.
    let (_, cmd) = parse_request(REFINE);
    let Ok(Command::Refine { spec, .. }) = cmd else {
        panic!("fixture parses as refine")
    };
    let key = routing_fingerprint(&spec).expect("fixture spec is valid");
    let winner = (0..2usize)
        .max_by_key(|&i| {
            let mut h = Fnv::default();
            h.u64(key).u64(i as u64);
            (h.digest(), i)
        })
        .unwrap();
    let mut plans = vec![Vec::new(), Vec::new()];
    plans[winner] = vec![Rig::KillAfter(0), Rig::SpawnFail];
    let router = Router::new(
        rigged_factory(plans),
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");

    let routed = route_one(&router, REFINE);
    assert_eq!(
        routed,
        direct_response(REFINE),
        "a request rehashed off a dead worker must still match the direct stream"
    );
    assert_eq!(counter(&router, "serve.worker.faults"), 1);
    assert_eq!(counter(&router, "serve.worker.reassigned"), 1);
    assert_eq!(counter(&router, "serve.worker.restarts"), 0);
}

#[test]
fn queue_cap_overflow_is_a_structured_busy_result() {
    let gate = Arc::new(Gate::default());
    let router = Router::new(
        rigged_factory(vec![vec![Rig::Blocked(Arc::clone(&gate)), Rig::Clean]]),
        RouterOptions {
            workers: 1,
            queue_cap: 1,
            ..Default::default()
        },
    )
    .expect("router spawns");
    let router = &router;

    std::thread::scope(|scope| {
        // First request parks inside the rigged worker, holding its queue
        // slot; it must still complete (via respawn) after release.
        let held = scope.spawn(move || route_one(router, REFINE));
        gate.await_parked();

        // Second request overflows the cap: immediate structured `busy`.
        let rejected = route_one(router, REFINE);
        let last = Value::parse(rejected.trim_end()).expect("busy line is JSON");
        assert_eq!(last.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            last.get("busy"),
            Some(&Value::Bool(true)),
            "queue overflow must be flagged busy, not a generic error: {rejected}"
        );
        assert_eq!(counter(router, "serve.rejected"), 1);

        gate.release();
        let routed = held.join().expect("held request thread");
        assert_eq!(
            routed,
            direct_response(REFINE),
            "the queued request must complete exactly once the worker recovers"
        );
    });
}

#[test]
fn a_second_request_runs_beside_a_parked_one_on_the_same_worker() {
    let gate = Arc::new(Gate::default());
    let router = Router::new(
        rigged_factory(vec![vec![Rig::Blocked(Arc::clone(&gate))]]),
        RouterOptions {
            workers: 1,
            queue_cap: 2,
            ..Default::default()
        },
    )
    .expect("router spawns");
    let router = &router;
    let second = refine_with_id(2);
    let second = second.as_str();

    std::thread::scope(|scope| {
        // The first request parks inside the only worker, holding a link.
        let held = scope.spawn(move || route_one(router, REFINE));
        gate.await_parked();

        // The second goes to the same worker and must not queue behind it.
        let (tx, rx) = std::sync::mpsc::channel();
        scope.spawn(move || tx.send(route_one(router, second)));
        let beside = rx.recv_timeout(Duration::from_secs(60));
        // Release before asserting, so a failure cannot leave the scope hung.
        gate.release();
        let beside = beside.expect("the second request queued behind the parked one");
        assert_eq!(beside, direct_response(second));
        let held = held.join().expect("held request thread");
        assert_eq!(held, direct_response(REFINE));
    });
    // One link each on the first generation, then the parked request's
    // retry on the replacement; only that retry's link is still open.
    assert_eq!(counter(router, "serve.worker.links_opened"), 3);
    assert_eq!(
        router.telemetry().snapshot().gauge("serve.worker.links"),
        Some(1)
    );
    assert_eq!(counter(router, "serve.worker.restarts"), 1);
}

#[test]
fn a_link_fault_retires_its_generation_once_and_in_flight_requests_retry() {
    let gate = Arc::new(Gate::default());
    let router = Router::new(
        rigged_factory(vec![vec![Rig::Blocked(Arc::clone(&gate))]]),
        RouterOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("router spawns");
    let router = &router;
    let second = refine_with_id(2);

    let (held, streamed) = std::thread::scope(|scope| {
        let held = scope.spawn(move || route_one(router, REFINE));
        gate.await_parked();
        // The second request streams its first round over a second link
        // of the same generation. Only then does the parked link fault,
        // retiring the generation under the second request mid-stream.
        let gate = &gate;
        let mut out = OnFirstLine {
            buf: Vec::new(),
            hook: Some(move || {
                gate.release();
                wait_until("the faulted generation's replacement", || {
                    counter(router, "serve.worker.restarts") == 1
                });
            }),
        };
        router
            .handle_line(&second, &mut out)
            .expect("routed request");
        let streamed = String::from_utf8(out.buf).expect("responses are UTF-8");
        (held.join().expect("held request thread"), streamed)
    });
    assert_eq!(held, direct_response(REFINE));
    assert_eq!(
        streamed,
        direct_response(&second),
        "a request caught mid-stream by its generation's retirement must resume exactly"
    );
    assert_eq!(
        counter(router, "serve.worker.faults"),
        2,
        "both requests saw the fault"
    );
    assert_eq!(
        counter(router, "serve.worker.restarts"),
        1,
        "one fault retires a generation once"
    );
    assert_eq!(counter(router, "serve.worker.spawns"), 2);
}
