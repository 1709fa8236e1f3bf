//! The multi-worker serve front-end: one router, N worker backends.
//!
//! `adhls serve --workers N` turns the daemon into a router/aggregator:
//! clients still speak the exact protocol of `docs/PROTOCOL.md`, but every
//! `sweep`/`refine` is forwarded to one of N workers — each an ordinary
//! [`Server`](crate::server::session::Server) over its own
//! [`EvaluatorPool`](crate::pool::EvaluatorPool) — over the same line-JSON
//! wire format, now acting as a *backend dialect*.
//!
//! Four properties carry the design:
//!
//! * **Sharded warm cache.** Requests are placed by rendezvous
//!   (highest-random-weight) hashing of
//!   [`routing_fingerprint`](crate::server::session::routing_fingerprint())
//!   — a pure function of the workload spec, computed once per distinct
//!   spec and memoized ([`crate::server::memo`]) — so repeats of a design
//!   land on the same worker and hit its warm point/prefix cache, and the
//!   loss of one worker reshuffles only that worker's share of the key
//!   space.
//! * **Byte-transparent forwarding.** The router forwards the client's
//!   request line *verbatim* and relays the worker's response lines
//!   *verbatim* (workers derive response ids exactly as a direct server
//!   would), so a routed request's rows are bit-identical to a single-pool
//!   run — the router never re-renders floats. Response lines are
//!   validated against the expected `{"id":...,` prefix; anything else is
//!   treated as a worker fault.
//! * **Contained failure.** A worker that dies, stalls past the receive
//!   timeout, or emits garbage is retired and respawned in place (same
//!   slot → same hash shard, so the replacement re-warms the same keys);
//!   if respawning fails the slot is marked dead and the request is
//!   rehashed onto the surviving workers. Rounds already streamed to the
//!   client are not re-sent on retry — refinement rounds are
//!   deterministic, so the retried worker's first K rounds are exactly the
//!   K already relayed.
//! * **Concurrent links.** Each spawn of a worker (a *generation*) keeps a
//!   pool of idle data links. A request takes one, or opens a new one
//!   through [`WorkerHandle::connect`] when all are busy, so two requests
//!   hashed to the same worker run side by side instead of queuing behind
//!   one link. A fault on any link retires its generation once; requests
//!   still running on that generation fault in turn and retry on the one
//!   replacement.
//!
//! Backpressure is explicit: each worker has a queue cap (requests beyond
//! it get a structured `busy` result instead of unbounded queuing, and the
//! router never opens more data links than the cap to one worker) and the
//! TCP front-end has a connection bound. `cancel` is forwarded over the
//! owning worker's control link so it bypasses the data links and reaches
//! a mid-refine worker immediately.

use crate::cache::EvictingCache;
use crate::fingerprint::Fnv;
use crate::server::memo::{self, SpecKey};
use crate::server::protocol::{self, Command, WorkloadSpec};
use crate::server::session::routing_fingerprint;
use crate::server::transport::{self, Service};
use crate::server::worker::{LinkConnector, WorkerFactory, WorkerGuard, WorkerHandle, WorkerLink};
use adhls_core::json::Value;
use adhls_telemetry::{HistogramSnapshot, Registry, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sizing and fault-handling knobs for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Worker backends (≥ 1; `new` clamps 0 up).
    pub workers: usize,
    /// Per-worker in-flight/queued request cap: a request routed to a
    /// worker already holding this many gets an immediate `busy` result.
    /// It also bounds the data links open to one worker.
    pub queue_cap: usize,
    /// TCP connection bound for [`Router::serve_tcp`]; connections beyond
    /// it are answered with one `busy` line and closed.
    pub max_connections: usize,
    /// Worker faults tolerated per request before the client gets an
    /// error (each fault costs one respawn or reassignment).
    pub retries: usize,
    /// Bound on each data-link read while waiting on a worker; `None`
    /// (the default) trusts workers not to stall — a refinement round can
    /// legitimately take arbitrarily long, so only set this when worker
    /// round-time is bounded (tests, fault drills).
    pub recv_timeout: Option<Duration>,
    /// Bound on control-link reads (`cancel`, `stats`/`metrics` probes,
    /// shutdown). Control responses never run HLS, so the short default
    /// keeps a stalled worker from wedging aggregation.
    pub ctrl_recv_timeout: Option<Duration>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            workers: 2,
            queue_cap: 64,
            max_connections: 256,
            retries: 2,
            recv_timeout: None,
            ctrl_recv_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// One spawn of a worker into a slot: its control link, its teardown
/// guard, and the data links open to it.
struct Generation {
    connect: LinkConnector,
    ctrl: Mutex<Option<Box<dyn WorkerLink>>>,
    guard: Mutex<Option<Box<dyn WorkerGuard>>>,
    links: Mutex<Links>,
    /// Signalled whenever a data link comes back or closes.
    returned: Condvar,
}

/// The data links of one generation.
#[derive(Default)]
struct Links {
    idle: Vec<Box<dyn WorkerLink>>,
    /// Links open to the generation: idle plus lent to requests.
    open: usize,
    /// Set on retirement: links coming back are closed, not pooled.
    retired: bool,
}

/// One worker position. The slot index — not the worker instance — is the
/// unit of hashing, so a respawned worker inherits its predecessor's key
/// shard.
#[derive(Default)]
struct Slot {
    /// The generation serving this slot; `None` between a retirement and
    /// the next spawn.
    live: Mutex<Option<Arc<Generation>>>,
    /// Routed-but-unfinished requests, for the queue cap.
    pending: AtomicUsize,
    /// Set when a respawn fails; dead slots are skipped by placement until
    /// a later spawn succeeds.
    dead: AtomicBool,
}

/// A router/aggregator serving the client protocol over N worker
/// backends. See the [module docs](self) for the design.
pub struct Router {
    factory: WorkerFactory,
    slots: Vec<Slot>,
    opts: RouterOptions,
    /// The router's own registry (always enabled): request accounting and
    /// `serve.worker.*` fault counters. Worker registries are aggregated
    /// into it on `stats`/`metrics`.
    registry: Registry,
    /// Each distinct spec's routing key, computed once.
    routes: EvictingCache<SpecKey, u64>,
    requests: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    /// In-flight *refine* requests by rendered client `id` → slot index,
    /// so `cancel` from any connection finds the owning worker.
    inflight: Mutex<HashMap<String, usize>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("workers", &self.slots.len())
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

/// How a forwarding attempt on one worker ended short of a relayed
/// terminal line.
enum Fault {
    /// The factory could not produce a worker for this slot.
    Spawn(String),
    /// The link failed mid-request (send error, EOF, stall, garbage).
    Link(&'static str),
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Fault::Spawn(e) => format!("worker failed to start: {e}"),
            Fault::Link(why) => (*why).to_string(),
        }
    }
}

/// The probe the router sends each worker's control link to aggregate
/// `stats`/`metrics`.
const METRICS_PROBE: &str = "{\"id\":null,\"cmd\":\"metrics\"}";

impl Router {
    /// Builds the router and eagerly spawns every worker through
    /// `factory`, so the first routed request finds a live backend.
    ///
    /// # Errors
    ///
    /// The factory's error if any initial worker fails to spawn.
    pub fn new(factory: WorkerFactory, opts: RouterOptions) -> std::io::Result<Router> {
        let workers = opts.workers.max(1);
        let registry = Registry::new();
        registry.set_enabled(true);
        let router = Router {
            factory,
            slots: (0..workers).map(|_| Slot::default()).collect(),
            opts,
            registry,
            routes: EvictingCache::with_capacity(Some(memo::ROUTE_BUDGET)),
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            inflight: Mutex::new(HashMap::new()),
        };
        for idx in 0..workers {
            router.live(idx)?;
        }
        Ok(router)
    }

    /// The router's own telemetry registry (fault and accounting
    /// counters; worker metrics are merged in only at snapshot time).
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// Number of worker slots (dead or alive).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Asks the serve loops to wind down (the TCP accept loop stops and
    /// connection loops exit at their next idle moment). Workers are shut
    /// down by the `shutdown` verb handler, not here.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Slot `idx`'s live generation, spawning one into an empty slot (never
    /// once shutdown has begun); the flag is true when this call spawned
    /// it.
    fn live(&self, idx: usize) -> std::io::Result<(Arc<Generation>, bool)> {
        let slot = &self.slots[idx];
        let mut live = lock(&slot.live);
        if let Some(gen) = live.as_ref() {
            return Ok((Arc::clone(gen), false));
        }
        if self.is_shutting_down() {
            return Err(std::io::Error::other("the router is shutting down"));
        }
        let WorkerHandle {
            connect,
            mut ctrl,
            guard,
        } = (self.factory)(idx)?;
        let _ = ctrl.set_recv_timeout(self.opts.ctrl_recv_timeout);
        let gen = Arc::new(Generation {
            connect,
            ctrl: Mutex::new(Some(ctrl)),
            guard: Mutex::new(guard),
            links: Mutex::default(),
            returned: Condvar::new(),
        });
        *live = Some(Arc::clone(&gen));
        slot.dead.store(false, Ordering::Release);
        self.registry.counter_add("serve.worker.spawns", 1);
        Ok((gen, true))
    }

    /// Retires `gen` from slot `idx` unless a replacement already took its
    /// place, so one fault retires a generation once however many requests
    /// were running on it. Those requests fault in turn when the worker
    /// goes down (or finish, when it drains them) and retry on the
    /// replacement.
    fn retire(&self, idx: usize, gen: &Arc<Generation>) {
        {
            let mut live = lock(&self.slots[idx].live);
            if !live.as_ref().is_some_and(|g| Arc::ptr_eq(g, gen)) {
                return;
            }
            *live = None;
        }
        self.close(gen);
    }

    /// Tears a generation down: closes its idle data links and control
    /// link and stops its guard; links still lent out close as they come
    /// back.
    fn close(&self, gen: &Generation) {
        let idle = {
            let mut links = lock(&gen.links);
            links.retired = true;
            links.open -= links.idle.len();
            std::mem::take(&mut links.idle)
        };
        self.registry
            .gauge_add("serve.worker.links", -(idle.len() as i64));
        drop(idle);
        gen.returned.notify_all();
        *lock(&gen.ctrl) = None;
        if let Some(mut guard) = lock(&gen.guard).take() {
            guard.stop();
        }
    }

    /// Lends a data link of `gen`: an idle one, or a new one while fewer
    /// than the queue cap are open (otherwise waits for one to come back).
    fn checkout(&self, gen: &Generation) -> Result<Box<dyn WorkerLink>, Fault> {
        {
            let mut links = lock(&gen.links);
            loop {
                if links.retired {
                    return Err(Fault::Link("worker retired while the request waited"));
                }
                if let Some(link) = links.idle.pop() {
                    return Ok(link);
                }
                if links.open < self.opts.queue_cap {
                    break;
                }
                links = gen.returned.wait(links).expect("router lock poisoned");
            }
            links.open += 1;
        }
        let opened = (gen.connect)().and_then(|mut link| {
            link.set_recv_timeout(self.opts.recv_timeout)?;
            Ok(link)
        });
        match opened {
            Ok(link) => {
                self.registry.counter_add("serve.worker.links_opened", 1);
                self.registry.gauge_add("serve.worker.links", 1);
                Ok(link)
            }
            Err(_) => {
                lock(&gen.links).open -= 1;
                gen.returned.notify_all();
                Err(Fault::Link("worker refused a new data link"))
            }
        }
    }

    /// Takes a lent link back: pooled for the next request when `reuse`
    /// (it delivered its terminal line, so no response bytes are left in
    /// it) and the generation is still live, closed otherwise.
    fn checkin(&self, gen: &Generation, link: Box<dyn WorkerLink>, reuse: bool) {
        let pooled = {
            let mut links = lock(&gen.links);
            if reuse && !links.retired {
                links.idle.push(link);
                true
            } else {
                links.open -= 1;
                false
            }
        };
        if !pooled {
            self.registry.gauge_add("serve.worker.links", -1);
        }
        gen.returned.notify_all();
    }

    /// Rendezvous placement: among live slots (excluding `exclude`), the
    /// one whose `Fnv(key, index)` weight is highest. Every router ranks
    /// a key identically, each key's shard moves only when its own winner
    /// dies, and dead workers shed load evenly over the survivors.
    fn pick(&self, key: u64, exclude: Option<usize>) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(i, s)| Some(i) != exclude && !s.dead.load(Ordering::Acquire))
            .max_by_key(|&(i, _)| {
                let mut h = Fnv::default();
                h.u64(key).u64(i as u64);
                (h.digest(), i)
            })
            .map(|(i, _)| i)
    }

    /// One forwarding attempt on slot `idx`: spawn if empty, borrow a data
    /// link, send the raw request line, relay response lines until the
    /// terminal result. `rounds_sent` counts progress events already
    /// relayed to the client so a retry (deterministic rounds) skips
    /// re-sending them. A worker-side fault retires the generation.
    ///
    /// The outer `Err` is a *client-side* write failure; worker-side
    /// trouble is the inner [`Fault`].
    fn attempt(
        &self,
        idx: usize,
        line: &str,
        prefix: &str,
        rounds_sent: &mut usize,
        out: &mut dyn Write,
    ) -> std::io::Result<Result<(), Fault>> {
        let gen = match self.live(idx) {
            Ok((gen, _)) => gen,
            Err(e) => return Ok(Err(Fault::Spawn(e.to_string()))),
        };
        let outcome = match self.checkout(&gen) {
            Ok(mut link) => {
                let outcome = relay(link.as_mut(), line, prefix, rounds_sent, out);
                self.checkin(&gen, link, matches!(outcome, Ok(Ok(()))));
                outcome
            }
            Err(fault) => Ok(Err(fault)),
        };
        if matches!(outcome, Ok(Err(_))) {
            self.retire(idx, &gen);
        }
        outcome
    }

    /// Routes one `sweep`/`refine` line: place by `key`, apply the queue
    /// cap, then attempt/retry/reassign until a terminal line reaches the
    /// client. Returns whether the client-visible outcome was a success.
    fn forward(
        &self,
        key: u64,
        id: Option<&Value>,
        line: &str,
        inflight_key: Option<&str>,
        out: &mut dyn Write,
    ) -> std::io::Result<bool> {
        let Some(mut idx) = self.pick(key, None) else {
            writeln!(out, "{}", protocol::render_error(id, "no live workers"))?;
            return Ok(false);
        };
        let slot = &self.slots[idx];
        let pending = slot.pending.fetch_add(1, Ordering::SeqCst) + 1;
        if pending > self.opts.queue_cap {
            slot.pending.fetch_sub(1, Ordering::SeqCst);
            self.registry.counter_add("serve.rejected", 1);
            let msg = format!(
                "worker {idx} is at its queue cap ({}); retry later",
                self.opts.queue_cap
            );
            writeln!(out, "{}", protocol::render_busy(id, &msg))?;
            return Ok(false);
        }
        let _pending = PendingGuard(slot);
        if let Some(k) = inflight_key {
            lock(&self.inflight).insert(k.to_string(), idx);
        }
        let prefix = id_prefix(id);
        let mut rounds_sent = 0usize;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let fault = match self.attempt(idx, line, &prefix, &mut rounds_sent, out)? {
                Ok(()) => return Ok(true),
                Err(f) => f,
            };
            self.registry.counter_add("serve.worker.faults", 1);
            if attempts > self.opts.retries {
                let msg = format!(
                    "request failed after {attempts} attempts: {}",
                    fault.describe()
                );
                writeln!(out, "{}", protocol::render_error(id, &msg))?;
                return Ok(false);
            }
            // Prefer restarting the same slot — it owns this key's cache
            // shard. Only when a replacement cannot be spawned does the
            // request (and, implicitly, the shard) move elsewhere.
            match self.live(idx) {
                Ok((_, true)) => self.registry.counter_add("serve.worker.restarts", 1),
                // Another request's fault already replaced the generation.
                Ok((_, false)) => {}
                Err(_) => {
                    self.slots[idx].dead.store(true, Ordering::Release);
                    let Some(next) = self.pick(key, Some(idx)) else {
                        writeln!(out, "{}", protocol::render_error(id, "no live workers"))?;
                        return Ok(false);
                    };
                    self.registry.counter_add("serve.worker.reassigned", 1);
                    idx = next;
                    if let Some(k) = inflight_key {
                        lock(&self.inflight).insert(k.to_string(), idx);
                    }
                }
            }
        }
    }

    /// Sends one line over slot `idx`'s control link and reads one reply.
    /// A link that fails either way is dropped; the next spawn brings a
    /// new one.
    fn ctrl_roundtrip(&self, idx: usize, line: &str) -> Option<String> {
        let gen = lock(&self.slots[idx].live).clone()?;
        let mut ctrl = lock(&gen.ctrl);
        let link = ctrl.as_mut()?;
        let reply = link
            .send_line(line)
            .ok()
            .and_then(|()| link.recv_line().ok().flatten());
        if reply.is_none() {
            *ctrl = None;
        }
        reply
    }

    /// Forwards a `cancel` over the owning worker's control link (found
    /// via the in-flight map) and relays its answer verbatim.
    fn forward_cancel(
        &self,
        id: Option<&Value>,
        target: &Value,
        line: &str,
        out: &mut dyn Write,
    ) -> std::io::Result<bool> {
        let owner = lock(&self.inflight).get(&target.render()).copied();
        let Some(idx) = owner else {
            let msg = format!("no in-flight request with id {}", target.render());
            writeln!(out, "{}", protocol::render_error(id, &msg))?;
            return Ok(false);
        };
        let Some(resp) = self.ctrl_roundtrip(idx, line) else {
            let msg = format!("worker {idx} is unreachable; its requests will be retried");
            writeln!(out, "{}", protocol::render_error(id, &msg))?;
            return Ok(false);
        };
        let prefix = id_prefix(id);
        let ok = resp
            .strip_prefix(&prefix)
            .is_some_and(|rest| rest.starts_with("\"event\":\"result\",\"ok\":true"));
        if ok {
            self.registry.counter_add("serve.cancel.forwarded", 1);
        }
        writeln!(out, "{resp}")?;
        Ok(ok)
    }

    /// One aggregated snapshot across the router and every live worker.
    ///
    /// Worker counters and gauges are **summed**, and worker histograms
    /// are summed bucket by bucket (every span shares the
    /// `TIME_BUCKETS_US` ladder; a name whose workers disagree on bounds
    /// is dropped rather than misreported). Worker `serve.*` request
    /// accounting (`serve.requests`, `serve.ok`, `serve.request.*`, …) is
    /// dropped: the router already counts and times every client request
    /// once, over the full routed round trip, and each forwarded request
    /// is counted again by its worker — summing both would double-count.
    /// `serve.cancelled` is the one exception (kept and summed): only the
    /// worker running a refine can observe its cancellation, and the
    /// router has no counterpart entry to collide with. The router's own
    /// route-key memo adds `memo.route.*`, read at snapshot time.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Option<HistogramSnapshot>> = BTreeMap::new();
        let mut alive = 0i64;
        for idx in 0..self.slots.len() {
            let Some(doc) = self
                .ctrl_roundtrip(idx, METRICS_PROBE)
                .and_then(|line| Value::parse(&line).ok())
            else {
                continue;
            };
            alive += 1;
            let Some(metrics) = doc.get("metrics") else {
                continue;
            };
            if let Some(Value::Obj(pairs)) = metrics.get("counters") {
                for (name, v) in pairs {
                    if name.starts_with("serve.") && name != "serve.cancelled" {
                        continue;
                    }
                    if let Some(n) = v.as_u64() {
                        *counters.entry(name.clone()).or_insert(0) += n;
                    }
                }
            }
            if let Some(Value::Obj(pairs)) = metrics.get("gauges") {
                for (name, v) in pairs {
                    if name.starts_with("serve.") {
                        continue;
                    }
                    if let Some(n) = v.as_f64() {
                        *gauges.entry(name.clone()).or_insert(0) += n as i64;
                    }
                }
            }
            if let Some(Value::Obj(pairs)) = metrics.get("histograms") {
                for (name, v) in pairs {
                    if name.starts_with("serve.") {
                        continue;
                    }
                    let Some(h) = histogram_from_json(v) else {
                        continue;
                    };
                    match histograms.get_mut(name) {
                        Some(acc) => *acc = acc.take().and_then(|acc| add_buckets(acc, &h)),
                        None => {
                            histograms.insert(name.clone(), Some(h));
                        }
                    }
                }
            }
        }
        for (name, v) in &counters {
            snap.push_counter(name, *v);
        }
        for (name, v) in &gauges {
            snap.push_gauge(name, *v);
        }
        for (name, h) in histograms {
            if let Some(h) = h {
                snap.push_histogram(&name, h);
            }
        }
        memo::push_memo_metrics(&mut snap, "memo.route", &self.routes.stats());
        snap.push_counter("serve.requests", self.requests.load(Ordering::Relaxed));
        snap.push_gauge("serve.uptime_ms", self.started.elapsed().as_millis() as i64);
        snap.push_gauge("serve.workers", alive);
        snap.sort();
        snap
    }

    /// Sends `shutdown` to every worker (control link, best-effort), then
    /// stops their guards. In-flight requests finish first: a worker goes
    /// down only once every data link it lent out has come back.
    fn shutdown_workers(&self) {
        for slot in &self.slots {
            slot.dead.store(true, Ordering::Release);
            let Some(gen) = lock(&slot.live).take() else {
                continue;
            };
            let mut links = lock(&gen.links);
            while links.open > links.idle.len() {
                links = gen.returned.wait(links).expect("router lock poisoned");
            }
            drop(links);
            if let Some(link) = lock(&gen.ctrl).as_mut() {
                let _ = link.send_line("{\"cmd\":\"shutdown\"}");
                let _ = link.recv_line();
            }
            self.close(&gen);
        }
    }

    /// Handles one request line, mirroring
    /// [`Server::handle_line`](crate::server::session::Server::handle_line):
    /// same accounting (`serve.requests`, `serve.ok`/`serve.errors`,
    /// `serve.request.<verb>` latency), same return contract (`false`
    /// closes the connection).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`; worker-side and request-level
    /// problems become `ok:false` result lines instead.
    pub fn handle_line(&self, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let in_flight = self.registry.gauge_guard("serve.in_flight");
        self.registry
            .counter_add("serve.bytes_read", line.len() as u64);
        let started = Instant::now();
        let (id, cmd) = protocol::parse_request(line);
        let verb = cmd.as_ref().map_or("invalid", |c| c.verb());
        let (keep_going, ok) = self.dispatch(id.as_ref(), cmd, line, out)?;
        // Settled before the flush releases the terminal line, as in the
        // server.
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.registry.observe(&format!("serve.request.{verb}"), us);
        self.registry
            .counter_add(if ok { "serve.ok" } else { "serve.errors" }, 1);
        drop(in_flight);
        out.flush()?;
        Ok(keep_going)
    }

    /// Runs one parsed request: local verbs (`ping`, `stats`, `metrics`,
    /// `shutdown`) are answered by the router itself; `cancel` goes over
    /// the owning worker's control link; `sweep`/`refine` are routed.
    fn dispatch(
        &self,
        id: Option<&Value>,
        cmd: Result<Command, String>,
        line: &str,
        out: &mut dyn Write,
    ) -> std::io::Result<(bool, bool)> {
        let mut keep_going = true;
        let ok = match cmd {
            Err(msg) => {
                writeln!(out, "{}", protocol::render_error(id, &msg))?;
                false
            }
            Ok(Command::Ping) => {
                writeln!(out, "{}", protocol::render_ok(id, "ping"))?;
                true
            }
            Ok(Command::Shutdown) => {
                self.request_shutdown();
                self.shutdown_workers();
                writeln!(out, "{}", protocol::render_ok(id, "shutdown"))?;
                keep_going = false;
                true
            }
            Ok(Command::Stats) => {
                writeln!(
                    out,
                    "{}",
                    protocol::render_stats(id, &self.metrics_snapshot())
                )?;
                true
            }
            Ok(Command::Metrics) => {
                writeln!(
                    out,
                    "{}",
                    protocol::render_metrics(id, &self.metrics_snapshot())
                )?;
                true
            }
            Ok(Command::Cancel { target }) => self.forward_cancel(id, &target, line, out)?,
            Ok(Command::Sweep(spec)) => {
                let key = self.route_key(&spec);
                self.forward(key, id, line, None, out)?
            }
            Ok(Command::Refine { ref spec, .. }) => {
                let key = self.route_key(spec);
                let inflight_key = id.map(Value::render);
                let _guard = InflightGuard {
                    router: self,
                    key: inflight_key.clone(),
                };
                self.forward(key, id, line, inflight_key.as_deref(), out)?
            }
        };
        Ok((keep_going, ok))
    }

    /// `spec`'s routing key ([`routing_fingerprint`]), computed on the
    /// spec's first request and memoized, timed under `router.route`. An
    /// invalid spec hashes to the fallback shard; the worker repeats the
    /// validation and answers with the same error a direct server would.
    fn route_key(&self, spec: &WorkloadSpec) -> u64 {
        let _span = self.registry.span("router.route");
        self.routes
            .get_or_compute(SpecKey::new(spec), || {
                routing_fingerprint(spec).unwrap_or(0)
            })
            .0
    }

    /// Serves one connection from any reader/writer pair until EOF or a
    /// `shutdown` request, with the single-pool server's transport
    /// ([`Server::serve_connection`](crate::server::session::Server::serve_connection)).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from either side.
    pub fn serve_connection(
        &self,
        reader: impl BufRead,
        writer: impl Write,
    ) -> std::io::Result<()> {
        transport::serve_connection(self, reader, writer)
    }

    /// Accepts and serves TCP connections until a `shutdown` request, with
    /// bounded accept: a connection beyond
    /// [`RouterOptions::max_connections`] is answered with one `busy` line
    /// and closed instead of being queued.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O errors (per-connection errors only
    /// drop that connection).
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        transport::serve_tcp(self, listener)
    }

    /// Serves Prometheus text-format scrapes of the **aggregated**
    /// snapshot until shutdown — the router-mode `--metrics-addr`
    /// listener.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O errors (per-connection errors only
    /// drop that scrape).
    pub fn serve_metrics(&self, listener: &TcpListener) -> std::io::Result<()> {
        transport::serve_metrics(self, listener)
    }
}

impl Service for Router {
    fn handle_line(&self, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        Router::handle_line(self, line, out)
    }

    fn is_shutting_down(&self) -> bool {
        Router::is_shutting_down(self)
    }

    fn metrics_snapshot(&self) -> Snapshot {
        Router::metrics_snapshot(self)
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    fn max_connections(&self) -> usize {
        self.opts.max_connections
    }
}

/// Sends `line` over `link` and relays the worker's response lines to
/// `out` until the terminal result, skipping the first `rounds_sent`
/// progress events (an earlier attempt already relayed them). Every line
/// must open with `prefix`, the request's id envelope; anything else is a
/// worker fault.
fn relay(
    link: &mut dyn WorkerLink,
    line: &str,
    prefix: &str,
    rounds_sent: &mut usize,
    out: &mut dyn Write,
) -> std::io::Result<Result<(), Fault>> {
    if link.send_line(line).is_err() {
        return Ok(Err(Fault::Link("worker rejected the request write")));
    }
    let mut seen = 0usize;
    loop {
        let resp = match link.recv_line() {
            Ok(Some(resp)) => resp,
            Ok(None) => return Ok(Err(Fault::Link("worker closed the connection mid-request"))),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(Err(Fault::Link("worker stalled past the receive timeout")))
            }
            Err(_) => return Ok(Err(Fault::Link("worker link failed mid-response"))),
        };
        let Some(rest) = resp.strip_prefix(prefix) else {
            return Ok(Err(Fault::Link("worker emitted a malformed response")));
        };
        let terminal = rest.starts_with("\"event\":\"result\"");
        if terminal || seen >= *rounds_sent {
            writeln!(out, "{resp}")?;
            out.flush()?;
            if terminal {
                return Ok(Ok(()));
            }
            *rounds_sent += 1;
        }
        seen += 1;
    }
}

/// A histogram back from its `Snapshot::render_json` form.
fn histogram_from_json(v: &Value) -> Option<HistogramSnapshot> {
    let bounds = v
        .get("le")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect::<Option<Vec<f64>>>()?;
    let counts = v
        .get("counts")?
        .as_arr()?
        .iter()
        .map(Value::as_u64)
        .collect::<Option<Vec<u64>>>()?;
    if counts.len() != bounds.len() + 1 {
        return None;
    }
    Some(HistogramSnapshot {
        bounds,
        counts,
        count: v.get("count")?.as_u64()?,
        sum: v.get("sum")?.as_f64()?,
    })
}

/// Adds `h` into `acc` bucket by bucket; `None` when the two use different
/// bucket bounds.
fn add_buckets(mut acc: HistogramSnapshot, h: &HistogramSnapshot) -> Option<HistogramSnapshot> {
    if acc.bounds != h.bounds {
        return None;
    }
    for (a, b) in acc.counts.iter_mut().zip(&h.counts) {
        *a += b;
    }
    acc.count += h.count;
    acc.sum += h.sum;
    Some(acc)
}

/// Decrements a slot's pending count when the routed request finishes —
/// on every path, including client-side write failures.
struct PendingGuard<'a>(&'a Slot);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Removes a refine's in-flight map entry when it finishes, so `cancel`
/// can never address a completed request's worker.
struct InflightGuard<'a> {
    router: &'a Router,
    key: Option<String>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            lock(&self.router.inflight).remove(&key);
        }
    }
}

/// The response-line prefix every reply to `id` must carry: responses
/// open with the echoed id (see `protocol::open_envelope`), which is what
/// lets the router validate relayed lines without re-rendering them.
fn id_prefix(id: Option<&Value>) -> String {
    let mut p = String::from("{\"id\":");
    match id {
        Some(v) => v.render_into(&mut p),
        None => p.push_str("null"),
    }
    p.push(',');
    p
}

/// Locks a mutex, treating poisoning as fatal (a panic mid-route already
/// lost a response; there is no protocol state to salvage).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("router lock poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_stable_and_minimal() {
        let slots: Vec<Slot> = (0..4).map(|_| Slot::default()).collect();
        let pick = |key: u64, exclude: Option<usize>| {
            slots
                .iter()
                .enumerate()
                .filter(|&(i, _)| Some(i) != exclude)
                .max_by_key(|&(i, _)| {
                    let mut h = Fnv::default();
                    h.u64(key).u64(i as u64);
                    (h.digest(), i)
                })
                .map(|(i, _)| i)
                .unwrap()
        };
        let mut moved = 0;
        for key in 0..256u64 {
            let a = pick(key, None);
            assert_eq!(a, pick(key, None), "placement must be deterministic");
            let b = pick(key, Some(0));
            if a == 0 {
                assert_ne!(b, 0, "keys on a dead worker must move");
                moved += 1;
            } else {
                assert_eq!(a, b, "keys off the dead worker must not move");
            }
        }
        assert!(moved > 0, "some keys should have hashed to worker 0");
    }

    #[test]
    fn histograms_survive_the_wire_and_merge_by_bucket() {
        let reg = Registry::new();
        reg.set_enabled(true);
        for v in [10.0, 120.0, 9e6] {
            reg.observe("pipeline.evaluate", v);
        }
        let snap = reg.snapshot();
        let doc = Value::parse(&snap.render_json()).unwrap();
        let wire = doc.get("histograms").unwrap().get("pipeline.evaluate");
        let h = histogram_from_json(wire.unwrap()).unwrap();
        assert_eq!(&h, snap.histogram("pipeline.evaluate").unwrap());
        let twice = add_buckets(h.clone(), &h).unwrap();
        assert_eq!(twice.count, 6);
        assert!(twice.counts.iter().zip(&h.counts).all(|(t, c)| *t == 2 * c));
        let other = HistogramSnapshot {
            bounds: vec![1.0],
            counts: vec![0, 0],
            count: 0,
            sum: 0.0,
        };
        assert!(
            add_buckets(h, &other).is_none(),
            "mismatched bounds must not merge"
        );
    }

    #[test]
    fn id_prefix_matches_the_envelope() {
        assert_eq!(id_prefix(None), "{\"id\":null,");
        assert_eq!(id_prefix(Some(&Value::Num(7.0))), "{\"id\":7,");
        assert_eq!(id_prefix(Some(&Value::Str("a1".into()))), "{\"id\":\"a1\",");
        let rendered = protocol::render_error(Some(&Value::Num(7.0)), "x");
        assert!(rendered.starts_with(&id_prefix(Some(&Value::Num(7.0)))));
    }
}
