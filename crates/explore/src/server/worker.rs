//! Worker backends for the multi-worker serve tier.
//!
//! A worker is an ordinary exploration [`Server`] reached over
//! line-oriented connections of two kinds:
//!
//! * **data** links, each carrying one sweep/refine at a time (the worker
//!   answers requests on a connection strictly in order, which is what
//!   makes response correlation trivial). A [`WorkerHandle`] opens them on
//!   demand through its [`connect`](WorkerHandle::connect) hook, and the
//!   router keeps a pool of them per worker — one per request it has
//!   running there at once, never more than its queue cap — so requests
//!   hashed to the same worker run side by side on its cores.
//! * one **control** link for messages that must not wait behind a
//!   running refinement — `cancel`, and the router's `stats`/`metrics`
//!   aggregation probes.
//!
//! Workers are in-process threads ([`WorkerHandle::in_process`]): a
//! [`Server`] served over in-memory pipes on plain threads, fully
//! deterministic, with no sockets. The router ([`crate::server::router`])
//! reaches a worker only through the [`WorkerLink`], [`WorkerGuard`] and
//! [`WorkerHandle`] seams, and the fault-injection suite substitutes its
//! own [`WorkerLink`]s there to inject kills, stalls, and garbage.

use crate::server::session::Server;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One line-oriented duplex channel to a worker backend.
///
/// A link is *sequential*: the holder writes one request line, then reads
/// response lines until the request's terminal message. Any `Err` from
/// either side poisons the link (a partial line may have been consumed);
/// the router responds by retiring the worker, never by resyncing.
pub trait WorkerLink: Send {
    /// Writes one request line (the newline is appended) and flushes.
    ///
    /// # Errors
    ///
    /// The transport's write error; the worker should be considered gone.
    fn send_line(&mut self, line: &str) -> io::Result<()>;

    /// Reads one response line (newline stripped). `Ok(None)` is orderly
    /// EOF — the worker closed its end.
    ///
    /// # Errors
    ///
    /// Transport errors; `ErrorKind::WouldBlock`/`TimedOut` mean the
    /// configured receive timeout elapsed (a stalled worker).
    fn recv_line(&mut self) -> io::Result<Option<String>>;

    /// Bounds every subsequent [`WorkerLink::recv_line`] wait (`None` =
    /// wait forever, the default).
    ///
    /// # Errors
    ///
    /// The transport's error when the timeout cannot be set.
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
}

/// Stops a worker's execution vehicle when the router retires it (an
/// in-process worker's server shuts down, and its threads unwind off
/// their dropped pipes).
pub trait WorkerGuard: Send {
    /// Best-effort teardown; must be idempotent.
    fn stop(&mut self);
}

/// Opens one more data link to a running worker.
pub type LinkConnector = Box<dyn Fn() -> io::Result<Box<dyn WorkerLink>> + Send + Sync>;

/// A connected worker: its control link, the hook that opens data links
/// to it, and the teardown guard.
pub struct WorkerHandle {
    /// Opens a new request channel (one sweep/refine in flight at a time
    /// per channel), such as a new pipe connection to an in-process
    /// [`Server`]. The router calls it lazily, when every link it already
    /// holds to this worker is busy.
    pub connect: LinkConnector,
    /// The out-of-band channel (`cancel`, aggregation probes).
    pub ctrl: Box<dyn WorkerLink>,
    /// Teardown hook invoked when the worker is retired.
    pub guard: Option<Box<dyn WorkerGuard>>,
}

impl std::fmt::Debug for WorkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHandle").finish_non_exhaustive()
    }
}

/// Spawns (or re-spawns, after a fault) one worker; the argument is the
/// worker's slot index. What the router calls on startup and on restart,
/// and what the fault harness overrides to hand out rigged links.
pub type WorkerFactory = Box<dyn Fn(usize) -> io::Result<WorkerHandle> + Send + Sync>;

impl WorkerHandle {
    /// An in-process worker: connections onto `server`, each served by a
    /// plain thread over in-memory pipes — the control link now, a data
    /// link per [`connect`](WorkerHandle::connect) call. The threads exit
    /// when the handle's links drop (their read side sees EOF) or when the
    /// server shuts down; the guard holds the server so a retirement can
    /// request that explicitly.
    #[must_use]
    pub fn in_process(server: Arc<Server>) -> WorkerHandle {
        let ctrl = pipe_connection(&server);
        let guard = InProcessGuard {
            server: Arc::clone(&server),
        };
        WorkerHandle {
            connect: Box::new(move || -> io::Result<Box<dyn WorkerLink>> {
                Ok(Box::new(pipe_connection(&server)))
            }),
            ctrl: Box::new(ctrl),
            guard: Some(Box::new(guard)),
        }
    }
}

struct InProcessGuard {
    server: Arc<Server>,
}

impl WorkerGuard for InProcessGuard {
    fn stop(&mut self) {
        self.server.request_shutdown();
    }
}

/// One served in-memory connection: the worker side runs
/// [`Server::serve_connection`] on its own thread; the returned link is
/// the client side.
fn pipe_connection(server: &Arc<Server>) -> PipeLink {
    let (req_tx, req_rx) = pipe();
    let (resp_tx, resp_rx) = pipe();
    let srv = Arc::clone(server);
    std::thread::spawn(move || {
        // A per-connection error (e.g. the router dropped mid-response)
        // ends this connection, exactly like a TCP reset would.
        let _ = srv.serve_connection(BufReader::new(req_rx), resp_tx);
    });
    PipeLink {
        tx: req_tx,
        rx: BufReader::new(resp_rx),
    }
}

/// Client side of an in-memory worker connection.
pub struct PipeLink {
    tx: PipeWriter,
    rx: BufReader<PipeReader>,
}

impl WorkerLink for PipeLink {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        // The line and its newline in one buffer, so the reader wakes once.
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        self.tx.write_all(&msg)
    }

    fn recv_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        if self.rx.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.rx.get_mut().timeout = timeout;
        Ok(())
    }
}

/// The shared buffer behind one direction of an in-memory pipe.
#[derive(Default)]
struct PipeShared {
    state: Mutex<PipeState>,
    readable: Condvar,
}

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// Write half of an in-memory byte pipe (see [`pipe`]). Dropping it closes
/// the pipe; the reader then drains what is buffered and reports EOF.
pub struct PipeWriter {
    shared: Arc<PipeShared>,
}

/// Read half of an in-memory byte pipe (see [`pipe`]). Reads block until
/// data, EOF, or the configured timeout (`ErrorKind::TimedOut`).
pub struct PipeReader {
    shared: Arc<PipeShared>,
    /// Bounds each blocking read; `None` waits forever.
    pub timeout: Option<Duration>,
}

/// An in-memory unidirectional byte pipe: what in-process workers speak
/// over instead of sockets, keeping multi-worker tests deterministic and
/// port-free.
#[must_use]
pub fn pipe() -> (PipeWriter, PipeReader) {
    let shared = Arc::new(PipeShared::default());
    (
        PipeWriter {
            shared: Arc::clone(&shared),
        },
        PipeReader {
            shared,
            timeout: None,
        },
    )
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut st = self.shared.state.lock().expect("pipe lock poisoned");
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "pipe reader dropped",
            ));
        }
        st.buf.extend(data);
        drop(st);
        self.shared.readable.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("pipe lock poisoned");
        st.closed = true;
        drop(st);
        self.shared.readable.notify_all();
    }
}

impl io::Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut st = self.shared.state.lock().expect("pipe lock poisoned");
        loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = st.buf.pop_front().expect("buffer length checked");
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            st = match self.timeout {
                None => self.shared.readable.wait(st).expect("pipe lock poisoned"),
                Some(t) => {
                    let (guard, timed_out) = self
                        .shared
                        .readable
                        .wait_timeout(st, t)
                        .expect("pipe lock poisoned");
                    if timed_out.timed_out() && guard.buf.is_empty() && !guard.closed {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "pipe read timed out",
                        ));
                    }
                    guard
                }
            };
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        // Closing the read side makes further writes fail fast instead of
        // buffering into a pipe nobody will drain.
        let mut st = self.shared.state.lock().expect("pipe lock poisoned");
        st.closed = true;
        drop(st);
        self.shared.readable.notify_all();
    }
}

/// A [`WorkerFactory`] spawning in-process thread workers, each with its
/// **own** [`EvaluatorPool`](crate::pool::EvaluatorPool) built from
/// `make_pool` — so every worker owns a private cache shard (the router's
/// consistent hashing is what keeps each shard warm).
#[must_use]
pub fn in_process_factory(
    make_pool: impl Fn(usize) -> crate::pool::EvaluatorPool + Send + Sync + 'static,
) -> WorkerFactory {
    Box::new(move |idx| {
        Ok(WorkerHandle::in_process(Arc::new(Server::new(make_pool(
            idx,
        )))))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    #[test]
    fn pipes_carry_bytes_and_report_eof() {
        let (mut tx, mut rx) = pipe();
        tx.write_all(b"hello\n").unwrap();
        drop(tx);
        let mut all = String::new();
        rx.read_to_string(&mut all).unwrap();
        assert_eq!(all, "hello\n");
        assert_eq!(rx.read(&mut [0u8; 4]).unwrap(), 0, "EOF after close");
    }

    #[test]
    fn pipe_reads_time_out_when_configured() {
        let (_tx, mut rx) = pipe();
        rx.timeout = Some(Duration::from_millis(20));
        let err = rx.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn dropped_reader_fails_writes_fast() {
        let (mut tx, rx) = pipe();
        drop(rx);
        let err = tx.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
