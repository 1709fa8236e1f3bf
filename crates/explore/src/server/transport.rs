//! The one transport both serve front-ends speak.
//!
//! A single-pool [`Server`](crate::server::session::Server) and a
//! multi-worker [`Router`](crate::server::router::Router) differ only in
//! how they answer a request line; everything around that — reading capped
//! request lines, refusing oversized or non-UTF-8 ones, the TCP accept loop
//! with its connection bound, and the Prometheus scrape listener — lives
//! here once, behind the [`Service`] trait both implement.
//!
//! Responses go through a [`BufWriter`] that the services empty with their
//! per-line and per-round `flush` calls, and accepted sockets run with
//! `TCP_NODELAY`. Each response line therefore leaves as one write, and
//! no write waits for the client's delayed ACK: a line and its newline
//! written separately to a Nagle socket used to travel as two segments,
//! the second held back until the client acknowledged the first.

use crate::server::protocol;
use adhls_telemetry::{Registry, Snapshot};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Capacity of a connection's response buffer: a response line up to this
/// size leaves in one write. Longer ones take a second write for their
/// tail, which `TCP_NODELAY` sends at once.
const WRITE_BUFFER: usize = 64 << 10;

/// Largest accepted request line. Inline DSL sources fit comfortably; a
/// client streaming bytes with no newline must not grow server memory
/// without bound.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// What a serve front-end plugs into the shared transport.
pub(crate) trait Service: Sync {
    /// Answers one request line, flushing `out` after every response line;
    /// `false` closes the connection (a `shutdown` request).
    fn handle_line(&self, line: &str, out: &mut dyn Write) -> io::Result<bool>;

    /// True once shutdown has been requested.
    fn is_shutting_down(&self) -> bool;

    /// The snapshot the scrape listener renders.
    fn metrics_snapshot(&self) -> Snapshot;

    /// The registry transport-level accounting lands in.
    fn registry(&self) -> &Registry;

    /// Counts one request toward `serve.requests`.
    fn count_request(&self);

    /// TCP connections served at once; further ones get one `busy` line.
    fn max_connections(&self) -> usize {
        usize::MAX
    }
}

enum LineStatus {
    /// A full newline-terminated line is in the buffer (newline stripped).
    Complete,
    /// End of stream with nothing further buffered.
    Eof,
    /// The line outgrew [`MAX_REQUEST_BYTES`] before its newline arrived.
    TooLong,
}

/// Appends bytes to `buf` until a newline, EOF, or the size cap — a capped
/// `read_line` working in raw bytes so no single call can balloon memory.
/// Returns `Err` (e.g. `WouldBlock` on a read timeout) with any partial
/// data retained in `buf` for the next call.
fn fill_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineStatus> {
    loop {
        let (newline_at, available) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF; any unterminated trailing bytes are not a request.
                return Ok(if buf.is_empty() {
                    LineStatus::Eof
                } else {
                    LineStatus::Complete
                });
            }
            (chunk.iter().position(|&b| b == b'\n'), chunk.len())
        };
        match newline_at {
            Some(pos) => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(if buf.len() > MAX_REQUEST_BYTES {
                    LineStatus::TooLong
                } else {
                    LineStatus::Complete
                });
            }
            None => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(chunk);
                reader.consume(available);
                if buf.len() > MAX_REQUEST_BYTES {
                    return Ok(LineStatus::TooLong);
                }
            }
        }
    }
}

/// Writes `line` and its newline as one buffer, then flushes.
fn write_line(out: &mut dyn Write, line: &str) -> io::Result<()> {
    let mut msg = String::with_capacity(line.len() + 1);
    msg.push_str(line);
    msg.push('\n');
    out.write_all(msg.as_bytes())?;
    out.flush()
}

/// Serves one connection until EOF or a `shutdown` request. Request lines
/// are capped at [`MAX_REQUEST_BYTES`]: an oversized line gets an error
/// response and closes the connection, since its line boundary is lost. A
/// line that is not UTF-8 gets an error response and the connection keeps
/// serving. Both still count as requests, with one `serve.request.invalid`
/// sample each, so `metrics` totals reconcile with `serve.requests` on
/// every path.
pub(crate) fn serve_connection(
    svc: &impl Service,
    reader: impl BufRead,
    writer: impl Write,
) -> io::Result<()> {
    serve_lines(svc, reader, writer, false)
}

/// The connection loop. With `socket`, reads carry a timeout, and the loop
/// also ends at a line boundary or an idle moment once a server-wide
/// shutdown has been requested (from any connection).
fn serve_lines(
    svc: &impl Service,
    mut reader: impl BufRead,
    writer: impl Write,
    socket: bool,
) -> io::Result<()> {
    let mut writer = BufWriter::with_capacity(WRITE_BUFFER, writer);
    let mut buf = Vec::new();
    loop {
        if socket && svc.is_shutting_down() {
            return Ok(());
        }
        match fill_line(&mut reader, &mut buf) {
            Ok(LineStatus::Eof) => return Ok(()),
            Ok(LineStatus::TooLong) => {
                count_unparseable(svc, MAX_REQUEST_BYTES);
                let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                return write_line(&mut writer, &protocol::render_error(None, &msg));
            }
            Ok(LineStatus::Complete) => {
                let keep_going = match std::str::from_utf8(&buf) {
                    Ok(line) => svc.handle_line(line, &mut writer)?,
                    Err(_) => {
                        count_unparseable(svc, buf.len());
                        let msg = "request line is not valid UTF-8";
                        write_line(&mut writer, &protocol::render_error(None, msg))?;
                        true
                    }
                };
                buf.clear();
                if !keep_going {
                    return Ok(());
                }
            }
            // A read timeout: partial data (if any) stays in `buf`; loop
            // to re-check the shutdown flag, then keep reading.
            Err(e)
                if socket
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Accounts a request that never reached [`Service::handle_line`].
fn count_unparseable(svc: &impl Service, bytes: usize) {
    svc.count_request();
    let registry = svc.registry();
    registry.counter_add("serve.bytes_read", bytes as u64);
    registry.observe("serve.request.invalid", 0.0);
    registry.counter_add("serve.errors", 1);
}

/// Accepts and serves TCP connections until shutdown, each on its own
/// thread. A connection beyond [`Service::max_connections`] is answered
/// with one `busy` line and closed instead of being queued.
pub(crate) fn serve_tcp(svc: &impl Service, listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let open = AtomicUsize::new(0);
    let limit = svc.max_connections();
    std::thread::scope(|scope| loop {
        if svc.is_shutting_down() {
            return Ok(());
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if open.fetch_add(1, Ordering::SeqCst) < limit {
                    let open = &open;
                    scope.spawn(move || {
                        // Per-connection errors (reset, parse-level I/O)
                        // drop the connection, never the server.
                        let _ = serve_socket(svc, stream);
                        open.fetch_sub(1, Ordering::SeqCst);
                    });
                } else {
                    open.fetch_sub(1, Ordering::SeqCst);
                    svc.registry().counter_add("serve.rejected", 1);
                    let msg = format!("server is at its connection limit ({limit}); retry later");
                    let _ = write_line(&mut stream, &protocol::render_busy(None, &msg));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    })
}

/// One TCP connection: Nagle off, and a short read timeout so the loop
/// notices a server-wide shutdown while a client holds the socket open.
fn serve_socket(svc: &impl Service, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(svc, reader, stream, true)
}

/// Serves Prometheus text-format scrapes of [`Service::metrics_snapshot`]
/// until shutdown. Each accepted connection gets one HTTP/1.0 response and
/// is closed; the request head is read (bounded, best-effort) only to be
/// polite to HTTP clients.
pub(crate) fn serve_metrics(svc: &impl Service, listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if svc.is_shutting_down() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                svc.registry().counter_add("serve.scrapes", 1);
                let _ = answer_scrape(svc, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One exposition response: drain the request head (until a blank line,
/// EOF, a small cap, or a short timeout — scrapers vary), then write the
/// snapshot and close.
fn answer_scrape(svc: &impl Service, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 8 * 1024 {
                    break;
                }
            }
            // A client that writes nothing (netcat probing the port)
            // still deserves the snapshot.
            Err(_) => break,
        }
    }
    let body = svc.metrics_snapshot().render_prometheus();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
