//! `adhls serve` — run the long-lived exploration server.
//!
//! Clients speak the line-delimited JSON protocol documented in
//! `docs/PROTOCOL.md` over TCP (default) or this process's stdin/stdout
//! (`--stdio`, for harnesses and one-off piping). In the default
//! single-pool mode all connections share one evaluator pool: worker
//! threads, the budgeted cross-request result cache, and in-flight
//! coalescing. With `--workers N` the process becomes a router over N
//! worker backends (in-process by default, `--worker-mode process` for
//! child processes), consistent-hashing requests so each worker's cache
//! shard stays warm; see `docs/ARCHITECTURE.md`.

use crate::opts::Opts;
use adhls_core::sched::HlsOptions;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::{
    in_process_factory, spawn_process_worker, Router, RouterOptions, Server,
};

pub fn run(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &[
            "--addr",
            "--threads",
            "--cache-bytes",
            "--metrics-addr",
            "--slow-ms",
            "--workers",
            "--queue-cap",
            "--worker-mode",
        ],
        &["--stdio", "--strict"],
    )?;
    if !o.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    let cache_bytes = o.get("--cache-bytes").map(parse_bytes).transpose()?;
    let pool_opts = PoolOptions {
        threads: o.num("--threads", 0usize)?,
        // A server should answer what it can rather than fail a whole
        // request on one unschedulable cell; --strict restores the
        // fail-fast CLI behavior.
        skip_infeasible: !o.flag("--strict"),
        cache_bytes,
    };
    let workers = o.num("--workers", 0usize)?;
    if workers > 0 {
        return run_router(&o, workers, &pool_opts);
    }
    if o.get("--queue-cap").is_some() || o.get("--worker-mode").is_some() {
        return Err("--queue-cap/--worker-mode need router mode (--workers N)".into());
    }
    let pool = EvaluatorPool::new(
        adhls_reslib::tsmc90::library(),
        HlsOptions::default(),
        pool_opts,
    );
    let server = Server::new(pool);
    if let Some(ms) = o.get("--slow-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--slow-ms: `{ms}` is not a millisecond count"))?;
        server.set_slow_ms(ms);
    }

    if o.flag("--stdio") {
        if o.get("--addr").is_some() {
            return Err("--stdio and --addr are mutually exclusive".into());
        }
        // The exposition loop only winds down on protocol shutdown, which
        // a one-shot stdio session may never send.
        if o.get("--metrics-addr").is_some() {
            return Err("--metrics-addr needs the TCP server (drop --stdio)".into());
        }
        return server
            .serve_connection(std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| format!("serve (stdio): {e}"));
    }

    // Bind the metrics listener before announcing the protocol port, so a
    // bad --metrics-addr fails the whole command up front.
    let metrics_listener = match o.get("--metrics-addr") {
        None => None,
        Some(addr) => Some(
            std::net::TcpListener::bind(addr)
                .map_err(|e| format!("binding metrics address {addr}: {e}"))?,
        ),
    };
    let addr = o.get("--addr").unwrap_or("127.0.0.1:7130");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("resolving the bound address: {e}"))?;
    // One parseable line on stdout per listener so scripts (and the e2e
    // tests) learn the actual ports when an address ends in :0.
    println!("adhls serve listening on {local}");
    if let Some(ml) = &metrics_listener {
        let mlocal = ml
            .local_addr()
            .map_err(|e| format!("resolving the metrics address: {e}"))?;
        println!("adhls serve metrics on {mlocal}");
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    // The exposition loop exits on the same shutdown flag serve_tcp honors,
    // so the scope joins as soon as a client sends `shutdown`.
    std::thread::scope(|scope| {
        if let Some(ml) = &metrics_listener {
            scope.spawn(|| {
                if let Err(e) = server.serve_metrics(ml) {
                    eprintln!("adhls serve: metrics listener failed: {e}");
                }
            });
        }
        server.serve_tcp(&listener)
    })
    .map_err(|e| format!("serve: {e}"))?;
    eprintln!("adhls serve: shutdown requested, exiting");
    Ok(())
}

/// Router mode (`--workers N`): spawn N worker backends and serve the
/// client protocol through the consistent-hashing router/aggregator.
fn run_router(o: &Opts, workers: usize, pool_opts: &PoolOptions) -> Result<(), String> {
    if o.get("--slow-ms").is_some() {
        return Err("--slow-ms applies to single-pool mode (drop --workers)".into());
    }
    let opts = RouterOptions {
        workers,
        queue_cap: o.num("--queue-cap", RouterOptions::default().queue_cap)?,
        ..RouterOptions::default()
    };
    if opts.queue_cap == 0 {
        return Err("--queue-cap must be >= 1".into());
    }
    let mode = o.get("--worker-mode").unwrap_or("thread");
    let factory = match mode {
        // Worker threads in this process, each over its own pool — the
        // default: no extra processes, same sharding and fault surface.
        "thread" => {
            let pool_opts = pool_opts.clone();
            in_process_factory(move |_idx| {
                EvaluatorPool::new(
                    adhls_reslib::tsmc90::library(),
                    HlsOptions::default(),
                    pool_opts.clone(),
                )
            })
        }
        // Child processes: this same binary in single-pool serve mode on
        // an ephemeral port, for real process isolation.
        "process" => {
            let mut forwarded: Vec<String> =
                vec!["serve".into(), "--addr".into(), "127.0.0.1:0".into()];
            for key in ["--threads", "--cache-bytes"] {
                if let Some(v) = o.get(key) {
                    forwarded.push(key.into());
                    forwarded.push(v.into());
                }
            }
            if o.flag("--strict") {
                forwarded.push("--strict".into());
            }
            Box::new(move |_idx| {
                let exe = std::env::current_exe()?;
                let mut cmd = std::process::Command::new(exe);
                cmd.args(&forwarded);
                spawn_process_worker(&mut cmd)
            })
        }
        other => {
            return Err(format!(
                "--worker-mode: `{other}` is not a worker mode (thread | process)"
            ))
        }
    };
    let router = Router::new(factory, opts).map_err(|e| format!("spawning workers: {e}"))?;

    if o.flag("--stdio") {
        if o.get("--addr").is_some() {
            return Err("--stdio and --addr are mutually exclusive".into());
        }
        if o.get("--metrics-addr").is_some() {
            return Err("--metrics-addr needs the TCP server (drop --stdio)".into());
        }
        return router
            .serve_connection(std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| format!("serve (stdio): {e}"));
    }

    let metrics_listener = match o.get("--metrics-addr") {
        None => None,
        Some(addr) => Some(
            std::net::TcpListener::bind(addr)
                .map_err(|e| format!("binding metrics address {addr}: {e}"))?,
        ),
    };
    let addr = o.get("--addr").unwrap_or("127.0.0.1:7130");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("resolving the bound address: {e}"))?;
    println!("adhls serve listening on {local}");
    println!(
        "adhls serve routing over {} {mode} workers",
        router.workers()
    );
    if let Some(ml) = &metrics_listener {
        let mlocal = ml
            .local_addr()
            .map_err(|e| format!("resolving the metrics address: {e}"))?;
        println!("adhls serve metrics on {mlocal}");
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    std::thread::scope(|scope| {
        if let Some(ml) = &metrics_listener {
            scope.spawn(|| {
                if let Err(e) = router.serve_metrics(ml) {
                    eprintln!("adhls serve: metrics listener failed: {e}");
                }
            });
        }
        router.serve_tcp(&listener)
    })
    .map_err(|e| format!("serve: {e}"))?;
    eprintln!("adhls serve: shutdown requested, exiting");
    Ok(())
}

/// Parses a byte count with an optional binary `k`/`m`/`g` suffix
/// (case-insensitive): `1048576`, `1024k`, `64m`, `2g`.
fn parse_bytes(v: &str) -> Result<usize, String> {
    let (digits, mult) = match v.trim().to_ascii_lowercase() {
        s if s.ends_with('k') => (s[..s.len() - 1].to_string(), 1usize << 10),
        s if s.ends_with('m') => (s[..s.len() - 1].to_string(), 1usize << 20),
        s if s.ends_with('g') => (s[..s.len() - 1].to_string(), 1usize << 30),
        s => (s, 1),
    };
    let n: usize = digits
        .parse()
        .map_err(|_| format!("--cache-bytes: `{v}` is not a byte count (e.g. 1048576, 64m)"))?;
    n.checked_mul(mult)
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("--cache-bytes: `{v}` must be >= 1 and fit in memory"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counts_parse_with_suffixes() {
        assert_eq!(parse_bytes("4096"), Ok(4096));
        assert_eq!(parse_bytes("4k"), Ok(4096));
        assert_eq!(parse_bytes("2M"), Ok(2 << 20));
        assert_eq!(parse_bytes("1g"), Ok(1 << 30));
        assert!(parse_bytes("0").is_err());
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("-1").is_err());
    }
}
