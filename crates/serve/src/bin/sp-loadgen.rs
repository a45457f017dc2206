//! The sp-serve closed-loop load generator.
//!
//! ```text
//! sp-loadgen --addr HOST:PORT [--clients C] [--sessions S]
//!            [--requests R] [--peers N] [--seed SEED]
//!            [--quick | --acceptance] [--verify]
//!            [--server-metrics] [--resume-at K1] [--crash-at K2]
//! ```
//!
//! Builds the deterministic mixed workload (`sp_serve::workload`),
//! replays it over `C` connections (session `i` is driven by client
//! `i % C`, preserving per-session order), and prints throughput,
//! **per-op latency histograms** (fixed machine-independent HDR-style
//! buckets — p50/p99/p999), and the server's registry counters; the same
//! numbers are emitted as one sp-json object on the final line. With
//! `--verify` it also executes the single-threaded no-eviction reference
//! in-process and fails unless the served responses are bit-identical.
//!
//! The crash gate splits one script across a server restart:
//! `--crash-at K` replays (and verifies) only requests `[0, K)` — every
//! one acknowledged before exit, so a `kill -9` immediately afterwards
//! models a crash with K committed requests — and `--resume-at K`
//! replays `[K, end)` against the restarted server and verifies against
//! the *same* reference slice, proving the recovered state is
//! bit-identical to never having crashed. Both together replay the
//! window `[K1, K2)`, so a run can crash again after a recovery. Resume
//! mode finishes with a `wal_verify` audit sweep over every workload
//! session.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::net::ToSocketAddrs;
use std::process::ExitCode;

use sp_json::{json, Value};
use sp_obs::{format_ns, Histogram};
use sp_serve::client::ServeClient;
use sp_serve::wire::{ResultBody, ServiceStats};
use sp_serve::workload::{self, WorkloadConfig};

struct Args {
    addr: String,
    clients: usize,
    verify: bool,
    server_metrics: bool,
    crash_at: Option<usize>,
    resume_at: Option<usize>,
    cfg: WorkloadConfig,
}

fn usage() -> String {
    "usage: sp-loadgen --addr HOST:PORT [--clients C] [--sessions S] [--requests R] \
     [--peers N] [--seed SEED] [--quick | --acceptance] [--verify] \
     [--server-metrics] [--resume-at K1] [--crash-at K2]"
        .to_owned()
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        clients: 8,
        verify: false,
        server_metrics: false,
        crash_at: None,
        resume_at: None,
        cfg: WorkloadConfig::quick(),
    };
    let mut it = raw.into_iter();
    let mut explicit = Vec::new();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        let parse_usize =
            |flag: &str, v: String| v.parse::<usize>().map_err(|_| format!("bad {flag} value"));
        match a.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--clients" => args.clients = parse_usize("--clients", value("--clients")?)?,
            "--sessions" => {
                explicit.push(("sessions", parse_usize("--sessions", value("--sessions")?)?));
            }
            "--requests" => {
                explicit.push(("requests", parse_usize("--requests", value("--requests")?)?));
            }
            "--peers" => explicit.push(("peers", parse_usize("--peers", value("--peers")?)?)),
            "--seed" => {
                args.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_owned())?;
            }
            "--quick" => {
                args.cfg = WorkloadConfig {
                    seed: args.cfg.seed,
                    ..WorkloadConfig::quick()
                }
            }
            "--acceptance" => {
                args.cfg = WorkloadConfig {
                    seed: args.cfg.seed,
                    ..WorkloadConfig::acceptance()
                };
            }
            "--verify" => args.verify = true,
            "--server-metrics" => args.server_metrics = true,
            "--crash-at" => {
                args.crash_at = Some(parse_usize("--crash-at", value("--crash-at")?)?);
            }
            "--resume-at" => {
                args.resume_at = Some(parse_usize("--resume-at", value("--resume-at")?)?);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    for (k, v) in explicit {
        match k {
            "sessions" => args.cfg.sessions = v,
            "requests" => args.cfg.requests = v,
            "peers" => args.cfg.peers = v,
            _ => unreachable!(),
        }
    }
    if args.addr.is_empty() {
        return Err(format!("--addr is required\n{}", usage()));
    }
    Ok(args)
}

/// Aggregates per-op latency histograms keyed by op name, iterating in
/// script order so the key order is deterministic for a given workload.
fn per_op_histograms(
    script: &[workload::ScriptRequest],
    latencies: &[u64],
) -> BTreeMap<&'static str, Histogram> {
    let mut by_op: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for (r, &nanos) in script.iter().zip(latencies) {
        by_op
            .entry(r.request.code().name())
            .or_default()
            .record(nanos);
    }
    by_op
}

/// Fetches and prints the server's metrics (`metrics` op) and
/// the slow end of its trace ring (`trace_tail`): counters and gauges
/// as `name=value` lines, histograms and spans with human-readable
/// latencies. Requires the server to run with `--obs`.
fn print_server_metrics(addr: std::net::SocketAddr) -> Result<(), String> {
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("metrics connect failed: {e}"))?;
    let body = client
        .metrics()
        .map_err(|e| format!("metrics query failed: {e} (is the server running with --obs?)"))?;
    println!(
        "server metrics: {} counters, {} gauges, {} histograms",
        body.counters.len(),
        body.gauges.len(),
        body.histograms.len(),
    );
    for (name, v) in body.counters.iter().chain(&body.gauges) {
        println!("  {name} = {v}");
    }
    for h in &body.histograms {
        println!(
            "  {:>24}  n={:<6} p50={:>8} p99={:>8} max={:>8}",
            h.name,
            h.count,
            format_ns(h.p50_ns),
            format_ns(h.p99_ns),
            format_ns(h.max_ns),
        );
    }
    let spans = client
        .trace_tail(Some(8), None)
        .map_err(|e| format!("trace_tail query failed: {e}"))?;
    println!("trace tail ({} spans):", spans.len());
    for s in &spans {
        println!(
            "  seq={:<8} op={:<14} total={}",
            s.seq,
            s.op,
            format_ns(s.total_ns),
        );
    }
    Ok(())
}

/// Prints the server's registry counters as `name = value` lines.
fn print_stats(s: &ServiceStats) {
    println!("server stats:");
    for (name, v) in [
        ("requests_served", s.requests_served),
        ("sessions_created", s.sessions_created),
        ("sessions_evicted", s.sessions_evicted),
        ("sessions_restored", s.sessions_restored),
        ("queue_depth_hwm", s.queue_depth_hwm as u64),
        ("resident_sessions", s.resident_sessions as u64),
        ("resident_bytes", s.resident_bytes as u64),
    ] {
        println!("  {name} = {v}");
    }
}

/// Audits every workload session's WAL over the wire: `wal_verify`
/// re-scans each log (CRC + hash chain) server-side. Any failure —
/// including `bad_frame`/`chain_broken` from a tampered log — is fatal.
fn audit_sessions(addr: std::net::SocketAddr, sessions: usize) -> Result<(), String> {
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("audit connect failed: {e}"))?;
    let mut records = 0u64;
    for i in 0..sessions {
        let name = workload::session_name(i);
        match client.wal_verify(&name) {
            Ok(ResultBody::WalVerified { records: n, .. }) => records += n,
            Ok(other) => return Err(format!("{name}: unexpected audit body {other:?}")),
            Err(e) => return Err(format!("{name}: wal_verify failed: {e}")),
        }
    }
    println!("wal audit: {sessions} session logs verified clean ({records} records)");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match args.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("sp-loadgen: cannot resolve {}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload: {} requests over {} sessions of {} peers (seed {}), {} clients",
        args.cfg.requests, args.cfg.sessions, args.cfg.peers, args.cfg.seed, args.clients,
    );
    let script = workload::build_script(&args.cfg);
    // The crash gate replays a window of the full script; the mapping of
    // session i to client i % C depends only on session_index, so a
    // window replays over the same connections it would in a full run.
    let lo = args.resume_at.unwrap_or(0);
    let hi = args.crash_at.unwrap_or(script.len());
    if lo > script.len() || hi > script.len() || lo >= hi {
        eprintln!(
            "sp-loadgen: window [{lo}, {hi}) is empty or outside the {}-request script",
            script.len()
        );
        return ExitCode::FAILURE;
    }
    let window = &script[lo..hi];
    if lo > 0 || hi < script.len() {
        println!(
            "window: requests [{lo}, {hi}) of {} ({} mode)",
            script.len(),
            match (args.resume_at, args.crash_at) {
                (Some(_), Some(_)) => "resume, then crash",
                (Some(_), None) => "resume",
                _ => "crash",
            },
        );
    }
    let outcome = match workload::replay(addr, window, args.clients) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sp-loadgen: replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = outcome
        .responses
        .iter()
        .filter(|r| r.outcome.is_err())
        .count();
    let secs = outcome.wall.as_secs_f64();
    println!(
        "replayed {} requests in {:.2}s ({:.0} req/s), {} failed",
        window.len(),
        secs,
        window.len() as f64 / secs.max(1e-9),
        failed,
    );
    let by_op = per_op_histograms(window, &outcome.latencies);
    println!("per-op latency (closed-loop, includes queueing):");
    for (op, h) in &by_op {
        println!(
            "  {op:>13}  n={:<6} p50={:>8} p99={:>8} p999={:>8} max={:>8}",
            h.count(),
            format_ns(h.value_at_quantile(0.50)),
            format_ns(h.value_at_quantile(0.99)),
            format_ns(h.value_at_quantile(0.999)),
            format_ns(h.max()),
        );
    }
    match ServeClient::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
    {
        Ok(stats) => print_stats(&stats),
        Err(e) => eprintln!("sp-loadgen: stats query failed: {e}"),
    }
    if args.server_metrics {
        if let Err(e) = print_server_metrics(addr) {
            eprintln!("sp-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Machine-readable summary: one sp-json object on the last line.
    let latency_value = Value::Object(
        by_op
            .iter()
            .map(|(op, h)| ((*op).to_owned(), h.to_value()))
            .collect(),
    );
    let summary = json!({
        "requests": window.len(),
        "offset": lo,
        "clients": args.clients,
        "wall_s": secs,
        "failed": failed,
        "latency_ns": latency_value,
    });
    println!("summary: {}", summary.to_string_compact());
    if failed > 0 {
        eprintln!("sp-loadgen: {failed} request(s) returned errors");
        return ExitCode::FAILURE;
    }
    if args.verify {
        println!("verifying against the single-threaded no-eviction reference…");
        // The reference executes the *full* script — recovery means the
        // served window must match the same window of a run that never
        // crashed — then only the replayed window is compared.
        let reference = workload::reference_typed(&script);
        match workload::verify(&outcome.responses, &reference[lo..hi]) {
            Ok(()) => println!("verify: all {} responses bit-identical", window.len()),
            Err(k) => {
                eprintln!(
                    "verify: response {} diverged\n  served:    {:?}\n  reference: {:?}",
                    lo + k,
                    outcome.responses[k],
                    reference[lo + k],
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if args.resume_at.is_some() {
        if let Err(e) = audit_sessions(addr, args.cfg.sessions) {
            eprintln!("sp-loadgen: wal audit failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
