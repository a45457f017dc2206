//! The sp-serve server binary.
//!
//! ```text
//! sp-serve [--addr HOST:PORT] [--workers K] [--budget-mib M]
//!          [--spill-dir DIR] [--durability off|wal] [--group-commit N]
//!          [--no-fsync] [--obs] [--slow-ms MS]
//! ```
//!
//! Binds, prints the resolved address on stdout (`listening on …`), and
//! serves every connection on the epoll reactor, run by the `--workers`
//! threads in turns, until killed. `--io
//! reactor` is accepted and changes nothing; any other `--io` value is
//! an error. With `--durability wal`, startup first recovers
//! every session from its log — checkpoint plus tail (so a `kill -9`
//! loses nothing acknowledged), and each state-mutating op is logged
//! before its response — group-committed every `--group-commit` jobs
//! per worker. `--no-fsync` keeps the WAL cadence but skips the
//! syscall (benchmarks, throwaway data). `--obs` turns on request
//! tracing, the latency histograms and the `metrics` / `trace_tail`
//! ops; `--slow-ms` additionally logs one structured
//! line per request at least that slow. See the crate README for the
//! wire protocol, the WAL format, and the span phase diagram.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use sp_serve::config::{Durability, ServeConfig};
use sp_serve::obs::ObsConfig;
use sp_serve::server::Server;

fn usage() -> String {
    "usage: sp-serve [--addr HOST:PORT] [--workers K] [--budget-mib M] \
     [--spill-dir DIR] [--durability off|wal] [--group-commit N] \
     [--no-fsync] [--obs] [--slow-ms MS]"
        .to_owned()
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::new().addr("127.0.0.1:7171");
    let mut group_commit: Option<usize> = None;
    let mut fsync = true;
    let mut obs = false;
    let mut slow_ms: Option<u64> = None;
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        match a.as_str() {
            "--addr" => config = config.addr(value("--addr")?),
            "--workers" => {
                let workers = value("--workers")?
                    .parse()
                    .map_err(|_| "bad --workers value".to_owned())?;
                config = config.workers(workers);
            }
            "--budget-mib" => {
                let mib: usize = value("--budget-mib")?
                    .parse()
                    .map_err(|_| "bad --budget-mib value".to_owned())?;
                config = config.memory_budget(mib << 20);
            }
            "--spill-dir" => config = config.spill_dir(value("--spill-dir")?),
            "--io" => match value("--io")?.as_str() {
                "reactor" => {}
                other => {
                    return Err(format!(
                        "bad --io value {other:?}: the epoll reactor is the only engine \
                         (--io reactor)"
                    ))
                }
            },
            "--durability" => {
                config = config.durability(match value("--durability")?.as_str() {
                    "off" => Durability::Off,
                    "wal" => Durability::wal(),
                    other => return Err(format!("bad --durability value {other:?} (off|wal)")),
                });
            }
            "--group-commit" => {
                let n: usize = value("--group-commit")?
                    .parse()
                    .map_err(|_| "bad --group-commit value".to_owned())?;
                group_commit = Some(n.max(1));
            }
            "--no-fsync" => fsync = false,
            "--obs" => obs = true,
            "--slow-ms" => {
                let ms: u64 = value("--slow-ms")?
                    .parse()
                    .map_err(|_| "bad --slow-ms value".to_owned())?;
                slow_ms = Some(ms);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    // The WAL tuning flags refine --durability wal rather than imply
    // it: `--no-fsync` alone must not silently switch logging on.
    if let Durability::Wal {
        group_commit: default_gc,
        ..
    } = config.registry.durability
    {
        config = config.durability(Durability::Wal {
            group_commit: group_commit.unwrap_or(default_gc),
            fsync,
        });
    } else if group_commit.is_some() {
        return Err("--group-commit only applies with --durability wal".to_owned());
    }
    // Same refinement discipline: --slow-ms tunes --obs, it must not
    // silently switch observability on.
    if obs {
        config = config.obs(ObsConfig {
            enabled: true,
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            ..ObsConfig::default()
        });
    } else if slow_ms.is_some() {
        return Err("--slow-ms only applies with --obs".to_owned());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = config.registry.memory_budget;
    let workers = config.workers;
    let durability = config.registry.durability;
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sp-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recovered = server.registry().stats().wal_replays;
    println!(
        "listening on {} ({} workers, {} MiB budget, durability {})",
        server.local_addr(),
        workers,
        budget >> 20,
        match durability {
            Durability::Off => "off".to_owned(),
            Durability::Wal {
                group_commit,
                fsync,
            } => format!(
                "wal (group commit {group_commit}, fsync {}, {recovered} records replayed)",
                if fsync { "on" } else { "off" },
            ),
        },
    );
    // Serve until the process is killed: the workers serve every
    // connection on their own threads, so just park this one.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeConfig, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn io_accepts_only_the_reactor() {
        let with_io = parse(&["--io", "reactor", "--workers", "3"]).expect("--io reactor parses");
        let without = parse(&["--workers", "3"]).expect("no --io parses");
        // The config carries no engine: `--io reactor` leaves it as if
        // the flag were absent.
        assert_eq!(format!("{with_io:?}"), format!("{without:?}"));

        let err = parse(&["--io", "threaded"]).expect_err("the threaded engine is gone");
        assert!(
            err.contains("\"threaded\"") && err.contains("the epoll reactor is the only engine"),
            "{err}"
        );
        assert!(parse(&["--io"]).is_err(), "--io still requires a value");
    }
}
