//! The one front door for configuring a server: a builder-style
//! [`ServeConfig`] parsed once (in `sp-serve`) and threaded through
//! server → reactor → registry, so a new knob is one field and one
//! builder method instead of signature churn across four files.
//!
//! ```no_run
//! use sp_serve::config::{Durability, ServeConfig};
//! use sp_serve::server::Server;
//!
//! let server = Server::start(
//!     ServeConfig::new()
//!         .addr("127.0.0.1:7171")
//!         .workers(4)
//!         .memory_budget(64 << 20)
//!         .durability(Durability::wal()),
//! ).unwrap();
//! # server.shutdown();
//! ```

use std::path::PathBuf;

use crate::obs::ObsConfig;
use crate::registry::RegistryConfig;
use crate::server::IoModel;

/// Whether (and how) sessions keep a write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No WAL: acknowledged work since the last spill dies with the
    /// process. The historical behaviour, and the default.
    Off,
    /// Per-session write-ahead logging ([`crate::wal`]): every
    /// state-mutating op is appended before its response is released,
    /// synced once per worker drain batch.
    Wal {
        /// Upper bound on jobs a worker drains (and therefore acks)
        /// per commit — the group-commit batch size.
        group_commit: usize,
        /// Whether commits actually `fsync`. Turning this off keeps
        /// the exact commit cadence (and counters) while eliding the
        /// syscall — for benches and tests on throwaway data.
        fsync: bool,
    },
}

impl Durability {
    /// The production WAL setting: group commit of 32, real fsyncs.
    #[must_use]
    pub fn wal() -> Durability {
        Durability::Wal {
            group_commit: 32,
            fsync: true,
        }
    }

    /// Whether write-ahead logging is on.
    #[must_use]
    pub fn is_wal(&self) -> bool {
        matches!(self, Durability::Wal { .. })
    }

    /// Whether commits issue real fsyncs.
    #[must_use]
    pub fn fsync(&self) -> bool {
        matches!(self, Durability::Wal { fsync: true, .. })
    }

    /// The worker drain-batch bound: the group-commit size under WAL,
    /// 1 otherwise (each job commits — trivially — on its own, which
    /// is byte-for-byte the historical scheduling).
    #[must_use]
    pub fn batch_cap(&self) -> usize {
        match *self {
            Durability::Off => 1,
            Durability::Wal { group_commit, .. } => group_commit.max(1),
        }
    }
}

/// Everything a [`crate::server::Server`] needs, with builder-style
/// setters. `ServeConfig::new()` is a working local default (ephemeral
/// port, reactor I/O, durability off).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 lets the OS pick (tests do).
    pub addr: String,
    /// Worker-pool size for the registry scheduler.
    pub workers: usize,
    /// Connection I/O engine.
    pub io: IoModel,
    /// The registry's slice: memory budget, spill directory,
    /// durability and observability.
    pub registry: RegistryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2),
            io: IoModel::Reactor,
            registry: RegistryConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The default configuration (alias of `Default`, reads better in
    /// builder chains).
    #[must_use]
    pub fn new() -> ServeConfig {
        ServeConfig::default()
    }

    /// Sets the bind address.
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-pool size.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the connection I/O engine.
    #[must_use]
    pub fn io(mut self, io: IoModel) -> Self {
        self.io = io;
        self
    }

    /// Sets the resident-session memory budget, in bytes.
    #[must_use]
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.registry.memory_budget = bytes;
        self
    }

    /// Sets the directory holding each session's file (its log).
    #[must_use]
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.registry.spill_dir = dir.into();
        self
    }

    /// Sets the write-ahead logging mode.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.registry.durability = durability;
        self
    }

    /// Sets the observability configuration.
    #[must_use]
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.registry.obs = obs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_threads_every_knob_into_the_registry_slice() {
        let cfg = ServeConfig::new()
            .addr("127.0.0.1:7171")
            .workers(3)
            .io(IoModel::Threaded)
            .memory_budget(1 << 20)
            .spill_dir("/tmp/x")
            .durability(Durability::Wal {
                group_commit: 16,
                fsync: false,
            })
            .obs(ObsConfig {
                enabled: true,
                slow_ns: Some(5),
                tick: true,
                quiet: true,
            });
        assert_eq!(cfg.addr, "127.0.0.1:7171");
        assert_eq!(cfg.workers, 3);
        let reg = &cfg.registry;
        assert_eq!(reg.memory_budget, 1 << 20);
        assert_eq!(reg.spill_dir, PathBuf::from("/tmp/x"));
        assert!(reg.durability.is_wal());
        assert!(!reg.durability.fsync());
        assert_eq!(reg.durability.batch_cap(), 16);
        assert!(reg.obs.enabled && reg.obs.tick && reg.obs.quiet);
        assert_eq!(reg.obs.slow_ns, Some(5));
        assert!(
            !ServeConfig::new().registry.obs.enabled,
            "obs is off by default"
        );
    }

    #[test]
    fn durability_defaults_and_caps() {
        assert!(!Durability::Off.is_wal());
        assert_eq!(Durability::Off.batch_cap(), 1);
        assert!(Durability::wal().is_wal());
        assert!(Durability::wal().fsync());
        assert_eq!(
            Durability::Wal {
                group_commit: 0,
                fsync: true
            }
            .batch_cap(),
            1,
            "a zero group commit still drains one job at a time"
        );
        assert!(!ServeConfig::new().registry.durability.is_wal());
    }
}
