//! `sp-serve` — the concurrent multi-session evaluation service.
//!
//! PRs 1–4 made one [`sp_core::GameSession`] fast; this crate is the
//! layer that runs **many** of them at once, the unit of multi-tenancy
//! being exactly the paper's unit of analysis: one isolated game
//! instance per named session. The pieces:
//!
//! * [`registry::SessionRegistry`] — one mutex-guarded map of named
//!   sessions with **LRU eviction under a global memory budget**
//!   (semantic byte accounting via [`sp_core::GameSession::memory_bytes`],
//!   so eviction decisions are deterministic and machine-independent).
//!   Evicted sessions spill as a checkpoint in their one file (the
//!   session's log) and are restored transparently on their next
//!   request, bit-identically ([`snapshot`], property-tested in
//!   `tests/proptest_snapshot.rs`).
//! * A **worker-pool scheduler** inside the registry: requests to one
//!   session execute strictly in submission order (one worker owns a
//!   session at a time), distinct sessions run in parallel across the
//!   pool, and a job has one non-blocking way in. The service's
//!   backpressure is **per connection**: a connection has at most its
//!   pipeline window in flight, so a session's queue never outgrows the
//!   connections addressing it.
//! * [`wire`] / [`server`] / [`client`] — the typed protocol layer
//!   (re-exporting `sp-wire`'s [`wire::Request`] / [`wire::Response`]
//!   enums, stable [`wire::ErrorCode`]s, and the binary codec) over
//!   length-prefixed frames on plain `std::net` TCP, with ops `create`
//!   / `load` / `apply` / `apply_batch` / `best_response` / `nash_gap`
//!   / `social_cost` / `stretch` / `run_dynamics` / `snapshot` /
//!   `evict` plus registry-level `stats` and `ping`. Every connection
//!   opens with a JSON `hello` for protocol 2 and speaks binary after
//!   it (frame layout, op-code table, and the handshake diagram are in
//!   this crate's README).
//! * [`reactor`] — the connection engine: one epoll poller on
//!   nonblocking sockets driving every connection, with **pipelined
//!   frames** (responses always return in request order). It has no
//!   thread of its own: the registry workers take turns polling it
//!   (leader/followers), the worker that reads a request runs it, and
//!   the worker that finishes a reply writes it. It needs Linux;
//!   elsewhere [`server::Server::start`] fails with `Unsupported`.
//! * [`workload`] — a deterministic mixed-workload generator, a
//!   single-threaded no-eviction **reference executor**, and a
//!   closed-loop multi-connection replayer; the `sp-loadgen` bin wraps
//!   it, and the replay integration test proves a 10k-request run over
//!   256 sessions under a 32 MiB budget (forcing evict/restore cycles)
//!   answers bit-identically to the reference.
//! * [`wal`] + [`config::Durability`] — per-session **write-ahead
//!   logging**: every state-mutating op is appended (CRC-framed,
//!   fnv1a hash-chained) before its response is released, synced once
//!   per log per worker drain batch (group commit), rewritten as a
//!   checkpoint on spill, and replayed from the tail on startup — so a
//!   `kill -9` loses nothing acknowledged, and the chain doubles as a
//!   tamper-evident audit trail queryable via `wal_head` /
//!   `wal_verify`.
//! * [`obs`] (over the `sp-obs` crate) — opt-in observability:
//!   per-request **spans** stamped at every pipeline seam (decode →
//!   enqueue → dequeue → execute → wal → fsync → encode → flush) into
//!   fixed-size ring buffers, fixed-bucket latency histograms, and two
//!   wire ops — `metrics` (0x1D), the one exporter of the service's
//!   counters (plain atomics; the registry's always count), and
//!   `trace_tail` (0x1E).
//!   Observation never steers: with `--obs` on, responses stay
//!   bit-identical to an unobserved run.
//! * [`config::ServeConfig`] — the one builder-style front door for
//!   every server knob (address, workers, budget,
//!   durability, observability), parsed once in `sp-serve` and threaded
//!   through server → reactor → registry.
//!
//! Determinism is the design axis throughout: session ops never depend
//! on registry state, responses never leak scheduling, and floating
//! point crosses the wire as raw IEEE-754 bits (lossless, `∞`-safe) —
//! which is what makes "bit-identical under concurrency and eviction"
//! a testable contract rather than a hope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod obs;
pub mod ops;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod snapshot;
pub mod spec;
pub mod wal;
pub mod wire;
pub mod workload;
