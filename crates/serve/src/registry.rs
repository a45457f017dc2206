//! The session registry: one locked, name-ordered map of named
//! sessions ([`Session`]: dense or sparse) with LRU spill-to-disk
//! eviction under a global memory budget, and the worker-pool scheduler
//! that executes requests against them.
//!
//! The map lock is held only to find, insert or list entries; a walk
//! over the sessions copies their `Arc`s out before it takes any entry
//! lock.
//!
//! # Ordering and parallelism
//!
//! Every session owns a FIFO request queue. A session is *scheduled* by
//! pushing its entry onto the global ready queue exactly once; the
//! worker that pops it processes **one** request, then re-enqueues the
//! entry at the back if more requests are queued (round-robin fairness
//! across busy sessions). Because an entry is in the ready queue at
//! most once and only its owning worker touches its queue head,
//! requests to one session execute **strictly in submission order**
//! while distinct sessions run in parallel across the pool.
//!
//! # Threads: leader/followers
//!
//! The pool's workers are the server's only threads. Under a server
//! they also run the connection engine ([`crate::reactor`]) in turns:
//! a worker that finds no ready job, while no other worker *leads*,
//! becomes the leader and polls the sockets; the other idle workers
//! (the *followers*) wait on the ready queue's condvar. Jobs the leader
//! submits during its poll wake nobody. When the poll returns, the
//! leader keeps one ready job for itself and wakes one follower per job
//! left plus one to lead next — so a request read by a worker runs on
//! it, and its reply leaves from it, with no hand-off between threads.
//!
//! A job pushed onto the ready queue wakes a follower when one waits.
//! Pushed by a worker, it needs nothing more: that worker looks at the
//! queue again before it waits or polls. Pushed by any other thread (a
//! [`SessionRegistry::submit`] from a test or bench) while a worker is
//! parked in the poller and no follower waits, it wakes the poller.
//! Without a server ([`SessionRegistry::spawn_workers`] alone) the
//! workers only wait on the condvar.
//!
//! # Backpressure
//!
//! A job has one way in, [`SessionRegistry::submit_with`], which never
//! blocks, and one way out, the reply callback it carries.
//! [`SessionRegistry::submit`] wraps it in a channel for callers that
//! wait. The queues themselves are unbounded: the bound is per
//! connection, set by the reactor, which stops *reading* a connection
//! once `PIPELINE_WINDOW` of its frames are in flight (a client that
//! waits for each response has one). A session's queue depth is
//! therefore at most the sum of those bounds over the connections that
//! address it, and a flooding client stalls itself, not the pool.
//!
//! # Memory budget and eviction
//!
//! Every slot's footprint is accounted semantically —
//! [`Session::memory_bytes`] plus the game's metric store
//! (`8n²` for a dense matrix, `8n` for implicit line positions — see
//! `Game::metric_bytes`) plus a fixed per-entry overhead — in the same
//! machine-independent
//! style as the core's `OracleCache` budget, so eviction behaviour is
//! reproducible across hosts. When the total exceeds
//! [`RegistryConfig::memory_budget`], the least-recently-used idle
//! session is checkpointed into its one file,
//! `<spill_dir>/<name>-<fnv1a(name)>.wal` (the hash suffix keeps
//! case-distinct names distinct on case-insensitive filesystems; the
//! format is [`crate::wal`]'s, the checkpoint [`crate::snapshot`]'s),
//! and dropped; its next request restores it transparently,
//! bit-identically. Without a log, sessions whose state already
//! matches their file (not *dirty*) skip the write.
//!
//! # Work counters
//!
//! A session's [`SessionStats`] are banked into one registry total, and
//! zeroed, when a job ends, when a spill drops the session and when WAL
//! recovery rebuilds it, so each unit of work counts once whatever
//! becomes of the session. [`SessionRegistry::work_stats`] reads the
//! total.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use sp_core::SessionStats;
use sp_obs::{Phase, SpanHandle};

use crate::config::Durability;
use crate::obs::{ObsConfig, ServeObs};
use crate::ops::{self, Session};
use crate::reactor::Reactor;
use crate::snapshot;
use crate::wal::{self, SessionWal};
use crate::wire::{
    ErrorCode, Request, Response, ResultBody, ServiceStats, SessionOp, SessionRequest, WireError,
};

/// Fixed accounting overhead charged per registry slot (name, queue,
/// bookkeeping) on top of the session's own semantic size.
const ENTRY_OVERHEAD_BYTES: usize = 256;

/// How many times `enforce_budget` tolerates picking a victim that a
/// concurrent worker grabbed before giving up for this round (the next
/// completed request retries).
const EVICT_RETRIES: usize = 8;

/// Locks a mutex, recovering from poisoning. Every registry lock
/// protects state that is valid after any panic point (queues and
/// options mutated in single steps), so continuing with the inner value
/// is always sound — and it keeps the request path free of panics: one
/// crashed worker must not take the whole service down with it.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn shutdown_error() -> WireError {
    WireError::new(ErrorCode::Shutdown, "registry is shutting down")
}

/// Configuration of a [`SessionRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Global budget for resident sessions, in bytes. Exceeding it
    /// triggers LRU eviction of idle sessions.
    pub memory_budget: usize,
    /// Directory for the per-session files (created on registry start).
    pub spill_dir: PathBuf,
    /// Write-ahead logging mode ([`crate::wal`]). Under
    /// [`Durability::Wal`], every state-mutating op appends a WAL
    /// record before its response is released, startup rebuilds each
    /// session from its log's checkpoint plus tail, and a spill
    /// rewrites the log as a fresh checkpoint.
    pub durability: Durability,
    /// Observability ([`crate::obs`]): request spans, the metrics
    /// registry, and slow-request logging. Off by default — with it
    /// off no span is ever allocated and every instrumentation site
    /// is a skipped `Option` check.
    pub obs: ObsConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            memory_budget: 64 << 20,
            spill_dir: PathBuf::from("sp-serve-spill"),
            durability: Durability::Off,
            obs: ObsConfig::default(),
        }
    }
}

/// Where a finished job's response goes: a closure the worker calls
/// (the reactor encodes the frame and writes it to the connection;
/// [`SessionRegistry::submit`] sends on a channel).
type Reply = Box<dyn FnOnce(Response) + Send>;

/// A queued request plus where its response goes.
struct Job {
    request: SessionRequest,
    reply: Reply,
    /// The request's trace span, when observability is on and the
    /// connection engine started one at decode time.
    span: Option<SpanHandle>,
}

impl Job {
    /// Answers the job with [`ErrorCode::Shutdown`] instead of running
    /// it.
    fn refuse(self) {
        (self.reply)(Response::err(self.request.id, shutdown_error()));
    }
}

/// Mutable per-session state, guarded by the entry mutex.
#[derive(Default)]
struct EntryState {
    queue: VecDeque<Job>,
    /// `true` while the entry sits in the ready queue or a worker is
    /// processing or spilling it — the invariant that serialises a
    /// session's requests.
    scheduled: bool,
    /// `true` while a worker holds the session outside the lock.
    busy: bool,
    /// The resident session; `None` when spilled or not yet created.
    resident: Option<Session>,
    /// Whether the session logically exists (resident or spilled).
    created: bool,
    /// Whether resident state has diverged from the session's file.
    dirty: bool,
    /// Bytes currently charged against the global budget.
    bytes: usize,
    /// LRU stamp (global logical clock).
    last_used: u64,
    /// The session's write-ahead log, opened lazily on its first
    /// logged op (or eagerly by startup recovery). Shared so the
    /// group-commit batch can sync it after the entry lock is gone.
    wal: Option<Arc<Mutex<SessionWal>>>,
}

impl EntryState {
    /// Whether the budget enforcer may spill this session now: resident,
    /// and no worker holds it or will pick it up.
    fn evictable(&self) -> bool {
        self.resident.is_some() && !self.busy && !self.scheduled && self.queue.is_empty()
    }
}

struct SessionEntry {
    name: String,
    state: Mutex<EntryState>,
}

/// A point-in-time snapshot of the registry's counters. Each is one
/// atomic that counts whether or not observability is on; `stats`
/// answers with a subset, and [`crate::obs::ServeObs::metrics_body`]
/// exports the event counters under the names noted here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Requests executed to completion by the worker pool
    /// (`obs.queue_wait_events`: each waited in a session queue once).
    pub requests_served: u64,
    /// Sessions built by `create` requests.
    pub sessions_created: u64,
    /// Spill-and-drop events: budget-driven LRU evictions plus explicit
    /// `evict` requests (`obs.sessions_evicted`).
    pub sessions_evicted: u64,
    /// Sessions restored from spill files, transparently or via `load`
    /// (`obs.sessions_restored`).
    pub sessions_restored: u64,
    /// High-water mark of any single session's request queue depth
    /// (the `queue.depth_hwm` gauge).
    pub queue_depth_hwm: usize,
    /// Sessions currently resident in memory.
    pub resident_sessions: usize,
    /// Bytes currently charged against the budget.
    pub resident_bytes: usize,
    /// WAL records appended, all sessions (`obs.wal_append_events`).
    pub wal_records: u64,
    /// Worker drain batches that held at least one WAL append —
    /// the group-commit unit.
    pub wal_batches: u64,
    /// WAL commit points that had pending records to sync: group
    /// commits and the commit that opens a spill (`obs.fsync_batches`).
    /// With `fsync` off the syscall is elided but the cadence (and this
    /// counter) is identical.
    pub wal_fsyncs: u64,
    /// WAL records replayed by startup recovery.
    pub wal_replays: u64,
}

impl RegistryStats {
    /// The wire-protocol rendering of these counters.
    #[must_use]
    pub fn to_wire(&self) -> ServiceStats {
        ServiceStats {
            requests_served: self.requests_served,
            sessions_created: self.sessions_created,
            sessions_evicted: self.sessions_evicted,
            sessions_restored: self.sessions_restored,
            queue_depth_hwm: self.queue_depth_hwm,
            resident_sessions: self.resident_sessions,
            resident_bytes: self.resident_bytes,
        }
    }
}

/// A thread's part in the pool, which decides whom a ready push wakes
/// (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Not a worker: a test or bench thread calling `submit`.
    Outside,
    /// A worker, running jobs.
    Worker,
    /// The worker polling the reactor.
    Leader,
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Outside) };
}

/// The ready queue and who waits for it.
#[derive(Default)]
struct Ready {
    /// Scheduled entries, each at most once.
    entries: VecDeque<Arc<SessionEntry>>,
    /// Followers waiting on `ready_cv`.
    idle: usize,
    /// Whether a worker is polling the reactor.
    leading: bool,
}

/// The residency a worker checks out of an entry for one job;
/// [`SessionRegistry::run_job`] edits it in place.
struct Slot {
    /// The resident session; `None` when spilled or not yet created.
    resident: Option<Session>,
    /// Whether the session logically exists (resident or spilled).
    created: bool,
    /// Whether resident state has diverged from the session's file.
    dirty: bool,
}

/// The session map plus its worker-pool scheduler. See the module docs
/// for the ordering, backpressure, eviction and lock contracts.
pub struct SessionRegistry {
    sessions: Mutex<BTreeMap<String, Arc<SessionEntry>>>,
    ready: Mutex<Ready>,
    ready_cv: Condvar,
    /// The connection engine the workers take turns polling; unset
    /// without a server.
    reactor: OnceLock<Reactor>,
    stop: AtomicBool,
    clock: AtomicU64,
    total_bytes: AtomicUsize,
    config: RegistryConfig,
    requests_served: AtomicU64,
    sessions_created: AtomicU64,
    sessions_evicted: AtomicU64,
    sessions_restored: AtomicU64,
    queue_depth_hwm: AtomicUsize,
    wal_records: AtomicU64,
    wal_batches: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_replays: AtomicU64,
    /// The work counters of every session, banked by
    /// [`SessionRegistry::bank`] (see the module docs).
    work: Mutex<SessionStats>,
    /// The observability state; `None` when [`RegistryConfig::obs`] is
    /// disabled, which keeps every instrumentation site free.
    obs: Option<Arc<ServeObs>>,
}

/// A finished job whose response is held back until one log's commit:
/// the record it appended, or the records its session's log still had
/// pending when it ran (a reply must not report state that is not yet
/// durable). A job with neither replies from
/// [`SessionRegistry::process`] at once.
struct PendingReply {
    reply: Reply,
    response: Response,
    /// The log whose commit releases this reply.
    wal: Arc<Mutex<SessionWal>>,
    /// Whether the job appended a record to `wal`.
    appended: bool,
    span: Option<SpanHandle>,
}

impl SessionRegistry {
    /// Creates a registry (and its spill directory). Under
    /// [`Durability::Wal`], every log in the spill directory is
    /// recovered before this returns: torn tails truncated, each
    /// checkpoint restored and the tail after it replayed through the
    /// normal ops dispatch — workers start on a state provably equal
    /// to everything the previous process acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates spill-directory creation failures; WAL recovery
    /// fails (`InvalidData`) on corruption *before* a log's final
    /// record or on a replayed op the session now rejects — recovery
    /// must not guess at lost state.
    pub fn new(config: RegistryConfig) -> io::Result<Arc<Self>> {
        std::fs::create_dir_all(&config.spill_dir)?;
        let obs = ServeObs::new(&config.obs);
        let registry = Arc::new(SessionRegistry {
            sessions: Mutex::new(BTreeMap::new()),
            ready: Mutex::new(Ready::default()),
            ready_cv: Condvar::new(),
            reactor: OnceLock::new(),
            stop: AtomicBool::new(false),
            clock: AtomicU64::new(0),
            total_bytes: AtomicUsize::new(0),
            config,
            requests_served: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            sessions_restored: AtomicU64::new(0),
            queue_depth_hwm: AtomicUsize::new(0),
            wal_records: AtomicU64::new(0),
            wal_batches: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            wal_replays: AtomicU64::new(0),
            work: Mutex::new(SessionStats::default()),
            obs,
        });
        if registry.config.durability.is_wal() {
            registry.recover_sessions()?;
        }
        Ok(registry)
    }

    /// Hands the workers the connection engine to take turns at; the
    /// server calls this once, before it spawns them.
    pub(crate) fn attach(&self, reactor: Reactor) {
        let _ = self.reactor.set(reactor);
    }

    /// Spawns `count` worker threads draining the ready queue (and,
    /// under a server, taking turns at the reactor). Callable once or
    /// repeatedly (the pool is just a set of identical loops); the
    /// benches submit a burst *before* spawning to measure queue depth
    /// deterministically.
    pub fn spawn_workers(self: &Arc<Self>, count: usize) -> Vec<JoinHandle<()>> {
        (0..count.max(1))
            .map(|k| {
                let registry = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("sp-serve-worker-{k}"))
                    .spawn(move || registry.worker_loop())
                    // sp-lint: allow(panic-path, reason = "startup-time spawn before any request is accepted; no remote input reaches this")
                    .expect("failed to spawn worker thread")
            })
            .collect()
    }

    /// Enqueues a request and returns the receiver its response will
    /// arrive on — [`SessionRegistry::submit_with`] for callers that
    /// block; tests and benches are its only callers. After
    /// [`SessionRegistry::shutdown`] the response is an
    /// [`ErrorCode::Shutdown`] error.
    pub fn submit(
        &self,
        request: SessionRequest,
        span: Option<SpanHandle>,
    ) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(request, span, move |response| {
            // The submitter may have hung up (dead connection); that's
            // fine.
            let _ = tx.send(response);
        });
        rx
    }

    /// Enqueues a request **without blocking** and delivers the
    /// response through `reply` on the worker thread that finishes it
    /// (or at once, with [`ErrorCode::Shutdown`], if the registry is
    /// stopping). `span` is the request's trace span, stamped at each
    /// scheduler seam when observability is on. The caller bounds its
    /// own in-flight work (see the module docs on backpressure).
    pub fn submit_with(
        &self,
        request: SessionRequest,
        span: Option<SpanHandle>,
        reply: impl FnOnce(Response) + Send + 'static,
    ) {
        let job = Job {
            request,
            reply: Box::new(reply),
            span,
        };
        if self.stop.load(Ordering::Acquire) {
            job.refuse();
            return;
        }
        let entry = self.entry(&job.request.session);
        let mut st = lock_unpoisoned(&entry.state);
        // Final stop check *under the entry lock*: shutdown() drains
        // this queue under the same lock after setting the flag, so a
        // push that observes `stop == false` here is ordered before the
        // drain (which will then clear it) — a job can never be
        // enqueued after the drain has passed, which would strand its
        // submitter waiting on a response no worker is left to serve.
        if self.stop.load(Ordering::Acquire) {
            drop(st);
            job.refuse();
            return;
        }
        if let (Some(obs), Some(span)) = (&self.obs, &job.span) {
            obs.stamp(span, Phase::Enqueue);
        }
        st.queue.push_back(job);
        self.queue_depth_hwm
            .fetch_max(st.queue.len(), Ordering::Relaxed);
        if !st.scheduled {
            st.scheduled = true;
            drop(st);
            self.push_ready(entry);
        }
    }

    /// Stops the worker pool: in-flight requests finish, and queued or
    /// later requests are answered with [`ErrorCode::Shutdown`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // Close the connections first, so the refusals below are
        // silent drops rather than replies.
        if let Some(reactor) = self.reactor.get() {
            reactor.close();
        }
        self.ready_cv.notify_all();
        for e in self.entries() {
            // Drain queued jobs and answer each with a typed shutdown
            // error — a submit racing the stop flag must not strand its
            // caller (blocked in `recv`, or a reactor sequence slot
            // never completed). (A worker mid-process simply finds
            // an empty queue when it re-locks.)
            let drained: Vec<Job> = lock_unpoisoned(&e.state).queue.drain(..).collect();
            for job in drained {
                job.refuse();
            }
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let resident = self
            .entries()
            .iter()
            .filter(|e| {
                let st = lock_unpoisoned(&e.state);
                st.resident.is_some() || st.busy
            })
            .count();
        RegistryStats {
            requests_served: self.requests_served.load(Ordering::Relaxed),
            sessions_created: self.sessions_created.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            sessions_restored: self.sessions_restored.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            resident_sessions: resident,
            resident_bytes: self.total_bytes.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_batches: self.wal_batches.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_replays: self.wal_replays.load(Ordering::Relaxed),
        }
    }

    /// The registry's configuration (tests and bins introspect it).
    #[must_use]
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// The observability state, when [`RegistryConfig::obs`] enabled it.
    #[must_use]
    pub fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.obs.as_ref()
    }

    /// The work counters of every job the registry has run, evicted
    /// and restored incarnations included (see the module docs).
    #[must_use]
    pub fn work_stats(&self) -> SessionStats {
        *lock_unpoisoned(&self.work)
    }

    /// Merges a session's work counters into the registry's total and
    /// zeroes them, so that no later bank counts them again.
    fn bank(&self, session: &mut Session) {
        lock_unpoisoned(&self.work).merge(&session.stats());
        session.reset_stats();
    }

    /// Every entry, in name order, copied out so that no entry lock is
    /// taken under the map lock.
    fn entries(&self) -> Vec<Arc<SessionEntry>> {
        // sp-lint: allow(nondeterministic-iteration, reason = "BTreeMap values iterate in key order, the session names")
        lock_unpoisoned(&self.sessions).values().cloned().collect()
    }

    fn entry(&self, name: &str) -> Arc<SessionEntry> {
        let mut sessions = lock_unpoisoned(&self.sessions);
        if let Some(e) = sessions.get(name) {
            return Arc::clone(e);
        }
        let e = Arc::new(SessionEntry {
            name: name.to_owned(),
            state: Mutex::new(EntryState::default()),
        });
        sessions.insert(name.to_owned(), Arc::clone(&e));
        e
    }

    fn push_ready(&self, entry: Arc<SessionEntry>) {
        let mut ready = lock_unpoisoned(&self.ready);
        ready.entries.push_back(entry);
        let wake_poller = match ROLE.get() {
            // The leader hands its jobs out when its poll returns.
            Role::Leader => false,
            _ if ready.idle > 0 => {
                self.ready_cv.notify_one();
                false
            }
            // A worker looks at the queue again before it waits or
            // polls.
            Role::Worker => false,
            Role::Outside => ready.leading,
        };
        drop(ready);
        if wake_poller {
            if let Some(reactor) = self.reactor.get() {
                reactor.wake();
            }
        }
    }

    /// Whether a worker is polling the reactor now.
    #[cfg(test)]
    pub(crate) fn leading(&self) -> bool {
        lock_unpoisoned(&self.ready).leading
    }

    /// Blocks until a ready entry is this worker's, or returns `None`
    /// once the registry stops. While none is ready, the worker leads —
    /// polls the reactor — if nobody else does, and otherwise follows:
    /// waits on `ready_cv` (see the module docs).
    fn next_ready(&self) -> Option<Arc<SessionEntry>> {
        let mut ready = lock_unpoisoned(&self.ready);
        loop {
            if let Some(e) = ready.entries.pop_front() {
                return Some(e);
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            match self.reactor.get() {
                Some(reactor) if !ready.leading && reactor.is_open() => {
                    ready.leading = true;
                    drop(ready);
                    ROLE.set(Role::Leader);
                    reactor.lead(self);
                    ROLE.set(Role::Worker);
                    ready = lock_unpoisoned(&self.ready);
                    ready.leading = false;
                    if let Some(e) = ready.entries.pop_front() {
                        // Keep this job; wake a follower for each job
                        // left and one to lead next.
                        for _ in 0..ready.idle.min(ready.entries.len() + 1) {
                            self.ready_cv.notify_one();
                        }
                        return Some(e);
                    }
                }
                _ => {
                    ready.idle += 1;
                    ready = self
                        .ready_cv
                        .wait(ready)
                        .unwrap_or_else(PoisonError::into_inner);
                    ready.idle -= 1;
                }
            }
        }
    }

    /// Ends a worker's hold on `entry`, whose lock `st` is: re-queues
    /// the entry if jobs wait on it, else clears `scheduled`.
    fn release(&self, entry: &Arc<SessionEntry>, mut st: MutexGuard<'_, EntryState>) {
        if st.queue.is_empty() {
            st.scheduled = false;
        } else {
            drop(st);
            self.push_ready(Arc::clone(entry));
        }
    }

    fn worker_loop(&self) {
        // The drain-batch bound is the group-commit size: the records a
        // worker appends to one log between two commits share one
        // fsync. Without WAL the bound is 1 and nothing is ever held.
        let cap = self.config.durability.batch_cap();
        let mut held: Vec<PendingReply> = Vec::new();
        ROLE.set(Role::Worker);
        while let Some(entry) = self.next_ready() {
            let mut jobs = usize::from(self.process(&entry, &mut held));
            // Opportunistic drain: keep taking ready work while it's
            // there (never blocking — queued submitters must not wait
            // on an idle batch) until the commit bound fills.
            while jobs < cap {
                let Some(e) = lock_unpoisoned(&self.ready).entries.pop_front() else {
                    break;
                };
                jobs += usize::from(self.process(&e, &mut held));
            }
            self.commit_batch(jobs, &mut held);
        }
    }

    /// The group-commit point of a drain batch of `jobs` jobs: one
    /// [`SessionWal::commit`] per distinct log the `held` replies wait
    /// on, in the order the batch first touched them, each log's
    /// replies delivered right after its own commit. A failed commit
    /// turns that log's replies into typed I/O errors — neither an
    /// un-synced op nor a read of its state is ever acknowledged — and
    /// poisons the log (inside [`SessionWal::commit`]): a later batch
    /// must not retry the sync, because a "successful" fsync after a
    /// failed one may not cover the records these clients were told
    /// failed, and it would make them durable and replayable anyway.
    /// The poisoned session is quarantined by [`SessionRegistry::run_job`]
    /// until a restart recovers from what actually reached disk.
    fn commit_batch(&self, jobs: usize, held: &mut Vec<PendingReply>) {
        if held.iter().any(|p| p.appended) {
            self.wal_batches.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.wal_batch_jobs.record(jobs as u64);
            }
        }
        while let Some(w) = held.first().map(|p| Arc::clone(&p.wal)) {
            let commit_start = self.obs.as_ref().map(|o| o.now_ns());
            let committed = lock_unpoisoned(&w).commit();
            if let (Some(obs), Some(start)) = (&self.obs, commit_start) {
                obs.wal_fsync_ns.record(obs.now_ns().saturating_sub(start));
            }
            // `Ok(false)`: nothing was pending, because another commit
            // (a spill's, or another worker's) already synced it.
            if let Ok(true) = committed {
                self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            for mut p in held.extract_if(.., |p| Arc::ptr_eq(&p.wal, &w)) {
                match &committed {
                    Ok(_) => {
                        if let (Some(obs), Some(span)) = (&self.obs, &p.span) {
                            obs.stamp(span, Phase::Fsync);
                        }
                    }
                    Err(e) => {
                        p.response = Response::err(
                            p.response.id,
                            WireError::new(ErrorCode::Io, format!("wal commit failed: {e}")),
                        );
                    }
                }
                (p.reply)(p.response);
            }
        }
    }

    /// Charges `new_bytes` for this entry against the global total.
    fn account(&self, st: &mut EntryState, new_bytes: usize) {
        if new_bytes >= st.bytes {
            self.total_bytes
                .fetch_add(new_bytes - st.bytes, Ordering::Relaxed);
        } else {
            self.total_bytes
                .fetch_sub(st.bytes - new_bytes, Ordering::Relaxed);
        }
        st.bytes = new_bytes;
    }

    fn slot_bytes(session: &Session) -> usize {
        // `metric_bytes` is `8n²` for a dense matrix store — identical
        // to the historical accounting — and `8n` for implicit line
        // positions, which is what lets thousands of sparse sessions
        // share a budget that one dense session would blow.
        session.memory_bytes() + session.state().0.metric_bytes() + ENTRY_OVERHEAD_BYTES
    }

    /// The session's one file: its log, checkpoint included.
    fn log_path(&self, name: &str) -> PathBuf {
        // The name is suffixed with its (stable, portable) FNV-1a hash:
        // the registry distinguishes names by case, so on a
        // case-insensitive filesystem bare `<name>.wal` files for "A"
        // and "a" would silently overwrite each other and cross-wire
        // two sessions' restored state.
        let tag = sp_graph::fnv1a(name.as_bytes());
        self.config.spill_dir.join(format!("{name}-{tag:016x}.wal"))
    }

    /// The session's WAL handle, opened lazily on first use by the
    /// logged `op`. Only called under [`Durability::Wal`]. A `create`
    /// starts the session's history, so its log starts fresh; any
    /// other op runs on a session that came from a file (a `load` cold
    /// start nothing recovered at startup), and opening that file must
    /// never truncate it — its checkpoint is the session's only copy.
    fn wal_for(
        &self,
        name: &str,
        op: &SessionOp,
        slot: &mut Option<Arc<Mutex<SessionWal>>>,
    ) -> io::Result<Arc<Mutex<SessionWal>>> {
        if let Some(w) = slot {
            return Ok(Arc::clone(w));
        }
        let (path, fsync) = (self.log_path(name), self.config.durability.fsync());
        let wal = match op {
            SessionOp::Create(_) => SessionWal::create(&path, fsync)?,
            _ => SessionWal::open(&path, fsync)?,
        };
        let wal = Arc::new(Mutex::new(wal));
        *slot = Some(Arc::clone(&wal));
        Ok(wal)
    }

    /// Writes the session's checkpoint into its file.
    ///
    /// Without a log the file is rewritten only when it is stale. With
    /// one, the spill is two ordered steps: **commit** (unflushed
    /// appends hit disk first — the eviction edge: an idle session may
    /// hold records appended this batch but not yet group-committed),
    /// then **checkpoint** — one atomic rewrite of the log as a header
    /// carrying the same `(records, head)` and the session as it
    /// stands. A crash leaves either the old file or the new one, and
    /// the audit chain spans the rewrite.
    fn spill(
        &self,
        name: &str,
        session: &mut Session,
        dirty: bool,
        wal: Option<&Arc<Mutex<SessionWal>>>,
    ) -> io::Result<()> {
        let path = self.log_path(name);
        let Some(wal) = wal else {
            if dirty || !path.exists() {
                snapshot::save_session(&path, session)?;
            }
            return Ok(());
        };
        let checkpoint = snapshot::checkpoint(session)?;
        let mut w = lock_unpoisoned(wal);
        if w.commit()? {
            self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        // sp-lint: allow(lock-hygiene, reason = "deliberate hold-across-checkpoint: commit and rewrite must be atomic against concurrent appends, or the header could count records never flushed")
        w.checkpoint(checkpoint)
    }

    /// Executes the next job of `entry` with the session checked out,
    /// and returns whether there was one. The reply leaves at its
    /// durability point: a job that appended a record, or whose
    /// session's log still holds records no commit has synced, is
    /// *pushed onto `held`* for the caller's
    /// [`SessionRegistry::commit_batch`] — which is what makes the WAL
    /// append (done here, while the session is checked out) precede the
    /// acknowledgement; any other reply is delivered here.
    fn process(&self, entry: &Arc<SessionEntry>, held: &mut Vec<PendingReply>) -> bool {
        let (job, mut slot, mut wal) = {
            let mut st = lock_unpoisoned(&entry.state);
            let Some(job) = st.queue.pop_front() else {
                st.scheduled = false;
                return false;
            };
            st.busy = true;
            let slot = Slot {
                resident: st.resident.take(),
                created: st.created,
                dirty: st.dirty,
            };
            (job, slot, st.wal.clone())
        };
        if let (Some(obs), Some(span)) = (&self.obs, &job.span) {
            obs.stamp(span, Phase::Dequeue);
        }
        let mut response = self.run_job(&entry.name, &job.request, &mut slot, &mut wal);
        if let Some(session) = slot.resident.as_mut() {
            self.bank(session);
        }
        if let (Some(obs), Some(span)) = (&self.obs, &job.span) {
            obs.stamp(span, Phase::Execute);
        }
        // Append-before-acknowledge: a successful logged op goes into
        // the session's WAL here — before the entry unlocks, before
        // the reply is even queued. Failures flip the response to a
        // typed I/O error and poison the log rather than ever
        // acknowledging an op it does not witness; the mutated
        // resident state is installed below but unobservable — the
        // poisoned log quarantines the session (`run_job` fails every
        // later op) so reads can never serve the un-logged mutation.
        let mut wait = None;
        if self.config.durability.is_wal()
            && job.request.op.is_wal_logged()
            && response.outcome.is_ok()
        {
            let appended = self
                .wal_for(&entry.name, &job.request.op, &mut wal)
                .and_then(|w| {
                    lock_unpoisoned(&w).append(&Request::Session(job.request.clone()))?;
                    Ok(w)
                });
            match appended {
                Ok(w) => {
                    self.wal_records.fetch_add(1, Ordering::Relaxed);
                    if let (Some(obs), Some(span)) = (&self.obs, &job.span) {
                        obs.stamp(span, Phase::Wal);
                    }
                    wait = Some((w, true));
                }
                Err(e) => {
                    response = Response::err(
                        job.request.id,
                        WireError::new(ErrorCode::Io, format!("wal append failed: {e}")),
                    );
                }
            }
        } else if let Some(w) = wal.as_ref() {
            // Any other reply may report state that earlier records of
            // this session made (even an error can: "no such link"), so
            // it waits for those records' commit if no commit has
            // synced them yet. Checked while the session is still
            // checked out — nothing can append meanwhile — and with no
            // entry lock held, since a commit holds the log's mutex
            // across its fsync.
            if lock_unpoisoned(w).has_pending() {
                wait = Some((Arc::clone(w), false));
            }
        }
        {
            let mut st = lock_unpoisoned(&entry.state);
            st.busy = false;
            st.created = slot.created;
            st.dirty = slot.dirty;
            st.wal = wal;
            let new_bytes = slot.resident.as_ref().map_or(0, Self::slot_bytes);
            self.account(&mut st, new_bytes);
            st.resident = slot.resident;
            st.last_used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            self.release(entry, st);
        }
        // Enforce the budget *before* replying: a closed-loop client's
        // next submit happens only after it reads this response, so
        // with one worker and one client the whole run — eviction
        // decisions included — is strictly sequential, which is what
        // makes the serve_throughput counter pass reproducible. (It
        // also means stats read after a response never show the
        // registry above budget by more than the in-flight slots.)
        self.enforce_budget();
        // Count before replying: a submitter that reads `stats` right
        // after its response must see this request in the counter.
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        match wait {
            Some((wal, appended)) => held.push(PendingReply {
                reply: job.reply,
                response,
                wal,
                appended,
                span: job.span,
            }),
            None => (job.reply)(response),
        }
        true
    }

    /// The lifecycle-aware execution of one request against the
    /// checked-out `slot`, which it edits in place. Queries and
    /// mutations restore a spilled session transparently; `create`
    /// builds, `snapshot`/`evict` persist, `load` is an explicit
    /// restore. An explicit evict banks the session's work counters
    /// before it drops the session.
    fn run_job(
        &self,
        name: &str,
        request: &SessionRequest,
        slot: &mut Slot,
        wal: &mut Option<Arc<Mutex<SessionWal>>>,
    ) -> Response {
        let id = request.id;

        // The audit ops answer from the log alone — no residency, no
        // restore. Routed through the scheduler like everything else so
        // the answer is serialised against the session's own appends.
        if matches!(request.op, SessionOp::WalHead | SessionOp::WalVerify) {
            return self.wal_audit(name, request, slot.created, wal.as_ref());
        }

        // A poisoned log quarantines its session: after a failed append
        // or commit, resident state may hold mutations the durable log
        // does not witness (the op ran, the record didn't make it), so
        // serving *any* further op — reads included — could expose
        // un-logged state as if it were acknowledged. Every op fails
        // typed until a restart rebuilds the session from what actually
        // reached disk.
        if wal.as_ref().is_some_and(|w| lock_unpoisoned(w).is_broken()) {
            let e = WireError::new(
                ErrorCode::Io,
                format!(
                    "session {name:?} wal is poisoned by an earlier append or commit \
                     failure; restart the server to recover the durable state"
                ),
            );
            return Response::err(id, e);
        }

        if let SessionOp::Create(spec) = &request.op {
            if slot.created {
                let e = WireError::new(
                    ErrorCode::SessionExists,
                    format!("session {name:?} already exists"),
                );
                return Response::err(id, e);
            }
            return match ops::build(spec) {
                Ok(session) => {
                    self.sessions_created.fetch_add(1, Ordering::Relaxed);
                    let response = Response::ok(id, ops::created(&session));
                    *slot = Slot {
                        resident: Some(session),
                        created: true,
                        dirty: true,
                    };
                    response
                }
                Err(e) => Response::err(id, e),
            };
        }

        // `snapshot`/`evict` on an already-spilled session are no-ops:
        // a session is only non-resident after a successful spill (with
        // `dirty` cleared), so its file is already current — restoring
        // a multi-megabyte snapshot just to persist and re-drop it
        // would be pure waste and would inflate the gated
        // evict/restore counters.
        if slot.resident.is_none()
            && slot.created
            && matches!(request.op, SessionOp::Snapshot | SessionOp::Evict)
        {
            let result = match request.op {
                SessionOp::Snapshot => ResultBody::Persisted,
                _ => ResultBody::Evicted,
            };
            return Response::ok(id, result);
        }

        // Everything else needs a resident session: restore a spilled
        // one, or (for `load`) cold-start from a file nothing remembers.
        let mut resident = match slot.resident.take() {
            Some(s) => s,
            None => {
                if !slot.created && !matches!(request.op, SessionOp::Load) {
                    let e = WireError::new(
                        ErrorCode::UnknownSession,
                        format!("unknown session {name:?}"),
                    );
                    return Response::err(id, e);
                }
                match snapshot::load_session(&self.log_path(name)) {
                    Ok(s) => {
                        self.sessions_restored.fetch_add(1, Ordering::Relaxed);
                        slot.created = true;
                        slot.dirty = false;
                        s
                    }
                    Err(e) => {
                        let e = WireError::new(
                            ErrorCode::Io,
                            format!("cannot restore session {name:?}: {e}"),
                        );
                        return Response::err(id, e);
                    }
                }
            }
        };

        let response = match &request.op {
            SessionOp::Load => Response::ok(id, ops::loaded(&resident)),
            SessionOp::Snapshot => {
                match self.spill(name, &mut resident, slot.dirty, wal.as_ref()) {
                    Ok(()) => {
                        slot.dirty = false;
                        Response::ok(id, ResultBody::Persisted)
                    }
                    Err(e) => Response::err(
                        id,
                        WireError::new(ErrorCode::Io, format!("snapshot failed: {e}")),
                    ),
                }
            }
            // The explicit evict spills (checkpointing everything so
            // far) *before* `process` appends the evict record itself —
            // so a recovered tail may end with a trailing evict, which
            // replay treats as a placement-only no-op.
            SessionOp::Evict => match self.spill(name, &mut resident, slot.dirty, wal.as_ref()) {
                Ok(()) => {
                    self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
                    self.bank(&mut resident);
                    slot.dirty = false;
                    return Response::ok(id, ResultBody::Evicted);
                }
                Err(e) => Response::err(
                    id,
                    WireError::new(ErrorCode::Io, format!("evict failed: {e}")),
                ),
            },
            op => match ops::execute(op, &mut resident) {
                Ok(result) => {
                    slot.dirty |= op.is_mutating();
                    Response::ok(id, result)
                }
                // A failed mutation (validation happens up front)
                // leaves the session untouched.
                Err(e) => Response::err(id, e),
            },
        };
        slot.resident = Some(resident);
        response
    }

    /// Answers `wal_head` / `wal_verify` for one session.
    fn wal_audit(
        &self,
        name: &str,
        request: &SessionRequest,
        created: bool,
        wal: Option<&Arc<Mutex<SessionWal>>>,
    ) -> Response {
        let id = request.id;
        if !created {
            return Response::err(
                id,
                WireError::new(
                    ErrorCode::UnknownSession,
                    format!("unknown session {name:?}"),
                ),
            );
        }
        if !self.config.durability.is_wal() {
            return Response::err(
                id,
                WireError::new(ErrorCode::BadRequest, "write-ahead logging is disabled"),
            );
        }
        // A created session with no log yet (its log failed to open):
        // its chain is the empty one.
        let head = match wal {
            None => Ok(wal::WalHead {
                records: 0,
                head_hash: wal::genesis(),
            }),
            Some(w) => {
                let w = lock_unpoisoned(w);
                if w.is_broken() {
                    // A poisoned log's live head counts records whose
                    // durability is unknown — neither audit op may
                    // vouch for it (`verify` refuses on its own; the
                    // head must not dodge the check).
                    Err(WireError::new(
                        ErrorCode::Io,
                        "wal is poisoned by an earlier failed append or commit",
                    ))
                } else {
                    match request.op {
                        SessionOp::WalVerify => w.verify(),
                        _ => Ok(w.head()),
                    }
                }
            }
        };
        match head {
            Err(e) => Response::err(id, e),
            Ok(h) => {
                let body = match request.op {
                    SessionOp::WalVerify => ResultBody::WalVerified {
                        records: h.records,
                        head_hash: h.head_hash,
                    },
                    _ => ResultBody::WalHead {
                        records: h.records,
                        head_hash: h.head_hash,
                    },
                };
                Response::ok(id, body)
            }
        }
    }

    /// Startup recovery: finds every `<name>-<tag>.wal` in the spill
    /// directory and rebuilds its session. Runs on the constructing
    /// thread before any worker exists, so no locks are contended;
    /// sessions recover in sorted-name order for determinism.
    fn recover_sessions(&self) -> io::Result<()> {
        let mut logs: Vec<(String, PathBuf)> = Vec::new();
        for dirent in std::fs::read_dir(&self.config.spill_dir)? {
            let path = dirent?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("wal") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            // The stem is `<name>-<fnv1a(name):016x>`; recomputing the
            // tag authenticates the name half (and skips stray files).
            let Some((name, tag)) = stem.rsplit_once('-') else {
                continue;
            };
            if u64::from_str_radix(tag, 16).ok() != Some(sp_graph::fnv1a(name.as_bytes())) {
                continue;
            }
            logs.push((name.to_owned(), path));
        }
        logs.sort();
        for (name, path) in logs {
            self.recover_session(&name, &path)?;
        }
        self.enforce_budget();
        Ok(())
    }

    /// Rebuilds one session from its log: the checkpoint (if any) plus
    /// the tail after it ([`snapshot::rebuild`]).
    fn recover_session(&self, name: &str, path: &std::path::Path) -> io::Result<()> {
        let (wal, log) = SessionWal::recover(path, self.config.durability.fsync())?;
        let mut resident = snapshot::rebuild(&log)
            .map_err(|e| io::Error::new(e.kind(), format!("recovery of session {name:?}: {e}")))?;
        if log.checkpoint.is_some() {
            self.sessions_restored.fetch_add(1, Ordering::Relaxed);
        }
        self.wal_replays
            .fetch_add(log.tail.len() as u64, Ordering::Relaxed);
        let created = resident.is_some();
        if let Some(session) = resident.as_mut() {
            self.bank(session);
        }

        let entry = self.entry(name);
        let mut st = lock_unpoisoned(&entry.state);
        st.created = created;
        st.wal = Some(Arc::new(Mutex::new(wal)));
        let new_bytes = resident.as_ref().map_or(0, Self::slot_bytes);
        self.account(&mut st, new_bytes);
        st.resident = resident;
        st.last_used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(())
    }

    /// Picks the least-recently-used evictable entry, if any: the
    /// smallest `last_used` among them. Stamps come from one counter and
    /// are unique, so the choice does not depend on the walk's order
    /// and eviction sequences replay identically across runs.
    fn pick_lru(&self) -> Option<Arc<SessionEntry>> {
        self.entries()
            .into_iter()
            .filter_map(|e| {
                let st = lock_unpoisoned(&e.state);
                st.evictable().then(|| (st.last_used, Arc::clone(&e)))
            })
            .min_by_key(|&(stamp, _)| stamp)
            .map(|(_, e)| e)
    }

    /// Evicts LRU sessions until the total drops under the budget (or
    /// nothing evictable remains). Called after every completed request.
    ///
    /// The victim is checked out as [`SessionRegistry::process`] checks
    /// out a job's session (`scheduled` and `busy` set), so the spill —
    /// a WAL commit and a checkpoint rewrite — runs with no entry lock
    /// held: a submit to the victim queues at once rather than waiting
    /// out the disk, and its job runs on the restored session after the
    /// spill.
    fn enforce_budget(&self) {
        let mut misses = 0usize;
        while self.total_bytes.load(Ordering::Relaxed) > self.config.memory_budget {
            let Some(victim) = self.pick_lru() else {
                return;
            };
            let (mut session, dirty, victim_wal) = {
                let mut st = lock_unpoisoned(&victim.state);
                let Some(session) = st.evictable().then(|| st.resident.take()).flatten() else {
                    misses += 1;
                    if misses > EVICT_RETRIES {
                        return;
                    }
                    continue;
                };
                st.scheduled = true;
                st.busy = true;
                (session, st.dirty, st.wal.clone())
            };
            // The budget path hits the eviction edge head-on: an idle
            // session can hold appended-but-uncommitted WAL records
            // (appends precede the batch-end commit), and `spill`
            // flushes them before the snapshot — never the reverse.
            let spilled = self.spill(&victim.name, &mut session, dirty, victim_wal.as_ref());
            let mut st = lock_unpoisoned(&victim.state);
            st.busy = false;
            match spilled {
                Ok(()) => {
                    st.dirty = false;
                    self.bank(&mut session);
                    self.account(&mut st, 0);
                    self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
                }
                // Disk trouble: keep the session resident rather than
                // drop state.
                Err(_) => st.resident = Some(session),
            }
            // Jobs submitted during the spill wait on this entry.
            self.release(&victim, st);
            if spilled.is_err() {
                // Stop evicting for now; the next completed request
                // retries.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{DynamicsRule, DynamicsSpec, GameSpec, Geometry};
    use sp_core::{BackendMode, BestResponseMethod, Move, PeerId};

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sp-serve-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn req(session: &str, op: SessionOp) -> SessionRequest {
        SessionRequest {
            id: None,
            session: session.to_owned(),
            op,
        }
    }

    fn submit_and_wait(registry: &SessionRegistry, request: SessionRequest) -> Response {
        registry.submit(request, None).recv().expect("response")
    }

    fn create_with(name: &str, positions: Vec<f64>, mode: BackendMode) -> SessionRequest {
        req(
            name,
            SessionOp::Create(GameSpec {
                alpha: 1.0,
                geometry: Geometry::Line(positions),
                links: vec![(0, 1), (1, 0), (1, 2), (2, 1)],
                mode,
            }),
        )
    }

    fn create(name: &str, positions: &[f64]) -> SessionRequest {
        create_with(name, positions.to_vec(), BackendMode::Dense)
    }

    fn add_0_2(name: &str) -> SessionRequest {
        let mv = Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(2),
        };
        req(name, SessionOp::Apply { mv })
    }

    fn error_code(r: Response) -> ErrorCode {
        r.outcome.expect_err("request must fail").code
    }

    #[test]
    fn per_session_order_and_lifecycle() {
        let dir = test_dir("lifecycle");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(4);

        let r = submit_and_wait(&registry, create("a", &[0.0, 1.0, 3.0]));
        assert!(r.outcome.is_ok(), "{r:?}");
        let r = submit_and_wait(&registry, create("a", &[0.0, 1.0, 3.0]));
        assert_eq!(
            error_code(r),
            ErrorCode::SessionExists,
            "duplicate create must fail"
        );

        // Ordering: apply, then read — the read must see the apply.
        let r = submit_and_wait(&registry, add_0_2("a"));
        assert!(r.outcome.is_ok(), "{r:?}");
        let sc1 = submit_and_wait(&registry, req("a", SessionOp::SocialCost));
        assert!(sc1.outcome.is_ok(), "{sc1:?}");

        // Evict and transparently restore on next use.
        let r = submit_and_wait(&registry, req("a", SessionOp::Evict));
        assert!(r.outcome.is_ok(), "{r:?}");
        let sc2 = submit_and_wait(&registry, req("a", SessionOp::SocialCost));
        assert_eq!(sc2, sc1, "restored session must answer identically");
        let stats = registry.stats();
        assert_eq!(stats.sessions_evicted, 1);
        assert_eq!(stats.sessions_restored, 1);

        // Unknown sessions fail without being created.
        let r = submit_and_wait(&registry, req("ghost", SessionOp::SocialCost));
        assert_eq!(error_code(r), ErrorCode::UnknownSession);

        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_forces_lru_eviction() {
        let dir = test_dir("budget");
        let registry = SessionRegistry::new(RegistryConfig {
            // Room for roughly one small session at a time.
            memory_budget: 1 << 10,
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        for name in ["a", "b", "c"] {
            let r = submit_and_wait(&registry, create(name, &[0.0, 1.0, 3.0, 4.0]));
            assert!(r.outcome.is_ok(), "{r:?}");
            let r = submit_and_wait(&registry, req(name, SessionOp::SocialCost));
            assert!(r.outcome.is_ok(), "{r:?}");
        }
        let stats = registry.stats();
        assert!(
            stats.sessions_evicted >= 2,
            "tight budget must evict: {stats:?}"
        );
        // Every session still answers (restored on demand) with the
        // value a never-evicted session would give.
        let fresh = submit_and_wait(&registry, req("a", SessionOp::SocialCost));
        assert!(fresh.outcome.is_ok(), "{fresh:?}");
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The names of the resident sessions, in name order.
    fn resident(registry: &SessionRegistry) -> Vec<String> {
        registry
            .entries()
            .iter()
            .filter(|e| lock_unpoisoned(&e.state).resident.is_some())
            .map(|e| e.name.clone())
            .collect()
    }

    /// The slot bytes of the 4-peer test session, after its `create`
    /// alone and after a `social_cost` has filled its rows.
    fn line4_slot_bytes() -> (usize, usize) {
        let SessionOp::Create(spec) = create("probe", &LINE4).op else {
            unreachable!("create builds a create op")
        };
        let mut session = ops::build(&spec).expect("valid spec");
        let created = SessionRegistry::slot_bytes(&session);
        ops::execute(&SessionOp::SocialCost, &mut session).expect("social cost");
        (created, SessionRegistry::slot_bytes(&session))
    }

    const LINE4: [f64; 4] = [0.0, 1.0, 3.0, 4.0];

    /// The budget evicts the least recently used session, one at a time
    /// and in order: the victims below are pinned, so picking any other
    /// idle session (the most recently used, say) fails.
    #[test]
    fn budget_evicts_the_least_recently_used_session() {
        let dir = test_dir("lru-order");
        let (_, used) = line4_slot_bytes();
        let registry = SessionRegistry::new(RegistryConfig {
            // Room for three used sessions, not four.
            memory_budget: 3 * used + used / 2,
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        let touch = |name: &str| {
            let r = submit_and_wait(&registry, req(name, SessionOp::SocialCost));
            assert!(r.outcome.is_ok(), "{r:?}");
        };
        let open = |name: &str| {
            let r = submit_and_wait(&registry, create(name, &LINE4));
            assert!(r.outcome.is_ok(), "{r:?}");
            touch(name);
        };
        for name in ["a", "b", "c"] {
            open(name);
        }
        assert_eq!(resident(&registry), ["a", "b", "c"]);
        assert_eq!(registry.stats().sessions_evicted, 0);
        // Use order a, c, d: `b` is the least recently used.
        touch("a");
        open("d");
        assert_eq!(resident(&registry), ["a", "c", "d"]);
        // Use order a, d, c: now `a` is.
        touch("c");
        open("e");
        assert_eq!(resident(&registry), ["c", "d", "e"]);
        let stats = registry.stats();
        assert_eq!((stats.sessions_evicted, stats.sessions_restored), (2, 0));
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session with queued work is never evicted, even when it is the
    /// least recently used: the budget takes the idle one instead.
    #[test]
    fn budget_never_evicts_a_session_with_queued_work() {
        let dir = test_dir("lru-queued");
        let (created, used) = line4_slot_bytes();
        // Two created sessions overflow the budget; one used one fits.
        assert!(2 * created > used, "{created} {used}");
        let registry = SessionRegistry::new(RegistryConfig {
            memory_budget: used,
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        // No workers yet: `a` runs first, and still has its
        // `social_cost` queued when `b`'s create overflows the budget.
        let receivers = [
            registry.submit(create("a", &LINE4), None),
            registry.submit(create("b", &LINE4), None),
            registry.submit(req("a", SessionOp::SocialCost), None),
        ];
        let workers = registry.spawn_workers(1);
        for rx in receivers {
            let r = rx.recv().unwrap();
            assert!(r.outcome.is_ok(), "{r:?}");
        }
        assert_eq!(resident(&registry), ["a"]);
        let stats = registry.stats();
        assert_eq!((stats.sessions_evicted, stats.sessions_restored), (1, 0));
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whether `entry` looks mid-spill: checked out with its session
    /// gone, or its lock held (as a spill under the entry lock would).
    fn spilling(entry: &SessionEntry) -> bool {
        match entry.state.try_lock() {
            Ok(st) => st.busy && st.resident.is_none(),
            Err(std::sync::TryLockError::WouldBlock) => true,
            Err(std::sync::TryLockError::Poisoned(_)) => false,
        }
    }

    /// A budget spill holds no entry lock across its disk work: while
    /// the victim's log is blocked, a submit to the victim returns at
    /// once, and its job is answered on the restored session once the
    /// spill ends.
    #[test]
    fn a_submit_to_a_spilling_session_does_not_wait_for_the_spill() {
        use std::time::{Duration, Instant};

        let dir = test_dir("spill-submit");
        let (_, used) = line4_slot_bytes();
        let registry = SessionRegistry::new(RegistryConfig {
            // Room for one used session: `b`'s create evicts `a`.
            memory_budget: used,
            spill_dir: dir.clone(),
            durability: Durability::Wal {
                group_commit: 8,
                fsync: false,
            },
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        let r = submit_and_wait(&registry, create("a", &LINE4));
        assert!(r.outcome.is_ok(), "{r:?}");
        let before = submit_and_wait(&registry, req("a", SessionOp::SocialCost));
        assert!(before.outcome.is_ok(), "{before:?}");

        // Block the spill of `a` on its log, then overflow the budget.
        let entry = registry.entry("a");
        let wal = lock_unpoisoned(&entry.state).wal.clone().expect("log");
        let held = lock_unpoisoned(&wal);
        let created_b = registry.submit(create("b", &LINE4), None);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = 0;
        while seen < 5 {
            assert!(Instant::now() < deadline, "the spill of `a` never started");
            seen = if spilling(&entry) { seen + 1 } else { 0 };
            std::thread::sleep(Duration::from_millis(10));
        }

        let (queued_tx, queued_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel();
        let submitter = Arc::clone(&registry);
        std::thread::spawn(move || {
            submitter.submit_with(req("a", SessionOp::SocialCost), None, move |r| {
                let _ = reply_tx.send(r);
            });
            let _ = queued_tx.send(());
        });
        queued_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("a submit to the spilling session must not wait for the spill");
        drop(held);

        let after = reply_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the job queued during the spill is answered");
        assert_eq!(after, before, "the restored session answers as before");
        let r = created_b.recv().unwrap();
        assert!(r.outcome.is_ok(), "{r:?}");
        let stats = registry.stats();
        assert!(
            stats.sessions_evicted >= 1 && stats.sessions_restored >= 1,
            "`a` must spill and restore: {stats:?}"
        );
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparse_sessions_round_trip_and_account_linearly() {
        let dir = test_dir("sparse");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(2);
        let n = 400;
        let positions = (0..n).map(f64::from).collect();
        let r = submit_and_wait(
            &registry,
            create_with("big", positions, BackendMode::Sparse),
        );
        assert!(r.outcome.is_ok(), "{r:?}");
        assert!(matches!(
            r.outcome,
            Ok(ResultBody::Created {
                mode: BackendMode::Sparse,
                ..
            })
        ));
        // A dense 400-peer slot charges ≥ 2 × 400² × 8 B (metric +
        // overlay matrix); the sparse slot must stay well under one
        // such matrix.
        let dense_matrix = n as usize * n as usize * std::mem::size_of::<f64>();
        assert!(
            registry.stats().resident_bytes < dense_matrix / 2,
            "sparse slot accounted {} bytes",
            registry.stats().resident_bytes
        );
        let sc1 = submit_and_wait(&registry, req("big", SessionOp::SocialCost));
        assert!(sc1.outcome.is_ok(), "{sc1:?}");
        // Spill to the v2 file and restore transparently, bit-identically.
        let r = submit_and_wait(&registry, req("big", SessionOp::Evict));
        assert!(r.outcome.is_ok(), "{r:?}");
        let r = submit_and_wait(&registry, req("big", SessionOp::Load));
        assert!(r.outcome.is_ok(), "{r:?}");
        assert_eq!(
            r.outcome,
            Ok(ResultBody::Loaded {
                mode: BackendMode::Sparse
            })
        );
        let sc2 = submit_and_wait(&registry, req("big", SessionOp::SocialCost));
        assert_eq!(sc2, sc1, "restored sparse session must answer identically");
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `run_dynamics` with a best-response method too small for the game
    /// is refused with the error `best_response` gives, in either mode;
    /// the reply arrives, and the session and the one worker keep
    /// serving.
    #[test]
    fn oversized_enumeration_dynamics_fails_typed() {
        let dir = test_dir("enumeration");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        let answer = |request: SessionRequest| {
            registry
                .submit(request, None)
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the worker must answer")
        };
        let method = BestResponseMethod::ExactEnumeration;
        for mode in [BackendMode::Dense, BackendMode::Sparse] {
            let name = mode.as_str();
            let positions = (0..26).map(f64::from).collect();
            let r = answer(create_with(name, positions, mode));
            assert!(r.outcome.is_ok(), "{r:?}");
            let dynamics = SessionOp::RunDynamics(DynamicsSpec {
                rule: DynamicsRule::Best(method),
                max_rounds: Some(1),
                tolerance: None,
                detect_cycles: None,
            });
            let refused = answer(req(name, dynamics)).outcome.unwrap_err();
            let single = SessionOp::BestResponse {
                peer: PeerId::new(0),
                method,
            };
            assert_eq!(refused, answer(req(name, single)).outcome.unwrap_err());
            assert_eq!(refused.code, ErrorCode::Core);
            let r = answer(req(name, SessionOp::SocialCost));
            assert!(r.outcome.is_ok(), "{r:?}");
        }
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_wal_quarantines_its_session() {
        let dir = test_dir("poison");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            durability: Durability::Wal {
                group_commit: 8,
                fsync: false,
            },
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        let r = submit_and_wait(&registry, create("p", &[0.0, 1.0, 3.0]));
        assert!(r.outcome.is_ok(), "{r:?}");

        // Fault injection: poison the session's log exactly as a failed
        // append or group-commit fsync would.
        {
            let entry = registry.entry("p");
            let wal = lock_unpoisoned(&entry.state)
                .wal
                .clone()
                .expect("create opened the log");
            lock_unpoisoned(&wal).poison_for_test();
        }

        // Every op — reads, mutations, spills, audits — fails typed:
        // resident state may hold mutations the log does not witness,
        // so nothing may serve (or persist) it.
        for request in [
            req("p", SessionOp::SocialCost),
            add_0_2("p"),
            req("p", SessionOp::Evict),
            req("p", SessionOp::WalHead),
            req("p", SessionOp::WalVerify),
        ] {
            let op = request.op.code();
            let r = submit_and_wait(&registry, request);
            assert_eq!(
                error_code(r),
                ErrorCode::Io,
                "{op:?} must fail on a poisoned wal"
            );
        }

        // Other sessions are untouched by the quarantine.
        let r = submit_and_wait(&registry, create("q", &[0.0, 1.0, 3.0]));
        assert!(r.outcome.is_ok(), "{r:?}");
        let r = submit_and_wait(&registry, req("q", SessionOp::SocialCost));
        assert!(r.outcome.is_ok(), "{r:?}");

        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A WAL registry with one worker and two committed sessions, `a`
    /// and `b`.
    fn wal_registry_ab(tag: &str) -> (Arc<SessionRegistry>, Vec<JoinHandle<()>>, PathBuf) {
        let dir = test_dir(tag);
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            durability: Durability::Wal {
                group_commit: 8,
                fsync: false,
            },
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        for name in ["a", "b"] {
            let r = submit_and_wait(&registry, create(name, &[0.0, 1.0, 3.0]));
            assert!(r.outcome.is_ok(), "{r:?}");
        }
        (registry, workers, dir)
    }

    /// Parks the registry's one worker inside a reply callback until the
    /// returned sender fires, so that the jobs queued meanwhile drain
    /// as one batch.
    fn park_worker(registry: &SessionRegistry) -> mpsc::Sender<()> {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        registry.submit_with(req("gate", SessionOp::SocialCost), None, move |_| {
            let _ = parked_tx.send(());
            let _ = go_rx.recv();
        });
        parked_rx.recv().unwrap();
        go_tx
    }

    /// Queues `requests` behind a parked worker, releases it, and
    /// returns each reply, in delivery order, with the `wal_fsyncs`
    /// its callback read (minus the count before the batch ran).
    fn one_batch(
        registry: &Arc<SessionRegistry>,
        requests: Vec<SessionRequest>,
    ) -> Vec<(Option<u64>, Result<(), ErrorCode>, u64)> {
        let go = park_worker(registry);
        let base = registry.stats().wal_fsyncs;
        let (tx, rx) = mpsc::channel();
        for (k, request) in requests.into_iter().enumerate() {
            let (tx, reg) = (tx.clone(), Arc::clone(registry));
            let request = SessionRequest {
                id: Some(k as u64),
                ..request
            };
            registry.submit_with(request, None, move |r| {
                let outcome = r.outcome.map(drop).map_err(|e| e.code);
                let _ = tx.send((r.id, outcome, reg.stats().wal_fsyncs - base));
            });
        }
        drop(tx);
        go.send(()).unwrap();
        rx.iter().collect()
    }

    fn stop(registry: &SessionRegistry, workers: Vec<JoinHandle<()>>, dir: &PathBuf) {
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A read of a session with nothing pending leaves before the
    /// commit of another session's record in its batch.
    #[test]
    fn a_read_with_nothing_pending_leaves_before_the_batch_commit() {
        let (registry, workers, dir) = wal_registry_ab("early-read");
        let replies = one_batch(
            &registry,
            vec![add_0_2("a"), req("b", SessionOp::SocialCost)],
        );
        assert_eq!(
            replies,
            [(Some(1), Ok(()), 0), (Some(0), Ok(()), 1)],
            "b's read must not wait for a's commit"
        );
        stop(&registry, workers, &dir);
    }

    /// A read of a session whose record is not yet durable waits for
    /// that record's commit, and fails with it; a read of another
    /// session in the same batch does not.
    #[test]
    fn a_read_held_for_a_failed_commit_fails_loudly() {
        let (registry, workers, dir) = wal_registry_ab("held-read");
        {
            let entry = registry.entry("a");
            let wal = lock_unpoisoned(&entry.state).wal.clone().expect("log");
            lock_unpoisoned(&wal).fail_next_commit_for_test();
        }
        let mut replies = one_batch(
            &registry,
            vec![
                add_0_2("a"),
                req("a", SessionOp::SocialCost),
                req("b", SessionOp::SocialCost),
            ],
        );
        replies.sort_by_key(|&(id, ..)| id);
        let outcomes: Vec<_> = replies.iter().map(|&(_, outcome, _)| outcome).collect();
        assert_eq!(
            outcomes,
            [Err(ErrorCode::Io), Err(ErrorCode::Io), Ok(())],
            "a's read reports state its log never made durable: {replies:?}"
        );
        stop(&registry, workers, &dir);
    }

    /// A batch that appended to two logs delivers the first log's reply
    /// before it commits the second log.
    #[test]
    fn each_log_releases_its_replies_after_its_own_commit() {
        let (registry, workers, dir) = wal_registry_ab("per-log");
        let replies = one_batch(&registry, vec![add_0_2("a"), add_0_2("b")]);
        assert_eq!(
            replies,
            [(Some(0), Ok(()), 1), (Some(1), Ok(()), 2)],
            "a's reply must not wait for b's commit"
        );
        assert_eq!(registry.stats().wal_batches, 3, "two creates, one batch");
        stop(&registry, workers, &dir);
    }

    #[test]
    fn queue_depth_is_recorded() {
        let dir = test_dir("depth");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        // No workers yet: queue up a burst, then start the pool.
        let mut receivers = Vec::new();
        receivers.push(registry.submit(create("q", &[0.0, 1.0, 2.0]), None));
        for _ in 0..7 {
            receivers.push(registry.submit(req("q", SessionOp::SocialCost), None));
        }
        assert_eq!(registry.stats().queue_depth_hwm, 8);
        let workers = registry.spawn_workers(2);
        for rx in receivers {
            assert!(rx.recv().unwrap().outcome.is_ok());
        }
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn callback_responders_deliver_on_the_worker() {
        let dir = test_dir("callback");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        let (tx, rx) = mpsc::channel::<Response>();
        let tx2 = tx.clone();
        registry.submit_with(create("cb", &[0.0, 1.0, 2.0]), None, move |r| {
            let _ = tx.send(r);
        });
        registry.submit_with(
            SessionRequest {
                id: Some(1),
                ..req("cb", SessionOp::SocialCost)
            },
            None,
            move |r| {
                let _ = tx2.send(r);
            },
        );
        let first = rx.recv().unwrap();
        let second = rx.recv().unwrap();
        assert!(first.outcome.is_ok(), "{first:?}");
        assert_eq!(second.id, Some(1));
        assert!(second.outcome.is_ok(), "{second:?}");

        registry.shutdown();
        // Post-shutdown submits answer immediately with a typed error.
        let (tx, rx) = mpsc::channel::<Response>();
        registry.submit_with(req("cb", SessionOp::SocialCost), None, move |r| {
            let _ = tx.send(r);
        });
        let r = rx.recv().unwrap();
        assert_eq!(r.outcome.unwrap_err().code, ErrorCode::Shutdown);
        // The channel wrapper answers the same way.
        let r = registry
            .submit(req("cb", SessionOp::SocialCost), None)
            .recv()
            .unwrap();
        assert_eq!(r.outcome.unwrap_err().code, ErrorCode::Shutdown);
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
