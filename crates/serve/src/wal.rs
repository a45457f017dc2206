//! The per-session log: one file per session that holds its
//! checkpoint, the acknowledged ops since, and a tamper-evident audit
//! chain over them.
//!
//! # Why a WAL
//!
//! The registry spills sessions lazily (LRU under a budget), so without
//! a log a crash loses every move applied since a session's last spill —
//! acknowledged work the service then silently forgets, which the
//! selfish-peer dynamics make *plausibly wrong* rather than loudly
//! broken. The contract here is append-before-acknowledge: every
//! state-mutating op ([`crate::wire::SessionOp::is_wal_logged`]) is written to the
//! session's log before its response is released, so a recovered
//! process can replay exactly the acknowledged history.
//!
//! # File format
//!
//! One file per session, a flat sequence of frames sharing the
//! length-prefix + CRC envelope; the **first** frame is the header:
//!
//! ```text
//! file       := frame*                       (frame 0 is the header)
//! frame      := len:u32le  body  crc32:u32le (CRC-32/IEEE over body)
//! header     := "SPWAL02"  varint(base_seq)  varint(base_hash)
//!               varint(ckpt_len)  checkpoint (ckpt_len = 0: none)
//! record     := varint(seq)  varint(prev_hash)  varint(req_len)  request
//! ```
//!
//! `request` is the op verbatim as [`sp_wire::binary::encode_request`]
//! bytes, and so is `checkpoint`: a `create` request whose spec
//! rebuilds the session as it stood at `base_seq` (see
//! [`crate::snapshot`]). The log speaks the wire grammar (LEB128
//! varints, bounds-checked decode) instead of inventing a second codec,
//! and replay feeds the decoded requests back through the normal ops
//! dispatch. A spill rewrites the file as a header whose checkpoint
//! covers every record so far ([`SessionWal::checkpoint`]); the
//! non-logging spill and [`crate::snapshot::save`] write the same
//! header-only file. Files of the retired formats — `SPWAL01` logs and
//! the JSON snapshots — are refused with a typed error naming them.
//!
//! # The hash chain
//!
//! Each record's `prev_hash` carries the chain value before it, and the
//! chain advances by folding the record body into the running FNV-1a
//! state: `head' = fnv1a_extend(head, body)`. A fresh log starts at
//! [`genesis`]. A checkpoint rewrites the file as a bare header
//! carrying the *current* `(records, head)` — so the chain and the
//! record count span truncations, and `wal_head` answers the same
//! before and after a spill. Tampering with any byte of any surviving
//! frame breaks its CRC ([`ErrorCode::BadFrame`]) or, if the CRC is
//! recomputed, the chain ([`ErrorCode::ChainBroken`]) or the
//! checkpoint's decode.
//!
//! # Torn tails
//!
//! Appends are sequential `write_all`s, so a crash mid-append leaves a
//! *truncated* final frame, never garbage mid-log. [`SessionWal::recover`]
//! therefore treats an incomplete final frame (or a final frame whose
//! CRC fails) as a clean end-of-log and truncates it away; the record
//! was never acknowledged (acknowledgement waits for the group commit),
//! so dropping it is exactly correct. Anything malformed *before* the
//! final frame is real corruption and fails recovery loudly — the two
//! are told apart by looking past the anomaly: a genuine tear is the
//! final frame cut short, so if any complete valid frame starts
//! anywhere after the bad bytes, the log is corrupt, not torn, and
//! truncating there would silently drop acknowledged records.
//! [`SessionWal::verify`] — the audit path — is strict everywhere.
//!
//! # Poisoning
//!
//! A failed append may leave the file ending mid-frame, and a failed
//! fsync may have dropped the dirty pages — after either, a later
//! "successful" operation could retroactively make records durable
//! that clients were already told failed. Both therefore *poison* the
//! log: every subsequent [`SessionWal::append`], [`SessionWal::commit`],
//! [`SessionWal::checkpoint`], and [`SessionWal::verify`] fails
//! until the process restarts and recovers from what actually reached
//! disk.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use sp_graph::{fnv1a, fnv1a_extend};

use crate::wire::binary::{self, Reader, Writer};
use crate::wire::{ErrorCode, GameSpec, Request, SessionOp, SessionRequest, WireError};

/// Magic leading the header frame body (format version 02).
pub const MAGIC: &[u8; 7] = b"SPWAL02";

/// The session name a checkpoint's `create` request carries. The file
/// name is what names the session; this only satisfies the grammar.
const CHECKPOINT_NAME: &str = "checkpoint";

/// The chain value of an empty, never-compacted log.
#[must_use]
pub fn genesis() -> u64 {
    fnv1a(b"sp-serve/wal/v1")
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), computed bitwise — frame
/// bodies are small (one request), so a table buys nothing here.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one record body: `seq`, the chain value before the record,
/// and the request verbatim in the binary wire codec.
#[must_use]
pub fn record_body(seq: u64, prev_hash: u64, request: &Request) -> Vec<u8> {
    let req = binary::encode_request(request);
    let mut w = Writer::new();
    w.varint(seq);
    w.varint(prev_hash);
    w.usize(req.len());
    w.bytes(&req);
    w.into_vec()
}

/// Decodes one record body back into `(seq, prev_hash, request)`.
///
/// # Errors
///
/// [`ErrorCode::BadFrame`] on truncation, a hostile length, trailing
/// bytes, or an undecodable embedded request.
pub fn parse_record_body(body: &[u8]) -> Result<(u64, u64, Request), WireError> {
    let mut r = Reader::new(body);
    let seq = r.varint()?;
    let prev_hash = r.varint()?;
    let len = r.count(1)?;
    let req = binary::decode_request(r.bytes(len)?).map_err(|e| e.error)?;
    r.finish()?;
    Ok((seq, prev_hash, req))
}

fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&u32::try_from(body.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

fn header_frame(base_seq: u64, base_hash: u64, checkpoint: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.varint(base_seq);
    w.varint(base_hash);
    w.usize(checkpoint.len());
    w.bytes(checkpoint);
    frame_bytes(&w.into_vec())
}

fn chain_broken(msg: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::ChainBroken, msg)
}

fn bad_frame(msg: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::BadFrame, msg)
}

/// One step of a sequential frame scan.
enum ScanFrame<'a> {
    /// A complete frame whose CRC checks out.
    Ok(&'a [u8]),
    /// The bytes from `pos` to EOF do not form a complete valid frame —
    /// a torn tail if nothing follows, corruption otherwise.
    Torn,
}

/// Reads the frame starting at `*pos`, advancing `*pos` past it.
/// Returns `None` at a clean EOF.
fn scan_frame<'a>(data: &'a [u8], pos: &mut usize) -> Option<ScanFrame<'a>> {
    let start = *pos;
    if start == data.len() {
        return None;
    }
    let Some(len_bytes) = data.get(start..start + 4) else {
        return Some(ScanFrame::Torn);
    };
    // No allocation follows from `len`: a length past EOF is a tear,
    // and a checkpoint may legitimately hold a large dense matrix.
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap_or([0; 4])) as usize;
    let body_end = start + 4 + len;
    let Some(body) = data.get(start + 4..body_end) else {
        return Some(ScanFrame::Torn);
    };
    let Some(crc_bytes) = data.get(body_end..body_end + 4) else {
        return Some(ScanFrame::Torn);
    };
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap_or([0; 4]));
    if crc != crc32(body) {
        return Some(ScanFrame::Torn);
    }
    *pos = body_end + 4;
    Some(ScanFrame::Ok(body))
}

/// Decodes a header checkpoint: the bytes of a `create` request.
fn parse_checkpoint(bytes: &[u8]) -> Result<GameSpec, WireError> {
    match binary::decode_request(bytes).map_err(|e| e.error)? {
        Request::Session(SessionRequest {
            op: SessionOp::Create(spec),
            ..
        }) => Ok(spec),
        _ => Err(bad_frame("wal checkpoint is not a create request")),
    }
}

fn parse_header(body: &[u8]) -> Result<(u64, u64, Option<GameSpec>), WireError> {
    let mut r = Reader::new(body);
    let magic = r.bytes(MAGIC.len())?;
    if magic == b"SPWAL01" {
        return Err(bad_frame(
            "an SPWAL01 log: that format is retired and is not migrated",
        ));
    }
    if magic != MAGIC {
        return Err(bad_frame("wal header magic mismatch"));
    }
    let base_seq = r.varint()?;
    let base_hash = r.varint()?;
    let len = r.count(1)?;
    let checkpoint = match len {
        0 => None,
        _ => Some(parse_checkpoint(r.bytes(len)?)?),
    };
    r.finish()?;
    Ok((base_seq, base_hash, checkpoint))
}

/// A session's log as recovery reads it.
#[derive(Debug)]
pub struct Log {
    /// Records the header covers (the seq of the last one folded in).
    pub base_seq: u64,
    /// The session as it stood at `base_seq`, when the header holds one.
    pub checkpoint: Option<GameSpec>,
    /// The intact records after the header (seqs `base_seq + 1 ..`).
    pub tail: Vec<Request>,
}

/// A parse of a whole log file: the log itself plus where its valid
/// prefix ends.
struct LogScan {
    log: Log,
    /// Chain head after the last intact record.
    head_hash: u64,
    /// Byte offset where the valid prefix ends (tear starts here).
    valid_len: u64,
    /// Whether bytes past `valid_len` exist (a torn final frame).
    torn: bool,
}

/// Scans `data` as a log file. `strict` is the audit mode: a torn tail
/// (or any other anomaly) is an error instead of an end-of-log.
fn scan_log(data: &[u8], strict: bool) -> Result<LogScan, WireError> {
    let mut pos = 0usize;
    let (base_seq, base_hash, checkpoint) = match scan_frame(data, &mut pos) {
        Some(ScanFrame::Ok(body)) => parse_header(body)?,
        // The header is written atomically (temp file + rename), so it
        // can never be torn by a crashed append — only corrupted, or
        // not a log at all.
        _ if data.first() == Some(&b'{') => {
            return Err(bad_frame(
                "a JSON session snapshot: that format is retired and is not migrated",
            ));
        }
        _ => return Err(bad_frame("wal header missing or corrupt")),
    };
    let mut log = Log {
        base_seq,
        checkpoint,
        tail: Vec::new(),
    };
    let mut seq = base_seq;
    let mut head = base_hash;
    loop {
        let frame_start = pos;
        match scan_frame(data, &mut pos) {
            None => {
                return Ok(LogScan {
                    log,
                    head_hash: head,
                    valid_len: frame_start as u64,
                    torn: false,
                });
            }
            Some(ScanFrame::Torn) => {
                if strict {
                    return Err(bad_frame(format!(
                        "wal frame at byte {frame_start} is truncated or fails its CRC"
                    )));
                }
                // A genuine tear is the *final* frame cut short, so
                // nothing after it can parse. If a complete valid frame
                // starts anywhere in the remaining bytes, this is
                // mid-log corruption — truncating here would silently
                // drop acknowledged records (and a later audit of the
                // truncated file would pass, destroying the evidence).
                for start in frame_start + 1..data.len() {
                    let mut p = start;
                    if matches!(scan_frame(data, &mut p), Some(ScanFrame::Ok(_))) {
                        return Err(bad_frame(format!(
                            "wal frame at byte {frame_start} is corrupt but a valid frame \
                             follows at byte {start} — mid-log corruption, not a torn tail"
                        )));
                    }
                }
                return Ok(LogScan {
                    log,
                    head_hash: head,
                    valid_len: frame_start as u64,
                    torn: true,
                });
            }
            Some(ScanFrame::Ok(body)) => {
                let (rec_seq, prev_hash, request) = parse_record_body(body)?;
                if rec_seq != seq + 1 {
                    return Err(chain_broken(format!(
                        "wal record carries seq {rec_seq}, chain expects {}",
                        seq + 1
                    )));
                }
                if prev_hash != head {
                    return Err(chain_broken(format!(
                        "wal record {rec_seq} chains from {prev_hash:016x}, head is {head:016x}"
                    )));
                }
                seq = rec_seq;
                head = fnv1a_extend(head, body);
                log.tail.push(request);
            }
        }
    }
}

fn invalid_data(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.message)
}

/// Reads a session's log without touching the file: a torn final frame
/// ends the tail, as in [`SessionWal::recover`].
///
/// # Errors
///
/// Filesystem errors propagate; a file that is not an intact log (or is
/// one of the retired formats) is [`io::ErrorKind::InvalidData`].
pub fn read(path: &Path) -> io::Result<Log> {
    Ok(scan_log(&fs::read(path)?, false).map_err(invalid_data)?.log)
}

/// Makes a rename into `path`'s directory durable: the file's data
/// blocks are synced by the caller, but the directory *entry* the
/// rename installed lives in the directory inode — without syncing
/// that too, power loss can forget the file ever existed.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Atomically (re)writes `path` as a bare header carrying `(base_seq,
/// base_hash)` and the `checkpoint` spec, if any, and reopens it for
/// appending.
pub(crate) fn write_fresh(
    path: &Path,
    fsync: bool,
    base_seq: u64,
    base_hash: u64,
    checkpoint: Option<GameSpec>,
) -> io::Result<File> {
    let checkpoint = checkpoint.map_or_else(Vec::new, |spec| {
        binary::encode_request(&Request::Session(SessionRequest {
            id: None,
            session: CHECKPOINT_NAME.to_owned(),
            op: SessionOp::Create(spec),
        }))
    });
    if u32::try_from(checkpoint.len() + 64).is_err() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "checkpoint exceeds the 4 GiB frame limit",
        ));
    }
    let tmp = path.with_extension("wal.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&header_frame(base_seq, base_hash, &checkpoint))?;
        if fsync {
            f.sync_data()?;
        }
    }
    fs::rename(&tmp, path)?;
    if fsync {
        sync_parent_dir(path)?;
    }
    OpenOptions::new().append(true).open(path)
}

/// The state a `wal_head` / `wal_verify` response reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHead {
    /// Records appended since genesis (spans compactions).
    pub records: u64,
    /// The chain head after the last record.
    pub head_hash: u64,
}

/// One session's open write-ahead log: an append handle plus the live
/// chain state. Appends buffer in the OS; [`SessionWal::commit`] is the
/// durability point (group commit calls it once per log a worker's
/// drain batch waits on).
pub struct SessionWal {
    path: PathBuf,
    file: File,
    fsync: bool,
    records: u64,
    head_hash: u64,
    /// Bytes appended since the last commit — the flush-then-spill
    /// invariant tracks this, and so does a reply that must not report
    /// state its log has not made durable.
    pending: bool,
    /// Set after a failed append (the file may end in a torn frame) or
    /// a failed commit (the kernel may have dropped the dirty pages):
    /// every further append, commit, checkpoint, and verification
    /// fails, so nothing can retroactively acknowledge the lost
    /// records. See the module docs on poisoning.
    broken: bool,
    /// Fault injection: the next commit with records to sync fails as
    /// a failed `fsync` would.
    #[cfg(test)]
    fail_next_commit: bool,
}

fn poisoned() -> io::Error {
    io::Error::other("wal is poisoned by an earlier failed append or commit")
}

impl SessionWal {
    /// Creates a fresh log at `path` (genesis chain, no checkpoint,
    /// empty tail), atomically — replacing any file there.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, fsync: bool) -> io::Result<SessionWal> {
        let file = write_fresh(path, fsync, 0, genesis(), None)?;
        Ok(SessionWal {
            path: path.to_path_buf(),
            file,
            fsync,
            records: 0,
            head_hash: genesis(),
            pending: false,
            broken: false,
            #[cfg(test)]
            fail_next_commit: false,
        })
    }

    /// Opens the log at `path` for appending without ever truncating
    /// an existing file — its checkpoint may be the session's only
    /// copy: an existing log is recovered (only a torn final frame is
    /// cut), a missing one is created.
    ///
    /// # Errors
    ///
    /// As [`SessionWal::recover`] and [`SessionWal::create`].
    pub fn open(path: &Path, fsync: bool) -> io::Result<SessionWal> {
        match SessionWal::recover(path, fsync) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => SessionWal::create(path, fsync),
            recovered => recovered.map(|(wal, _)| wal),
        }
    }

    /// Opens an existing log, tolerating a torn final frame (truncated
    /// away — it was never acknowledged). Returns the log positioned
    /// for appending and its contents: the header's checkpoint and the
    /// surviving tail requests.
    ///
    /// # Errors
    ///
    /// Filesystem errors propagate; corruption *before* the final frame
    /// (bad header or checkpoint, mid-log CRC or chain failure) and
    /// the retired formats are [`io::ErrorKind::InvalidData`] —
    /// recovery must not guess.
    pub fn recover(path: &Path, fsync: bool) -> io::Result<(SessionWal, Log)> {
        let scan = scan_log(&fs::read(path)?, false).map_err(invalid_data)?;
        let file = OpenOptions::new().append(true).open(path)?;
        if scan.torn {
            file.set_len(scan.valid_len)?;
        }
        let wal = SessionWal {
            path: path.to_path_buf(),
            file,
            fsync,
            records: scan.log.base_seq + scan.log.tail.len() as u64,
            head_hash: scan.head_hash,
            pending: false,
            broken: false,
            #[cfg(test)]
            fail_next_commit: false,
        };
        Ok((wal, scan.log))
    }

    /// The live chain state.
    #[must_use]
    pub fn head(&self) -> WalHead {
        WalHead {
            records: self.records,
            head_hash: self.head_hash,
        }
    }

    /// Whether the log is poisoned by an earlier failed append or
    /// commit (the registry quarantines the session while this holds).
    #[must_use]
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Whether records were appended since the last commit, i.e.
    /// whether state the log witnesses is not yet durable.
    #[must_use]
    pub(crate) fn has_pending(&self) -> bool {
        self.pending
    }

    /// Poisons the log as a failed append/commit would — fault
    /// injection for tests (real write and fsync failures need a
    /// misbehaving filesystem).
    #[cfg(test)]
    pub(crate) fn poison_for_test(&mut self) {
        self.broken = true;
    }

    /// Makes the next commit that has records to sync fail as a failed
    /// `fsync` would (poisoning the log) — fault injection for tests.
    #[cfg(test)]
    pub(crate) fn fail_next_commit_for_test(&mut self) {
        self.fail_next_commit = true;
    }

    /// Appends one request record (no sync — durability waits for
    /// [`SessionWal::commit`]). Must be called *before* the op's
    /// response is released.
    ///
    /// # Errors
    ///
    /// Propagates write errors; a failed append poisons the log (the
    /// file may end mid-frame), so every later append fails too rather
    /// than writing records after a tear.
    pub fn append(&mut self, request: &Request) -> io::Result<()> {
        if self.broken {
            return Err(poisoned());
        }
        let body = record_body(self.records + 1, self.head_hash, request);
        match self.file.write_all(&frame_bytes(&body)) {
            Ok(()) => {
                self.records += 1;
                self.head_hash = fnv1a_extend(self.head_hash, &body);
                self.pending = true;
                Ok(())
            }
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    /// The durability point: syncs pending appends to disk (when the
    /// log was opened with `fsync`; otherwise the cadence is identical
    /// but the syscall is elided — benches and tests run that way).
    /// Returns whether there was anything pending, i.e. whether this
    /// commit was a sync point.
    ///
    /// # Errors
    ///
    /// A failed `fsync` poisons the log and propagates: the kernel may
    /// have dropped the dirty pages, so a later "successful" sync
    /// cannot be trusted to cover these records — retrying would let a
    /// future commit retroactively make records durable (and
    /// replayable) that clients were already told failed.
    pub fn commit(&mut self) -> io::Result<bool> {
        if self.broken {
            return Err(poisoned());
        }
        if !self.pending {
            return Ok(false);
        }
        if let Err(e) = self.sync() {
            self.broken = true;
            return Err(e);
        }
        self.pending = false;
        Ok(true)
    }

    fn sync(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_commit) {
            return Err(io::Error::other("injected fsync failure"));
        }
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// The spill: atomically rewrites the file as a bare header
    /// carrying the current `(records, head_hash)` and `checkpoint` —
    /// the [`crate::snapshot::checkpoint`] spec of the session as it
    /// stands after every record so far — so the tail is dropped while
    /// the chain continues uninterrupted. Callers must
    /// [`SessionWal::commit`] first (flush-then-spill).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. A poisoned log refuses: the
    /// in-memory `(records, head)` may count records that never
    /// durably reached disk, and baking them into a fresh header would
    /// forge an audit chain over ops clients were told failed.
    pub fn checkpoint(&mut self, checkpoint: GameSpec) -> io::Result<()> {
        if self.broken {
            return Err(poisoned());
        }
        self.file = write_fresh(
            &self.path,
            self.fsync,
            self.records,
            self.head_hash,
            Some(checkpoint),
        )?;
        self.pending = false;
        Ok(())
    }

    /// The audit check: re-reads the whole file from disk and walks it
    /// strictly — header magic, CRC and checkpoint, every record's CRC,
    /// seq continuity, the `prev_hash` chain, and finally that the
    /// file's head equals the live in-memory head.
    ///
    /// # Errors
    ///
    /// Structural damage (truncation, CRC failure, undecodable record
    /// or checkpoint) is [`ErrorCode::BadFrame`]; a record that parses
    /// but breaks the chain — or a file that disagrees with the live
    /// head — is [`ErrorCode::ChainBroken`]; unreadable files are
    /// [`ErrorCode::Io`], as is a poisoned log (the live head counts
    /// records whose durability is unknown, so no audit can pass).
    pub fn verify(&self) -> Result<WalHead, WireError> {
        if self.broken {
            return Err(WireError::new(
                ErrorCode::Io,
                "wal is poisoned by an earlier failed append or commit",
            ));
        }
        let data = fs::read(&self.path)
            .map_err(|e| WireError::new(ErrorCode::Io, format!("cannot read wal: {e}")))?;
        let scan = scan_log(&data, true)?;
        let records = scan.log.base_seq + scan.log.tail.len() as u64;
        if records != self.records || scan.head_hash != self.head_hash {
            return Err(chain_broken(format!(
                "wal file ends at ({records}, {:016x}) but the live chain head is ({}, {:016x})",
                scan.head_hash, self.records, self.head_hash
            )));
        }
        Ok(self.head())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{Move, PeerId};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sp-serve-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("s.wal")
    }

    fn apply_req(k: u64) -> Request {
        Request::Session(SessionRequest {
            id: Some(k),
            session: "s".to_owned(),
            op: SessionOp::Apply {
                mv: Move::AddLink {
                    from: PeerId::new(0),
                    to: PeerId::new(k as usize + 1),
                },
            },
        })
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_body_round_trips() {
        let req = apply_req(7);
        let body = record_body(3, 0xDEAD_BEEF, &req);
        let (seq, prev, back) = parse_record_body(&body).unwrap();
        assert_eq!((seq, prev), (3, 0xDEAD_BEEF));
        assert_eq!(back, req);
    }

    #[test]
    fn append_recover_replays_the_tail() {
        let path = tmp("tail");
        let mut wal = SessionWal::create(&path, false).unwrap();
        for k in 0..5 {
            wal.append(&apply_req(k)).unwrap();
        }
        assert!(wal.commit().unwrap());
        assert!(!wal.commit().unwrap(), "second commit has nothing pending");
        let head = wal.head();
        assert_eq!(head.records, 5);
        drop(wal);

        let (wal, log) = SessionWal::recover(&path, false).unwrap();
        assert_eq!(log.base_seq, 0);
        assert!(log.checkpoint.is_none());
        assert_eq!(log.tail.len(), 5);
        assert_eq!(log.tail[2], apply_req(2));
        assert_eq!(wal.head(), head, "recovery reproduces the chain head");
        assert!(wal.verify().is_ok());
    }

    /// A checkpoint spec (a 3-peer line game).
    fn spec() -> GameSpec {
        GameSpec {
            alpha: 1.0,
            geometry: crate::wire::Geometry::Line(vec![0.0, 1.0, 3.0]),
            links: vec![(0, 1)],
            mode: sp_core::BackendMode::Dense,
        }
    }

    #[test]
    fn checkpoint_preserves_the_chain_across_truncation() {
        let path = tmp("compact");
        let mut wal = SessionWal::create(&path, false).unwrap();
        for k in 0..3 {
            wal.append(&apply_req(k)).unwrap();
        }
        wal.commit().unwrap();
        let head = wal.head();
        wal.checkpoint(spec()).unwrap();
        assert_eq!(wal.head(), head, "a checkpoint keeps records and head");
        wal.append(&apply_req(3)).unwrap();
        wal.commit().unwrap();
        drop(wal);

        let (wal, log) = SessionWal::recover(&path, false).unwrap();
        assert_eq!(log.base_seq, 3, "tail restarts at the checkpoint");
        assert_eq!(log.checkpoint, Some(spec()));
        assert_eq!(log.tail.len(), 1);
        assert_eq!(wal.head().records, 4);
        assert!(wal.verify().is_ok());
    }

    /// Opening an existing log appends to it: the checkpoint and the
    /// records already there survive (only `create` starts afresh).
    #[test]
    fn open_never_truncates_an_existing_log() {
        let path = tmp("open");
        let mut wal = SessionWal::create(&path, false).unwrap();
        wal.append(&apply_req(0)).unwrap();
        wal.checkpoint(spec()).unwrap();
        wal.append(&apply_req(1)).unwrap();
        wal.commit().unwrap();
        let head = wal.head();
        drop(wal);
        let before = fs::read(&path).unwrap();

        let mut wal = SessionWal::open(&path, false).unwrap();
        assert_eq!(wal.head(), head);
        assert_eq!(fs::read(&path).unwrap(), before, "open must not rewrite");
        wal.append(&apply_req(2)).unwrap();
        wal.commit().unwrap();
        assert!(fs::read(&path).unwrap().starts_with(&before));
        let log = read(&path).unwrap();
        assert!(log.checkpoint.is_some());
        assert_eq!(log.tail, vec![apply_req(1), apply_req(2)]);

        // A missing file is created fresh.
        fs::remove_file(&path).unwrap();
        let wal = SessionWal::open(&path, false).unwrap();
        assert_eq!(wal.head().records, 0);
        assert!(read(&path).unwrap().checkpoint.is_none());
    }

    /// A header whose checkpoint is not a `create` request fails the
    /// scan even with a valid CRC.
    #[test]
    fn a_checkpoint_that_is_not_a_create_is_rejected() {
        let path = tmp("badckpt");
        let not_create = binary::encode_request(&apply_req(0));
        fs::write(&path, header_frame(0, genesis(), &not_create)).unwrap();
        assert_eq!(read(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_final_record_is_a_clean_end_of_log_at_every_offset() {
        let path = tmp("torn");
        let mut wal = SessionWal::create(&path, false).unwrap();
        wal.append(&apply_req(0)).unwrap();
        let intact_len = fs::metadata(&path).unwrap().len();
        wal.append(&apply_req(1)).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();

        for cut in intact_len..fs::metadata(&path).unwrap().len() {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let (wal, log) = SessionWal::recover(&path, false).expect("torn tail must recover");
            assert_eq!(
                log.tail.len(),
                1,
                "cut at {cut} must drop only the torn record"
            );
            assert_eq!(wal.head().records, 1);
            assert!(
                wal.verify().is_ok(),
                "recovery truncates the tear, so verify is clean"
            );
        }
    }

    #[test]
    fn any_single_byte_corruption_is_rejected_with_a_typed_error() {
        let path = tmp("corrupt");
        let mut wal = SessionWal::create(&path, false).unwrap();
        wal.checkpoint(spec()).unwrap();
        for k in 0..3 {
            wal.append(&apply_req(k)).unwrap();
        }
        wal.commit().unwrap();
        let clean = fs::read(&path).unwrap();
        assert!(wal.verify().is_ok());

        for i in 0..clean.len() {
            let mut bent = clean.clone();
            bent[i] ^= 0x40;
            fs::write(&path, &bent).unwrap();
            let e = wal
                .verify()
                .expect_err(&format!("flipping byte {i} must fail verification"));
            assert!(
                matches!(e.code, ErrorCode::BadFrame | ErrorCode::ChainBroken),
                "byte {i}: unexpected error {e:?}"
            );
        }
        fs::write(&path, &clean).unwrap();
        assert!(wal.verify().is_ok(), "restoring the bytes restores the log");
    }

    /// Frame boundaries of a committed log (offset of each frame,
    /// including the header at 0).
    fn frame_offsets(data: &[u8]) -> Vec<usize> {
        let mut offsets = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            offsets.push(pos);
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len + 4;
        }
        assert_eq!(pos, data.len(), "committed log ends on a frame boundary");
        offsets
    }

    #[test]
    fn mid_log_corruption_fails_recovery_instead_of_truncating() {
        let path = tmp("midlog");
        let mut wal = SessionWal::create(&path, false).unwrap();
        wal.checkpoint(spec()).unwrap();
        for k in 0..3 {
            wal.append(&apply_req(k)).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        let clean = fs::read(&path).unwrap();
        let offsets = frame_offsets(&clean);
        let last_frame = *offsets.last().unwrap();

        // Any flipped byte *before* the final frame (header included)
        // must fail recovery loudly — truncating there would silently
        // drop the acknowledged records that follow, and a later audit
        // of the truncated file would pass.
        for i in 0..last_frame {
            let mut bent = clean.clone();
            bent[i] ^= 0x40;
            fs::write(&path, &bent).unwrap();
            let e = match SessionWal::recover(&path, false) {
                Err(e) => e,
                Ok(_) => panic!("flipping byte {i} must fail recovery"),
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {i}: {e}");
        }
        // Whereas the same flip inside the final frame is
        // indistinguishable from a tear and recovers to the prefix.
        let mut bent = clean.clone();
        bent[last_frame + 4] ^= 0x40;
        fs::write(&path, &bent).unwrap();
        let (wal, log) = SessionWal::recover(&path, false).unwrap();
        assert_eq!(log.tail.len(), 2);
        assert_eq!(wal.head().records, 2);
    }

    #[test]
    fn a_poisoned_log_refuses_append_commit_checkpoint_and_verify() {
        let path = tmp("poison");
        let mut wal = SessionWal::create(&path, false).unwrap();
        wal.append(&apply_req(0)).unwrap();
        wal.commit().unwrap();
        wal.poison_for_test();

        assert!(wal.append(&apply_req(1)).is_err(), "append must refuse");
        assert!(wal.commit().is_err(), "commit must not retry the sync");
        assert!(
            wal.checkpoint(spec()).is_err(),
            "a checkpoint must not bake an untrusted head into a fresh header"
        );
        let e = wal
            .verify()
            .expect_err("no audit of a poisoned log can pass");
        assert_eq!(e.code, ErrorCode::Io);

        // Restarting recovers from what actually reached disk.
        drop(wal);
        let (wal, log) = SessionWal::recover(&path, false).unwrap();
        assert_eq!(log.tail.len(), 1);
        assert!(wal.verify().is_ok());
    }

    #[test]
    fn verify_catches_a_log_swapped_under_a_live_head() {
        let path = tmp("swap");
        let mut wal = SessionWal::create(&path, false).unwrap();
        wal.append(&apply_req(0)).unwrap();
        wal.commit().unwrap();
        // An attacker replacing the file with a *self-consistent* but
        // shorter log still trips the live-head cross-check.
        fs::write(&path, header_frame(0, genesis(), &[])).unwrap();
        let e = wal.verify().unwrap_err();
        assert_eq!(e.code, ErrorCode::ChainBroken);
    }
}
