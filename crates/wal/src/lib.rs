//! # ofmf-wal
//!
//! Dependency-free durability for the OFMF control plane: an append-only,
//! length-prefixed + CRC-checksummed write-ahead log of logical mutations,
//! periodic compacted snapshots with atomic rename-into-place, and a
//! replay path that truncates torn tails instead of refusing to boot.
//!
//! ## Layout
//!
//! A journal directory holds up to three files:
//!
//! * `wal.log` — the live append segment.
//! * `snapshot.bin` — the last compacted snapshot (same frame format).
//! * `wal.old` — the sealed previous segment, present only between a
//!   snapshot's log rotation and its rename-into-place (i.e. after a
//!   crash mid-snapshot).
//!
//! Replay order is `snapshot.bin`, then `wal.old` (if any), then
//! `wal.log` — always a consistent prefix of history. Records are
//! *idempotent* (they carry absolute ETags and full bodies), so a record
//! that lands both in a snapshot and in the live segment replays to the
//! same state; that is what makes the rotate-then-collect snapshot safe
//! against concurrent writers.
//!
//! ## Group commit
//!
//! All appends funnel through one mutex-guarded file handle; a batch of
//! records is framed into a single `write(2)` before `append` returns, so
//! an acknowledged record survives a process crash under every policy.
//! The [`FsyncPolicy`] decides when the file is additionally fsynced:
//! `Always` (inline, before every append returns), `Batch(ms)` (by one
//! flusher thread per [`Wal`], at most once per window and with no lock
//! held, also after writes stop — bounded loss on power failure), or
//! `Off` (no explicit fsync).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod record;

pub use frame::{crc32, encode_frame, scan_frames, FrameInfo, FRAME_HEADER, MAX_FRAME_PAYLOAD};
pub use record::WalRecord;

use ofmf_obs::{Counter, Gauge, Histogram};
use parking_lot::Mutex;
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When the journal file is additionally `fsync`ed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: no loss even on power failure.
    Always,
    /// Group commit: every append still reaches the kernel before it
    /// returns (survives a process crash), and a flusher thread fsyncs
    /// the dirty segment at most once per window of this many
    /// milliseconds, also after writes stop, so a power failure loses at
    /// most one window plus one fsync of mutations. `Batch(0)` fsyncs
    /// inline like `Always`.
    Batch(u64),
    /// Never fsync explicitly: appends reach the kernel per write, but
    /// nothing forces them to stable storage.
    Off,
}

impl FsyncPolicy {
    /// Parse a CLI spelling: `always`, `off`, `batch` (default 25 ms) or
    /// `batch:<ms>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "off" => Some(FsyncPolicy::Off),
            "batch" => Some(FsyncPolicy::Batch(25)),
            other => {
                let ms = other.strip_prefix("batch:")?;
                ms.parse::<u64>().ok().map(FsyncPolicy::Batch)
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(ms) => write!(f, "batch:{ms}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// The result of [`Wal::replay`].
#[derive(Debug)]
pub struct Replay {
    /// Every decoded record, in snapshot → old-segment → live-segment order.
    pub records: Vec<WalRecord>,
    /// How many files had a torn tail truncated away (0–3).
    pub torn_tails: u64,
}

struct Inner {
    /// Shared so the flusher can fsync the segment outside the lock.
    log: Arc<File>,
    log_bytes: u64,
    /// Bytes written since open, across segments.
    written: u64,
    /// The `written` mark covered by the last successful fsync.
    synced: u64,
}

/// The fsync-side metrics, shared with the flusher thread.
#[derive(Clone)]
struct SyncStats {
    fsyncs: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
    unsynced: Arc<Gauge>,
}

impl SyncStats {
    /// Run one fsync, timing it into `ofmf.wal.fsync.latency_ns`.
    fn timed(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        let res = sync();
        self.latency.record_duration(started.elapsed());
        res
    }
}

/// The `Batch` flusher thread; dropping `stop` wakes it for a final sync.
struct Flusher {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// The write-ahead journal: one per OFMF instance, shared by every
/// subsystem through `Arc<Wal>`. Under `Batch(ms)` it owns one
/// `ofmf-wal-flush` thread, stopped and joined when the `Wal` drops.
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    /// Append path: a leaf lock — nothing is acquired while holding it.
    /// Shared with the flusher, which holds it only to read the dirty
    /// mark and to record a finished fsync.
    inner: Arc<Mutex<Inner>>,
    /// Serializes snapshot/replay against each other; ordered before
    /// `inner` and before any registry lock taken by a collect closure.
    snap: Mutex<()>,
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    replayed: Arc<Counter>,
    torn_tail: Arc<Counter>,
    snapshots: Arc<Counter>,
    stats: SyncStats,
    /// Present only under `Batch(ms)` with `ms > 0`.
    flusher: Option<Flusher>,
}

const LOG_FILE: &str = "wal.log";
const OLD_FILE: &str = "wal.old";
const SNAP_FILE: &str = "snapshot.bin";
const SNAP_TMP: &str = "snapshot.tmp";

fn json_err(e: serde_json::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wal record encode: {e}"))
}

impl Wal {
    /// Open (creating if needed) the journal directory and its live
    /// segment. Call [`Wal::replay`] before serving writes.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy) -> io::Result<Wal> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let log_path = dir.join(LOG_FILE);
        let log = OpenOptions::new().create(true).append(true).open(&log_path)?;
        let log_bytes = log.metadata()?.len();
        let inner = Arc::new(Mutex::new(Inner {
            log: Arc::new(log),
            log_bytes,
            written: 0,
            synced: 0,
        }));
        let stats = SyncStats {
            fsyncs: ofmf_obs::counter("ofmf.wal.fsyncs.total"),
            errors: ofmf_obs::counter("ofmf.wal.errors.total"),
            latency: ofmf_obs::histogram("ofmf.wal.fsync.latency_ns"),
            unsynced: ofmf_obs::gauge("ofmf.wal.unsynced.bytes"),
        };
        let flusher = match policy {
            FsyncPolicy::Batch(ms) if ms > 0 => {
                let (stop, stopped) = mpsc::channel();
                let (inner, stats) = (Arc::clone(&inner), stats.clone());
                let thread = std::thread::Builder::new()
                    .name("ofmf-wal-flush".to_string())
                    .spawn(move || flush_loop(&inner, &stats, Duration::from_millis(ms), &stopped))?;
                Some(Flusher { stop, thread })
            }
            _ => None,
        };
        Ok(Wal {
            dir,
            policy,
            inner,
            snap: Mutex::new(()),
            appends: ofmf_obs::counter("ofmf.wal.appends.total"),
            bytes: ofmf_obs::counter("ofmf.wal.bytes.total"),
            replayed: ofmf_obs::counter("ofmf.wal.replayed.total"),
            torn_tail: ofmf_obs::counter("ofmf.wal.torn_tail.total"),
            snapshots: ofmf_obs::counter("ofmf.wal.snapshot.total"),
            stats,
            flusher,
        })
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Path of the live append segment (exposed for crash-injection tests).
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    /// Path of the current snapshot.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAP_FILE)
    }

    fn old_path(&self) -> PathBuf {
        self.dir.join(OLD_FILE)
    }

    /// Bytes currently in the live segment (frames + headers).
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log_bytes
    }

    /// Bytes written to the kernel but not yet covered by a successful
    /// fsync. Always 0 after an `Always` append returns; under `Batch(ms)`
    /// it drains to 0 within about one window plus one fsync.
    pub fn unsynced_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.written - inner.synced
    }

    /// Append one record (group-committed per the fsync policy).
    pub fn append(&self, rec: &WalRecord) -> io::Result<()> {
        self.append_many(std::slice::from_ref(rec))
    }

    /// Append a batch of records in one write.
    pub fn append_many(&self, recs: &[WalRecord]) -> io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for r in recs {
            let payload = serde_json::to_vec(&r.to_value()).map_err(json_err)?;
            frame::encode_frame(&payload, &mut buf);
        }
        let mut inner = self.inner.lock();
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.write");
        (&*inner.log).write_all(&buf)?; // ofmf-lint: allow(no-blocking-while-locked, "group commit: the inner mutex is the append serialization point; the buffer is bounded")
        inner.log_bytes += buf.len() as u64;
        inner.written += buf.len() as u64;
        self.appends.add(recs.len() as u64);
        self.bytes.add(buf.len() as u64);
        // `Batch(ms > 0)` leaves the dirty segment to the flusher thread.
        if matches!(self.policy, FsyncPolicy::Always | FsyncPolicy::Batch(0)) {
            self.sync(&mut inner)?;
        }
        Ok(())
    }

    fn sync(&self, inner: &mut Inner) -> io::Result<()> {
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.fsync");
        // ofmf-wal: policy — `always` (and explicit flush): durable before the caller's lock scope ends
        self.stats.timed(|| inner.log.sync_data())?; // ofmf-lint: allow(no-blocking-while-locked, "the `always` policy's per-record fsync: a journaling caller acks only after the record is durable, inside its own lock scope; `batch` fsyncs on the flusher thread instead")
        self.stats.fsyncs.inc();
        inner.synced = inner.written;
        Ok(())
    }

    /// Append one record, absorbing I/O errors into the
    /// `ofmf.wal.errors.total` counter. Mutation paths use this: by the
    /// time a record is journaled the in-memory mutation has already
    /// happened, so a journaling failure degrades durability, never
    /// availability.
    pub fn record(&self, rec: &WalRecord) {
        if self.append(rec).is_err() {
            self.stats.errors.inc();
        }
    }

    /// Batch form of [`Wal::record`].
    pub fn record_many(&self, recs: &[WalRecord]) {
        if self.append_many(recs).is_err() {
            self.stats.errors.inc();
        }
    }

    /// Force an fsync of the live segment regardless of policy.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.sync(&mut inner)
    }

    /// Write a compacted snapshot. The live segment is rotated out
    /// *before* `collect` runs, so the collected state is guaranteed to
    /// cover everything in the sealed segment; mutations racing with the
    /// collection land in the fresh segment and replay idempotently on
    /// top of the snapshot.
    pub fn snapshot_with<F>(&self, collect: F) -> io::Result<usize>
    where
        F: FnOnce() -> Vec<WalRecord>,
    {
        let mut span = ofmf_obs::enter_span("ofmf.wal.snapshot");
        let _guard = self.snap.lock();
        self.rotate_log()?;
        let records = collect();
        let mut buf = Vec::new();
        for r in &records {
            let payload = serde_json::to_vec(&r.to_value()).map_err(json_err)?;
            frame::encode_frame(&payload, &mut buf);
        }
        let tmp = self.dir.join(SNAP_TMP);
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.snapshot");
        let mut f = File::create(&tmp)?; // ofmf-lint: allow(no-blocking-while-locked, "snapshot collection holds only the snap mutex, taken by no hot path")
        f.write_all(&buf)?;
        // ofmf-wal: policy — the rename below must publish a fully durable snapshot
        self.stats.timed(|| f.sync_all())?; // ofmf-lint: allow(no-blocking-while-locked, "durability point: the rename below must publish a fully durable snapshot")
        drop(f);
        std::fs::rename(&tmp, self.snapshot_path())?; // ofmf-lint: allow(no-blocking-while-locked, "atomic publish of the snapshot under the snap mutex only")
        if let Ok(d) = File::open(&self.dir) {
            // ofmf-wal: policy — make the rename itself durable before dropping the old segment
            let _ = self.stats.timed(|| d.sync_all()); // ofmf-lint: allow(no-blocking-while-locked, "make the rename durable before dropping the old segment")
        }
        let _ = std::fs::remove_file(self.old_path()); // ofmf-lint: allow(no-blocking-while-locked, "old segment removal after the snapshot superseded it")
        self.snapshots.inc();
        span.annotate("records", records.len().to_string());
        span.annotate("bytes", buf.len().to_string());
        Ok(records.len())
    }

    fn rotate_log(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.rotate");
        // ofmf-wal: policy — seal the segment before the snapshot supersedes it
        self.stats.timed(|| inner.log.sync_data())?; // ofmf-lint: allow(no-blocking-while-locked, "segment seal: rotation must not interleave with appends")
        inner.synced = inner.written;
        std::fs::rename(self.log_path(), self.old_path())?; // ofmf-lint: allow(no-blocking-while-locked, "segment rotation under the append mutex by design")
        inner.log = Arc::new(OpenOptions::new().create(true).append(true).open(self.log_path())?);
        inner.log_bytes = 0;
        Ok(())
    }

    /// Read back every durable record: snapshot first, then the sealed
    /// segment a crashed snapshot may have left behind, then the live
    /// segment. A torn tail anywhere yields the longest valid prefix; the
    /// live segment is additionally truncated in place so subsequent
    /// appends extend a clean file.
    pub fn replay(&self) -> io::Result<Replay> {
        let mut span = ofmf_obs::enter_span("ofmf.wal.replay");
        span.force_sample();
        let _guard = self.snap.lock();
        let mut records = Vec::new();
        let mut torn = 0u64;
        torn += self.read_segment(&self.snapshot_path(), false, &mut records)?;
        torn += self.read_segment(&self.old_path(), false, &mut records)?;
        torn += self.read_segment(&self.log_path(), true, &mut records)?;
        self.replayed.add(records.len() as u64);
        span.annotate("records", records.len().to_string());
        if torn > 0 {
            span.annotate("torn_tails", torn.to_string());
        }
        Ok(Replay {
            records,
            torn_tails: torn,
        })
    }

    /// Decode one segment file into `out`. Returns 1 if a torn tail was
    /// dropped (and, for the live segment, truncated on disk), else 0.
    fn read_segment(&self, path: &Path, is_live: bool, out: &mut Vec<WalRecord>) -> io::Result<u64> {
        // ofmf-lint: allow(no-blocking-while-locked, "replay reads segments under the snap mutex to exclude a concurrent snapshot; runs before appenders exist")
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let (decoded, valid_len) = decode_records(&bytes);
        let torn = valid_len < bytes.len();
        if torn {
            self.torn_tail.inc();
            if is_live {
                let mut inner = self.inner.lock();
                #[cfg(feature = "lockcheck")]
                parking_lot::blocking_op("wal.file.truncate");
                let f = OpenOptions::new().write(true).open(path)?; // ofmf-lint: allow(no-blocking-while-locked, "torn-tail truncation during replay, before any concurrent appender exists")
                f.set_len(valid_len as u64)?;
                // ofmf-wal: policy — persist the tail truncation before serving new appends
                self.stats.timed(|| f.sync_all())?; // ofmf-lint: allow(no-blocking-while-locked, "persist the tail truncation before serving new appends")
                inner.log_bytes = valid_len as u64;
            }
        }
        out.extend(decoded);
        Ok(u64::from(torn))
    }
}

impl Drop for Wal {
    /// Wake the flusher for a final sync of a dirty tail, then join it. A
    /// flusher that panicked stopped syncing: count it as a journal error.
    fn drop(&mut self) {
        if let Some(Flusher { stop, thread }) = self.flusher.take() {
            drop(stop);
            if thread.join().is_err() {
                self.stats.errors.inc();
            }
        }
    }
}

/// The `Batch` group-commit loop: wake once per `window`, fsync the
/// segment if it is dirty, and once the `Wal` drops its sender do one
/// last sync and exit. The thread owns clones of `inner` and the stats,
/// never the `Wal`, so dropping the last `Wal` handle is what stops it.
fn flush_loop(inner: &Mutex<Inner>, stats: &SyncStats, window: Duration, stop: &mpsc::Receiver<()>) {
    let mut tick = Instant::now();
    loop {
        let stopping = !matches!(
            stop.recv_timeout(window.saturating_sub(tick.elapsed())),
            Err(RecvTimeoutError::Timeout)
        );
        tick = Instant::now();
        sync_dirty(inner, stats);
        if stopping {
            return;
        }
    }
}

/// One flusher tick: sample the unsynced gauge, and if the segment is
/// dirty fsync it with no lock held. A failed fsync counts as a journal
/// error and leaves the segment dirty for the next tick.
fn sync_dirty(inner: &Mutex<Inner>, stats: &SyncStats) {
    let (log, target) = {
        let inner = inner.lock();
        let dirty = inner.written - inner.synced;
        stats.unsynced.set(i64::try_from(dirty).unwrap_or(i64::MAX));
        if dirty == 0 {
            return;
        }
        (Arc::clone(&inner.log), inner.written)
    };
    // ofmf-wal: policy — `batch:<ms>` group commit, off the append path and outside every lock
    match stats.timed(|| log.sync_data()) {
        Ok(()) => {
            stats.fsyncs.inc();
            let mut inner = inner.lock();
            inner.synced = inner.synced.max(target);
        }
        Err(_) => stats.errors.inc(),
    }
}

/// Decode framed records from a byte buffer. Returns the records of the
/// longest valid prefix and that prefix's length: a frame whose payload
/// fails CRC *or* fails to decode as a known record ends the prefix.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let (frames, mut valid_len) = scan_frames(bytes);
    let mut out = Vec::with_capacity(frames.len());
    for f in &frames {
        let payload = match bytes.get(f.payload_start..f.end()) {
            Some(p) => p,
            None => {
                valid_len = f.offset;
                break;
            }
        };
        let parsed: Result<Value, _> = serde_json::from_slice(payload);
        match parsed.ok().as_ref().and_then(WalRecord::from_value) {
            Some(rec) => out.push(rec),
            None => {
                valid_len = f.offset;
                break;
            }
        }
    }
    (out, valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ofmf-wal-{tag}-{}-{}",
            std::process::id(),
            ofmf_obs::next_request_id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mark(ms: u64) -> WalRecord {
        WalRecord::ClockMark { now_ms: ms }
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = tmpdir("roundtrip");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        for i in 0..10 {
            wal.append(&mark(i)).expect("append");
        }
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.torn_tails, 0);
        assert_eq!(replay.records, (0..10).map(mark).collect::<Vec<_>>());
        // A second handle sees the same history.
        let wal2 = Wal::open(&dir, FsyncPolicy::Off).expect("reopen");
        assert_eq!(wal2.replay().expect("replay2").records.len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_survives() {
        let dir = tmpdir("torn");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        for i in 0..5 {
            wal.append(&mark(i)).expect("append");
        }
        drop(wal);
        // Tear the last record mid-payload.
        let path = dir.join("wal.log");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.torn_tails, 1);
        assert_eq!(replay.records.len(), 4);
        // The file was physically truncated: appends extend a clean log.
        wal.append(&mark(99)).expect("append after truncate");
        let replay = wal.replay().expect("replay after append");
        assert_eq!(replay.torn_tails, 0);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records.last(), Some(&mark(99)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_replays_in_order() {
        let dir = tmpdir("snap");
        let wal = Wal::open(&dir, FsyncPolicy::Batch(5)).expect("open");
        for i in 0..20 {
            wal.append(&mark(i)).expect("append");
        }
        let n = wal
            .snapshot_with(|| vec![WalRecord::EtagFloor { seq: 77 }])
            .expect("snapshot");
        assert_eq!(n, 1);
        wal.append(&mark(100)).expect("append post-snapshot");
        let replay = wal.replay().expect("replay");
        assert_eq!(
            replay.records,
            vec![WalRecord::EtagFloor { seq: 77 }, mark(100)],
            "snapshot first, then the live segment"
        );
        assert!(!dir.join("wal.old").exists(), "sealed segment removed after snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_rotate_and_snapshot_keeps_old_segment() {
        let dir = tmpdir("crash-mid-snap");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        wal.append(&mark(1)).expect("append");
        // Simulate the crash window: rotation happened, snapshot did not.
        wal.rotate_log().expect("rotate");
        wal.append(&mark(2)).expect("append to fresh segment");
        drop(wal);
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.records, vec![mark(1), mark(2)], "old then live segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_payload_counts_as_torn() {
        let dir = tmpdir("badjson");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        wal.append(&mark(1)).expect("append");
        drop(wal);
        let path = dir.join("wal.log");
        // A structurally valid frame whose payload is not a record.
        let mut bytes = std::fs::read(&path).expect("read");
        let mut extra = Vec::new();
        encode_frame(b"{\"k\": \"no_such_kind\"}", &mut extra);
        bytes.extend_from_slice(&extra);
        std::fs::write(&path, &bytes).expect("write");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.torn_tails, 1);
        assert_eq!(replay.records, vec![mark(1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parse() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::Batch(25)));
        assert_eq!(FsyncPolicy::parse("batch:10"), Some(FsyncPolicy::Batch(10)));
        assert_eq!(FsyncPolicy::parse("batch:x"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Batch(10).to_string(), "batch:10");
    }
}
