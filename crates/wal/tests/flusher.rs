//! The durability contract of each fsync policy, as seen from outside:
//!
//! * every append reaches the kernel before `append` returns, under every
//!   policy;
//! * `always` (and `batch:0`) is fsynced before `append` returns;
//! * under `batch:<ms>` a flusher thread — never the appending thread —
//!   fsyncs the tail within about one window plus one fsync, also after
//!   writes stop;
//! * dropping a `Wal` syncs its dirty tail and joins its flusher.

use ofmf_wal::{FsyncPolicy, Wal, WalRecord};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static CASE: AtomicU64 = AtomicU64::new(0);

/// The fsync counters are process-global and flusher threads are counted
/// per process, so each test holds this lock for its whole body: exact
/// before/after deltas and thread counts are then this test's own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ofmf-flush-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mark(ms: u64) -> WalRecord {
    WalRecord::ClockMark { now_ms: ms }
}

fn fsyncs() -> u64 {
    ofmf_obs::counter("ofmf.wal.fsyncs.total").get()
}

/// Live threads of this process named after the WAL flusher (`None` off
/// Linux, where there is no `/proc/self/task`).
fn flusher_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "ofmf-wal-flush")
            .count(),
    )
}

/// Poll `cond` until it holds or `deadline` passes.
fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if cond() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn batch_tail_is_synced_after_writes_stop() {
    let _serial = serial();
    let dir = fresh_dir("tail");
    let wal = Wal::open(&dir, FsyncPolicy::Batch(5)).expect("open");
    let latency = ofmf_obs::histogram("ofmf.wal.fsync.latency_ns");
    let timed_before = latency.count();
    wal.append(&mark(1)).expect("append");
    // One append and no more: the flusher alone must cover it.
    assert!(
        eventually(Duration::from_secs(1), || wal.unsynced_bytes() == 0),
        "batch:5 left {} bytes unsynced for 1 s after the last append",
        wal.unsynced_bytes()
    );
    assert!(latency.count() > timed_before, "the flusher's fsync is timed");
    // The flusher samples the gauge every tick; the tick after the sync reads 0.
    let gauge = ofmf_obs::gauge("ofmf.wal.unsynced.bytes");
    assert!(eventually(Duration::from_secs(1), || gauge.get() == 0));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_syncs_the_dirty_tail_and_joins_the_flusher() {
    let _serial = serial();
    let before_threads = flusher_threads();
    let started = Instant::now();
    for i in 0..200 {
        let dir = fresh_dir("drop");
        // A window far longer than the test: only `Drop` can sync the tail.
        let wal = Wal::open(&dir, FsyncPolicy::Batch(60_000)).expect("open");
        let synced_before = fsyncs();
        wal.append(&mark(i)).expect("append");
        wal.append(&mark(i + 1)).expect("append");
        assert!(wal.unsynced_bytes() > 0, "cycle {i}: no fsync on the appending thread");
        assert_eq!(fsyncs(), synced_before, "cycle {i}: batch appends never fsync inline");
        drop(wal);
        assert_eq!(fsyncs(), synced_before + 1, "cycle {i}: drop syncs the dirty tail once");
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Shutdown is a channel disconnect, not a wait for the 60 s window.
    assert!(started.elapsed() < Duration::from_secs(30), "drop waited on the window");
    if let Some(before) = before_threads {
        assert!(
            eventually(Duration::from_secs(1), || flusher_threads() == Some(before)),
            "flusher threads leaked: {:?} live, {before} before",
            flusher_threads()
        );
    }
}

#[test]
fn always_is_durable_on_return() {
    let _serial = serial();
    let dir = fresh_dir("always");
    let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
    for i in 0..20 {
        let synced_before = fsyncs();
        wal.append(&mark(i)).expect("append");
        assert_eq!(wal.unsynced_bytes(), 0, "append {i}");
        assert_eq!(fsyncs(), synced_before + 1, "append {i}: one inline fsync");
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_zero_syncs_inline_without_a_flusher() {
    let _serial = serial();
    let before_threads = flusher_threads();
    let dir = fresh_dir("batch0");
    let wal = Wal::open(&dir, FsyncPolicy::Batch(0)).expect("open");
    assert_eq!(wal.policy(), FsyncPolicy::Batch(0));
    assert_eq!(flusher_threads(), before_threads, "batch:0 spawns no flusher");
    for i in 0..20 {
        let synced_before = fsyncs();
        wal.append(&mark(i)).expect("append");
        assert_eq!(wal.unsynced_bytes(), 0, "append {i}");
        assert_eq!(fsyncs(), synced_before + 1, "append {i}: one inline fsync");
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_append_reaches_the_kernel_before_returning() {
    let _serial = serial();
    let before_threads = flusher_threads();
    for policy in [FsyncPolicy::Always, FsyncPolicy::Batch(60_000), FsyncPolicy::Off] {
        let dir = fresh_dir("kernel");
        let wal = Wal::open(&dir, policy).expect("open");
        for i in 0..10 {
            wal.append(&mark(i)).expect("append");
            // A fresh handle reads what the kernel holds: every record so far.
            let on_disk = std::fs::read(wal.log_path()).expect("read log");
            assert_eq!(on_disk.len() as u64, wal.log_bytes(), "{policy} append {i}");
            let (records, valid) = ofmf_wal::decode_records(&on_disk);
            assert_eq!(valid, on_disk.len(), "{policy} append {i}");
            assert_eq!(records, (0..=i).map(mark).collect::<Vec<_>>(), "{policy} append {i}");
        }
        if policy == FsyncPolicy::Off {
            assert_eq!(flusher_threads(), before_threads, "off spawns no flusher");
            assert!(wal.unsynced_bytes() > 0, "off never fsyncs");
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
