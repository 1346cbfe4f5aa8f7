//! Lock-order instrumentation: a process-global lock-acquisition graph
//! with cycle detection.
//!
//! Every blocking acquisition through the shim calls [`before_blocking`]
//! with the set of locks the current thread already holds; each
//! `held → acquired` pair becomes a directed edge tagged with the
//! `file:line` (and read/write mode) of both acquisition sites, recorded
//! the first time it is witnessed. [`lock_order_report`] condenses the
//! graph into strongly connected components and materializes one
//! representative cycle per non-trivial component: a cycle means two code
//! paths order the same locks differently — a potential deadlock — and is
//! reported from a single run that never actually hung.
//!
//! The graph's own synchronization uses `std::sync` directly so the
//! instrumentation never observes (or deadlocks on) itself.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::Write as _;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};
use std::time::Instant;

/// How a lock was (or is being) acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Mutex::lock`.
    Lock,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Lock => "lock",
            Mode::Read => "read",
            Mode::Write => "write",
        }
    }
}

/// One acquisition site: where in the code a lock was taken, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    loc: &'static Location<'static>,
    mode: Mode,
}

impl Site {
    fn render(&self) -> String {
        format!("{}:{} ({})", self.loc.file(), self.loc.line(), self.mode.label())
    }
}

/// A witnessed ordering edge: while holding the lock acquired at
/// `held_at`, the thread went on to (try to) acquire the lock at
/// `acquired_at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Process-unique id of the lock that was already held.
    pub from: u64,
    /// Process-unique id of the lock acquired second.
    pub to: u64,
    /// `file:line (mode)` where the held lock had been acquired.
    pub held_at: String,
    /// `file:line (mode)` of the second acquisition.
    pub acquired_at: String,
}

/// A potential deadlock: a cycle of ordering edges.
#[derive(Debug, Clone)]
pub struct LockCycle {
    /// Lock ids along the cycle (each edge goes `lock_ids[i] →
    /// lock_ids[i+1]`, wrapping).
    pub lock_ids: Vec<u64>,
    /// The witnessed edges forming the cycle, with both sites named.
    pub edges: Vec<LockEdge>,
}

impl fmt::Display for LockCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "potential deadlock cycle over {} locks:", self.lock_ids.len())?;
        for e in &self.edges {
            writeln!(
                f,
                "  lock#{} (held at {}) -> lock#{} (acquired at {})",
                e.from, e.held_at, e.to, e.acquired_at
            )?;
        }
        Ok(())
    }
}

/// Snapshot of the lock-order graph plus its cycle analysis.
#[derive(Debug, Clone)]
pub struct LockOrderReport {
    /// Number of distinct lock instances that participated in any nested
    /// acquisition (single, un-nested locks never enter the graph).
    pub locks: usize,
    /// All witnessed ordering edges.
    pub edges: Vec<LockEdge>,
    /// Potential deadlocks: one representative cycle per strongly
    /// connected component of the graph.
    pub cycles: Vec<LockCycle>,
}

impl LockOrderReport {
    /// True when no ordering cycle was witnessed.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The cycles whose edges touch a source path containing `needle`
    /// (used by tests to scope assertions to one subsystem).
    pub fn cycles_touching(&self, needle: &str) -> Vec<&LockCycle> {
        self.cycles
            .iter()
            .filter(|c| {
                c.edges
                    .iter()
                    .any(|e| e.held_at.contains(needle) || e.acquired_at.contains(needle))
            })
            .collect()
    }

    /// Human-readable rendering of the full report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "lockcheck: {} locks in graph, {} order edges, {} cycle(s)\n",
            self.locks,
            self.edges.len(),
            self.cycles.len()
        );
        for c in &self.cycles {
            out.push_str(&c.to_string());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Hold-time profiling, contention counting and the blocking sanitizer
// ---------------------------------------------------------------------------

/// Per-acquisition-site hold statistics: a lock-free struct updated on every
/// guard drop. Durations land in log2-ns buckets so quantiles come out of a
/// fixed 48-slot array with no per-sample allocation.
pub struct SiteStats {
    file: &'static str,
    line: u32,
    mode: Mode,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    contended: AtomicU64,
    buckets: [AtomicU64; HOLD_BUCKETS],
}

const HOLD_BUCKETS: usize = 48;

/// One row of [`hold_time_report`].
#[derive(Debug, Clone)]
pub struct SiteHold {
    /// Acquisition site (`file:line`), as named by `#[track_caller]`.
    pub file: String,
    /// 1-based acquisition line.
    pub line: u32,
    /// How the first witnessed acquisition at this site took the lock.
    pub mode: &'static str,
    /// Number of completed hold intervals.
    pub count: u64,
    /// Sum of all hold durations in nanoseconds.
    pub total_ns: u64,
    /// Longest single hold in nanoseconds.
    pub max_ns: u64,
    /// Upper bound of the bucket containing the 99th percentile hold.
    pub p99_ns: u64,
    /// Acquisitions that found the lock already taken (a `try_*` probe
    /// failed before the blocking acquisition).
    pub contended: u64,
}

/// One witnessed blocking operation executed while at least one shim lock
/// was held by the same thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingViolation {
    /// What blocked: `clock.wait_ms`, `chan.recv`, `wal.append.write`, …
    pub kind: String,
    /// Source file of the blocking call (via `#[track_caller]`).
    pub file: String,
    /// 1-based line of the blocking call.
    pub line: u32,
    /// `file:line (mode)` of every lock held at the moment of the call.
    pub held: Vec<String>,
    /// How many times this (kind, site) pair was witnessed.
    pub count: u64,
}

type SiteKey = (&'static str, u32);

fn site_registry() -> &'static StdMutex<HashMap<SiteKey, &'static SiteStats>> {
    static REG: OnceLock<StdMutex<HashMap<SiteKey, &'static SiteStats>>> = OnceLock::new();
    REG.get_or_init(|| StdMutex::new(HashMap::new()))
}

thread_local! {
    static SITE_CACHE: RefCell<HashMap<SiteKey, &'static SiteStats>> = RefCell::new(HashMap::new());
}

fn site_stats(loc: &'static Location<'static>, mode: Mode) -> &'static SiteStats {
    let key: SiteKey = (loc.file(), loc.line());
    SITE_CACHE.with(|cache| {
        if let Some(s) = cache.borrow().get(&key) {
            return *s;
        }
        let mut reg = site_registry().lock().unwrap_or_else(PoisonError::into_inner);
        let stats = *reg.entry(key).or_insert_with(|| {
            Box::leak(Box::new(SiteStats {
                file: loc.file(),
                line: loc.line(),
                mode,
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
                contended: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }))
        });
        cache.borrow_mut().insert(key, stats);
        stats
    })
}

impl SiteStats {
    fn record_hold(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros() as usize).min(HOLD_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn p99_ns(&self) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let target = count - count / 100;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << i;
            }
        }
        self.max_ns.load(Ordering::Relaxed)
    }
}

/// Count a contended acquisition (the `try_*` probe ahead of the blocking
/// call failed) at the caller's site.
#[track_caller]
pub(crate) fn contended(mode: Mode) {
    site_stats(Location::caller(), mode)
        .contended
        .fetch_add(1, Ordering::Relaxed);
}

/// Snapshot the per-site hold-time statistics, sorted by total hold time
/// descending so the hottest lock sites lead.
pub fn hold_time_report() -> Vec<SiteHold> {
    let reg = site_registry().lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: Vec<SiteHold> = reg
        .values()
        .map(|s| SiteHold {
            file: s.file.to_string(),
            line: s.line,
            mode: s.mode.label(),
            count: s.count.load(Ordering::Relaxed),
            total_ns: s.total_ns.load(Ordering::Relaxed),
            max_ns: s.max_ns.load(Ordering::Relaxed),
            p99_ns: s.p99_ns(),
            contended: s.contended.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then(a.file.cmp(&b.file))
            .then(a.line.cmp(&b.line))
    });
    out
}

struct BlockingLog {
    /// `(kind, file, line) → (held sites of first witness, count)`.
    seen: BTreeMap<(String, &'static str, u32), (Vec<String>, u64)>,
}

fn blocking_log() -> &'static StdMutex<BlockingLog> {
    static LOG: OnceLock<StdMutex<BlockingLog>> = OnceLock::new();
    LOG.get_or_init(|| StdMutex::new(BlockingLog { seen: BTreeMap::new() }))
}

/// The no-blocking-while-locked sanitizer's entry point: call sites that
/// are about to perform an operation that can block on something other
/// than a shim lock (file I/O, `Clock::wait_ms`, channel `recv`,
/// `epoll_wait`) report in here. If the calling thread holds any shim
/// lock, the (kind, caller site, held sites) triple is recorded as a
/// violation for [`blocking_report`] and the lock-audit diff.
#[track_caller]
pub fn blocking_op(kind: &str) {
    let loc = Location::caller();
    let held_sites: Vec<String> = HELD.with(|held| held.borrow().iter().map(|(_, s)| s.render()).collect());
    if held_sites.is_empty() {
        return;
    }
    let mut log = blocking_log().lock().unwrap_or_else(PoisonError::into_inner);
    let entry = log
        .seen
        .entry((kind.to_string(), loc.file(), loc.line()))
        .or_insert_with(|| (held_sites.clone(), 0));
    entry.1 += 1;
    if entry.1 == 1 {
        dump_line(
            "blocking",
            &format!("{kind}\t{}\t{}\t{}", loc.file(), loc.line(), held_sites.join(",")),
        );
    }
}

/// Every witnessed blocking-while-locked violation (first held-set kept).
pub fn blocking_report() -> Vec<BlockingViolation> {
    let log = blocking_log().lock().unwrap_or_else(PoisonError::into_inner);
    log.seen
        .iter()
        .map(|((kind, file, line), (held, count))| BlockingViolation {
            kind: kind.clone(),
            file: file.to_string(),
            line: *line,
            held: held.clone(),
            count: *count,
        })
        .collect()
}

/// Clear the blocking-violation log (tests scope assertions with this).
pub fn blocking_reset() {
    blocking_log()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .seen
        .clear();
}

/// When `OFMF_LOCKCHECK_DIR` is set, witnessed artifacts are appended to
/// per-process files under it (`edges-<pid>.tsv`, `blocking-<pid>.tsv`)
/// the first time they occur, so any exit path — including abort — leaves
/// a complete log for `ofmf-lint --lock-audit`.
fn dump_line(stream: &str, line: &str) {
    static DIR: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();
    let Some(dir) = DIR.get_or_init(|| std::env::var_os("OFMF_LOCKCHECK_DIR").map(std::path::PathBuf::from)) else {
        return;
    };
    static FILES: OnceLock<StdMutex<HashMap<String, std::fs::File>>> = OnceLock::new();
    let files = FILES.get_or_init(|| StdMutex::new(HashMap::new()));
    let mut files = files.lock().unwrap_or_else(PoisonError::into_inner);
    let file = match files.entry(stream.to_string()) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("{stream}-{}.tsv", std::process::id()));
            match std::fs::OpenOptions::new().create(true).append(true).open(path) {
                Ok(f) => v.insert(f),
                Err(_) => return,
            }
        }
    };
    let _ = writeln!(file, "{line}");
}

struct Graph {
    /// `(from, to) → first witnessed sites`.
    edges: HashMap<(u64, u64), (Site, Site)>,
}

fn graph() -> &'static StdMutex<Graph> {
    static GRAPH: OnceLock<StdMutex<Graph>> = OnceLock::new();
    GRAPH.get_or_init(|| StdMutex::new(Graph { edges: HashMap::new() }))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static HELD: RefCell<Vec<(u64, Site)>> = const { RefCell::new(Vec::new()) };
}

/// Resolve (lazily assigning) the process-unique id of a lock instance.
pub(crate) fn lock_id(slot: &AtomicU64) -> u64 {
    let id = slot.load(Ordering::Relaxed);
    if id != 0 {
        return id;
    }
    let fresh = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(raced) => raced,
    }
}

/// Record ordering edges from every lock the thread holds to the lock it
/// is about to block on. Called *before* the acquisition so the edge is
/// witnessed even on a run where the acquisition would deadlock.
#[track_caller]
pub(crate) fn before_blocking(id: u64, mode: Mode) {
    let site = Site {
        loc: Location::caller(),
        mode,
    };
    HELD.with(|held| {
        let held = held.borrow();
        if held.is_empty() {
            return;
        }
        let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        for (held_id, held_site) in held.iter() {
            if *held_id != id {
                if let std::collections::hash_map::Entry::Vacant(e) = g.edges.entry((*held_id, id)) {
                    e.insert((*held_site, site));
                    dump_line(
                        "edges",
                        &format!(
                            "{}\t{}\t{}\t{}\t{}\t{}",
                            held_site.loc.file(),
                            held_site.loc.line(),
                            held_site.mode.label(),
                            site.loc.file(),
                            site.loc.line(),
                            site.mode.label()
                        ),
                    );
                }
            }
        }
    });
}

/// Token holding a lock's membership in the per-thread held set; dropped
/// by the guard wrapper when the lock is released. It also carries the
/// acquisition instant and the site's stats slot, so the drop records the
/// hold duration.
#[derive(Debug)]
pub struct HeldToken {
    id: u64,
    since: Instant,
    stats: &'static SiteStats,
}

impl std::fmt::Debug for SiteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SiteStats({}:{})", self.file, self.line)
    }
}

/// Push the acquired lock onto the thread's held set.
#[track_caller]
pub(crate) fn acquired(id: u64, mode: Mode) -> HeldToken {
    let loc = Location::caller();
    let site = Site { loc, mode };
    HELD.with(|held| held.borrow_mut().push((id, site)));
    HeldToken {
        id,
        since: Instant::now(),
        stats: site_stats(loc, mode),
    }
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        let ns = u64::try_from(self.since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.record_hold(ns);
        // Guards can be dropped out of acquisition order; remove the most
        // recent entry for this id rather than assuming LIFO.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|(id, _)| *id == self.id) {
                held.remove(pos);
            }
        });
    }
}

/// Clear all witnessed edges (lock ids are preserved). Tests use this to
/// scope a check to one workload.
pub fn lock_order_reset() {
    graph().lock().unwrap_or_else(PoisonError::into_inner).edges.clear();
}

/// Snapshot the lock-order graph and run cycle detection over it.
pub fn lock_order_report() -> LockOrderReport {
    let edges: Vec<((u64, u64), (Site, Site))> = {
        let g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        g.edges.iter().map(|(k, v)| (*k, *v)).collect()
    };
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut nodes: HashSet<u64> = HashSet::new();
    let mut site_of: HashMap<(u64, u64), (Site, Site)> = HashMap::new();
    for ((from, to), sites) in &edges {
        adj.entry(*from).or_default().push(*to);
        nodes.insert(*from);
        nodes.insert(*to);
        site_of.insert((*from, *to), *sites);
    }

    let cycles = sccs(&nodes, &adj)
        .into_iter()
        .filter(|scc| scc.len() > 1)
        .filter_map(|scc| representative_cycle(&scc, &adj, &site_of))
        .collect();

    LockOrderReport {
        locks: nodes.len(),
        edges: edges
            .iter()
            .map(|((from, to), (h, a))| LockEdge {
                from: *from,
                to: *to,
                held_at: h.render(),
                acquired_at: a.render(),
            })
            .collect(),
        cycles,
    }
}

/// Tarjan's strongly-connected-components algorithm (iterative).
fn sccs(nodes: &HashSet<u64>, adj: &HashMap<u64, Vec<u64>>) -> Vec<Vec<u64>> {
    struct State {
        index: HashMap<u64, usize>,
        lowlink: HashMap<u64, usize>,
        on_stack: HashSet<u64>,
        stack: Vec<u64>,
        next_index: usize,
        out: Vec<Vec<u64>>,
    }
    let mut st = State {
        index: HashMap::new(),
        lowlink: HashMap::new(),
        on_stack: HashSet::new(),
        stack: Vec::new(),
        next_index: 0,
        out: Vec::new(),
    };
    let empty: Vec<u64> = Vec::new();
    let mut ordered: Vec<u64> = nodes.iter().copied().collect();
    ordered.sort_unstable();
    for &root in &ordered {
        if st.index.contains_key(&root) {
            continue;
        }
        // Explicit DFS stack: (node, next neighbor offset).
        let mut dfs: Vec<(u64, usize)> = vec![(root, 0)];
        st.index.insert(root, st.next_index);
        st.lowlink.insert(root, st.next_index);
        st.next_index += 1;
        st.stack.push(root);
        st.on_stack.insert(root);
        while let Some(&mut (v, ref mut ni)) = dfs.last_mut() {
            let neighbors = adj.get(&v).unwrap_or(&empty);
            if *ni < neighbors.len() {
                let w = neighbors[*ni];
                *ni += 1;
                if !st.index.contains_key(&w) {
                    st.index.insert(w, st.next_index);
                    st.lowlink.insert(w, st.next_index);
                    st.next_index += 1;
                    st.stack.push(w);
                    st.on_stack.insert(w);
                    dfs.push((w, 0));
                } else if st.on_stack.contains(&w) {
                    let wl = st.index[&w];
                    let vl = st.lowlink[&v];
                    st.lowlink.insert(v, vl.min(wl));
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let vl = st.lowlink[&v];
                    let pl = st.lowlink[&parent];
                    st.lowlink.insert(parent, pl.min(vl));
                }
                if st.lowlink[&v] == st.index[&v] {
                    let mut comp = Vec::new();
                    while let Some(w) = st.stack.pop() {
                        st.on_stack.remove(&w);
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    st.out.push(comp);
                }
            }
        }
    }
    st.out
}

/// Materialize one concrete cycle inside a strongly connected component:
/// from the smallest node, BFS within the component back to itself.
fn representative_cycle(
    scc: &[u64],
    adj: &HashMap<u64, Vec<u64>>,
    site_of: &HashMap<(u64, u64), (Site, Site)>,
) -> Option<LockCycle> {
    let members: HashSet<u64> = scc.iter().copied().collect();
    let start = *scc.iter().min()?;
    // BFS from start, staying inside the SCC, until an edge returns to it.
    let mut prev: HashMap<u64, u64> = HashMap::new();
    let mut queue = VecDeque::from([start]);
    let empty: Vec<u64> = Vec::new();
    while let Some(v) = queue.pop_front() {
        for &w in adj.get(&v).unwrap_or(&empty) {
            if !members.contains(&w) {
                continue;
            }
            if w == start {
                // Reconstruct start → … → v → start.
                let mut path = vec![v];
                let mut cur = v;
                while cur != start {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                let mut edges = Vec::with_capacity(path.len());
                for i in 0..path.len() {
                    let from = path[i];
                    let to = path[(i + 1) % path.len()];
                    let (h, a) = site_of.get(&(from, to))?;
                    edges.push(LockEdge {
                        from,
                        to,
                        held_at: h.render(),
                        acquired_at: a.render(),
                    });
                }
                return Some(LockCycle { lock_ids: path, edges });
            }
            if !prev.contains_key(&w) && w != start {
                prev.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::{lock_order_report, Mutex};

    #[test]
    fn ab_ba_order_is_reported_as_cycle() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        {
            let _ga = a.lock(); // site A1
            let _gb = b.lock(); // site A2: edge a → b
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // edge b → a: closes the cycle
        }
        let report = lock_order_report();
        assert!(
            !report.cycles.is_empty(),
            "AB/BA order must be detected:\n{}",
            report.render()
        );
        let rendered = report.render();
        assert!(rendered.contains("lockcheck.rs"), "sites must be named: {rendered}");
    }
}
