//! `perfbench`: the OFMF benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse|manage|compose --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run writes a seeded history into a fresh WAL, times restarts from
//! it (`setup_s`), then drives one workload against the restarted OFMF in a
//! closed loop for `S` seconds and checks every reply. It prints a run
//! record and each metric with its unit and sample count, and as its last
//! line one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer split with `--trace 1`. See `perfbench/README.md`.

mod client;
mod gen;
mod layers;
mod stats;
mod sut;
mod trace;
mod workloads;

use client::{Conn, Resp};
use composer::request::BindingKind;
use gen::{BrowseStream, ComposeStream, ManageStream};
use redfish_model::odata::ODataId;
use serde_json::{json, Map, Value};
use stats::{median, median_f, ratio, Hist};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sut::Live;
use trace::{Tracer, AGENT_OPS};
use workloads::{ComposeClient, ManageClient, Samples, SentMap, Tally, Timed};

/// Restarts timed per run; `setup_s` is their median.
const RESTARTS: usize = 9;

/// The end-to-end metrics of the JSON line. The medians and `rate_per_s`
/// are printed but not emitted: on a 2-vCPU host shared with other tenants
/// they move between runs of one seed by up to a quarter (browse GET
/// latency has two modes whose shares vary by run), while p75 and memory
/// hold.
const GATED: [&str; 4] = ["setup_s", "op_p75_ms", "aux_p75_ms", "rss_mb"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Browse,
    Manage,
    Compose,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Manage => "manage",
            Workload::Compose => "compose",
        }
    }

    /// The request classes behind `op_*` and `aux_*`.
    fn classes(self) -> (&'static str, &'static str) {
        match self {
            Workload::Browse => ("get", "query"),
            Workload::Manage => ("patch", "get"),
            Workload::Compose => ("compose", "notify"),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "browse" => Workload::Browse,
                    "manage" => Workload::Manage,
                    "compose" => Workload::Compose,
                    other => return Err(format!("unknown workload '{other}' (browse|manage|compose)")),
                })
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1..=120".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The per-run scratch directory, removed however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = WorkDir(PathBuf::from(".perfbench_work").join(format!("{}-{}", std::process::id(), args.seed)));
    let _ = std::fs::remove_dir_all(&work.0);
    match run(&args, &work.0) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            drop(work);
            std::process::exit(1);
        }
    }
}

/// Process-global counters the run reads as deltas.
const COUNTERS: [&str; 15] = [
    "ofmf.wal.appends.total",
    "ofmf.wal.bytes.total",
    "ofmf.wal.fsyncs.total",
    "ofmf.wal.replayed.total",
    "ofmf.wal.snapshot.total",
    "ofmf.wal.errors.total",
    "ofmf.events.delivered.total",
    "ofmf.events.dropped.total",
    "ofmf.supervisor.retries.total",
    "ofmf.composer.probe.pairs.total",
    "ofmf.composer.probe.cache_hit.total",
    "ofmf.composer.probe.cache_miss.total",
    "ofmf.rest.status.4xx",
    "ofmf.rest.status.5xx",
    "ofmf.rest.shed.total",
];

#[derive(Clone)]
struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn read() -> Counters {
        Counters(COUNTERS.iter().map(|n| (*n, ofmf_obs::counter(n).get())).collect())
    }

    fn since(&self, before: &Counters, name: &str) -> f64 {
        (self.0.get(name).copied().unwrap_or(0)).saturating_sub(before.0.get(name).copied().unwrap_or(0)) as f64
    }
}

fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit of the checkout, when it is a git work tree.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git work tree)".into(),
    }
}

/// Paths a browse client may GET, and the collections it may query with
/// their member counts. Service areas whose documents come and go on their
/// own (event log, sessions, subscriptions, tasks, telemetry) are left out.
fn tree_lists(live: &Live) -> (Vec<String>, Vec<(String, usize)>) {
    const VOLATILE: [&str; 5] = [
        "/redfish/v1/Managers",
        "/redfish/v1/EventService",
        "/redfish/v1/SessionService",
        "/redfish/v1/TaskService",
        "/redfish/v1/TelemetryService",
    ];
    let mut points = Vec::new();
    let mut collections = Vec::new();
    live.ofmf.registry.for_each(|id, stored| {
        let p = id.as_str();
        if VOLATILE
            .iter()
            .any(|v| p == *v || p.strip_prefix(v).is_some_and(|r| r.starts_with('/')))
        {
            return;
        }
        points.push(p.to_string());
        if stored.is_collection {
            let n = stored.body.get("Members").and_then(Value::as_array).map_or(0, Vec::len);
            collections.push((p.to_string(), n));
        }
    });
    (points, collections)
}

/// Free pool capacity as the composer sees it: (memory MiB, GPUs, storage
/// bytes, free nodes).
fn free_capacity(live: &Live) -> (u64, usize, u64, usize) {
    let inv = live.composer.inventory();
    (
        inv.free_memory_mib(),
        inv.free_gpus(),
        inv.free_storage_bytes(),
        inv.compute.len(),
    )
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Report {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
}

impl Report {
    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Median and p99 of a class, in ms, with the sample count.
fn p50_p99(h: &Hist) -> (f64, f64, u64) {
    (ms(h.quantile(0.5)), ms(h.quantile(0.99)), h.len())
}

/// Everything one workload run measured.
struct Window {
    tally: Tally,
    window_s: f64,
    rss_mb: f64,
    /// Completed operations the throughput counts.
    completed: u64,
    /// Of those, how many completed in each whole second of the window.
    per_second: Vec<u64>,
    before: Counters,
    after: Counters,
    wire: (u64, u64),
    /// Every `Ofmf::poll` of the poll loop, ns.
    poll_ns: Vec<u64>,
}

fn run(a: &Args, work: &Path) -> Result<String, String> {
    let tracer = Tracer::new(a.trace);
    let mut checks = Tally::default();
    let seed = a.seed;

    // ---- set-up: one seeded history, then timed restarts from it ----
    let hist_dir = work.join("history");
    let hist = sut::write_history(&hist_dir, |n| gen::history(seed, n)).map_err(|e| format!("history: {e}"))?;
    let replayed0 = ofmf_obs::counter("ofmf.wal.replayed.total").get();
    let mut boots = Vec::with_capacity(RESTARTS);
    let mut kept = None;
    for k in 0..RESTARTS {
        let dir = work.join(format!("restart{k}"));
        sut::copy_dir(&hist_dir, &dir).map_err(|e| format!("copy WAL: {e}"))?;
        let (live, boot, conn) = sut::restart(&dir, &tracer).map_err(|e| format!("restart: {e}"))?;
        boots.push(boot);
        if k + 1 < RESTARTS {
            drop(conn);
            let Live { server, .. } = live;
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((live, conn));
        }
    }
    let (live, conn0) = kept.ok_or("no restart")?;
    let replayed = (ofmf_obs::counter("ofmf.wal.replayed.total").get() - replayed0) as f64 / RESTARTS as f64;
    let setup_s = median_f(&boots.iter().map(|b| b.total_s).collect::<Vec<_>>());

    // ---- the generated inputs, and their determinism self-test ----
    let (points, collections) = tree_lists(&live);
    let patchable = hist.patchable.clone();
    let d = |s: u64| gen::digest(s, &patchable, &points, &collections, 2048);
    let (d1, d2, d3) = (d(seed), d(seed), d(seed.wrapping_add(1)));
    checks.check(d1 == d2, || "the same seed generated different inputs".into());
    checks.check(d1 != d3, || "a different seed generated the same inputs".into());

    let cap0 = free_capacity(&live);
    let restored = live.composer.compositions();
    let addr = live.server.addr();
    let poller = sut::Poller::start(Arc::clone(&live.ofmf));
    let secs = Duration::from_secs(a.seconds);
    let tree_size = live.ofmf.registry.len();

    // ---- the timed window ----
    let mut watched = None;
    let mut composed = Vec::new();
    let mut sub_dropped = 0;
    let mut w = match a.workload {
        Workload::Browse => {
            let conn1 = Conn::connect(addr).map_err(|e| e.to_string())?;
            let (pts, cols, tr) = (&points, &collections, &*tracer);
            let before = Counters::read();
            let wire0 = live.ofmf.registry.wire_cache_stats();
            tracer.start_window();
            let t0 = Instant::now();
            let timed = Timed {
                start: t0,
                end: t0 + secs,
            };
            let tallies = std::thread::scope(|s| {
                let h: Vec<_> = [conn0, conn1]
                    .into_iter()
                    .enumerate()
                    .map(|(c, conn)| {
                        s.spawn(move || {
                            workloads::browse_client(addr, conn, BrowseStream::new(seed, c, pts, cols), timed, tr)
                        })
                    })
                    .collect();
                h.into_iter().map(joined).collect::<Vec<_>>()
            });
            window(&live, &tracer, tallies, t0, before, wire0, &["get", "query"])
        }
        Workload::Manage => {
            let conn1 = Conn::connect(addr).map_err(|e| e.to_string())?;
            let clients: Vec<ManageClient> = [conn0, conn1]
                .into_iter()
                .enumerate()
                .map(|(c, conn)| ManageClient::warm(addr, conn, ManageStream::new(seed, c, &patchable)))
                .collect();
            let tr = &*tracer;
            let before = Counters::read();
            let wire0 = live.ofmf.registry.wire_cache_stats();
            tracer.start_window();
            let t0 = Instant::now();
            let timed = Timed {
                start: t0,
                end: t0 + secs,
            };
            let tallies = std::thread::scope(|s| {
                let h: Vec<_> = clients.into_iter().map(|m| s.spawn(move || m.run(timed, tr))).collect();
                h.into_iter().map(joined).collect::<Vec<_>>()
            });
            window(&live, &tracer, tallies, t0, before, wire0, &["get", "patch"])
        }
        Workload::Compose => {
            let mut conn1 = Conn::connect(addr).map_err(|e| e.to_string())?;
            let sub = json!({
                "Destination": "rest-poll://perfbench",
                "EventTypes": ["ResourceAdded"],
                "OriginResources": [{"@odata.id": "/redfish/v1/Systems"}],
            });
            let mut resp = Resp::default();
            let body = serde_json::to_vec(&sub).unwrap_or_default();
            conn1
                .send(
                    "POST",
                    "/redfish/v1/EventService/Subscriptions",
                    None,
                    Some(&body),
                    &mut resp,
                )
                .map_err(|e| format!("subscribe: {e}"))?;
            let location = resp
                .location
                .clone()
                .filter(|_| resp.status == 201)
                .ok_or("subscribe failed")?;
            let sub_id = location.rsplit('/').next().unwrap_or("").to_string();
            let events_path = format!("{location}/Events");
            let sent: SentMap = Default::default();
            let mut client = ComposeClient::new(
                addr,
                conn0,
                ComposeStream::new(seed),
                Arc::clone(&live.composer),
                Arc::clone(&sent),
            );
            let stop = AtomicBool::new(false);
            let (ep, st, sm) = (&events_path, &stop, Arc::clone(&sent));
            let (w, seen) = std::thread::scope(|s| {
                let watcher = s.spawn(move || workloads::watcher(addr, conn1, ep, sm, st));
                client.fill();
                let before = Counters::read();
                let wire0 = live.ofmf.registry.wire_cache_stats();
                tracer.start_window();
                let t0 = Instant::now();
                client.run(
                    Timed {
                        start: t0,
                        end: t0 + secs,
                    },
                    &tracer,
                );
                let out = std::mem::take(&mut client.out);
                let w = window(&live, &tracer, vec![out], t0, before, wire0, &["compose"]);
                client.drain();
                stop.store(true, Ordering::Release);
                (
                    w,
                    watcher.join().unwrap_or_else(|_| workloads::Watched {
                        out: panicked(),
                        ..Default::default()
                    }),
                )
            });
            composed = std::mem::take(&mut client.composed);
            checks.merge(std::mem::take(&mut client.out));
            sub_dropped = live.ofmf.events.dropped_count(&sub_id);
            watched = Some(seen);
            w
        }
    };
    w.poll_ns = poller.stop();

    // ---- end-of-run checks ----
    let lost = lost_carves(&live, &restored);
    let dangling: Vec<_> = live
        .ofmf
        .registry
        .dangling_links()
        .into_iter()
        .filter(|l| !lost.links.contains(l))
        .collect();
    checks.check(dangling.is_empty(), || {
        format!("dangling links at run end: {:?}", &dangling[..dangling.len().min(3)])
    });
    let cap1 = free_capacity(&live);
    let expect = (cap0.0 + lost.memory_mib, cap0.1, cap0.2 + lost.storage_bytes, cap0.3);
    checks.check(cap1 == expect, || {
        format!("free pool capacity {cap1:?} differs from the start {cap0:?} plus carves lost to re-issued ids")
    });
    let wal_errors = w.after.since(&w.before, "ofmf.wal.errors.total");
    checks.check(wal_errors == 0.0, || {
        format!("ofmf.wal.errors.total moved by {wal_errors}")
    });
    if let Some(seen) = watched.as_mut() {
        checks.merge(std::mem::take(&mut seen.out));
        checks.check(sub_dropped == 0, || {
            format!("the watcher's subscription dropped {sub_dropped} batches")
        });
        for name in &composed {
            let n = seen.added.get(name).copied().unwrap_or(0);
            checks.check(n == 1, || {
                format!("system {name}: {n} ResourceAdded events, expected exactly 1")
            });
        }
        checks.check(seen.unexpected.is_empty(), || {
            format!("ResourceAdded for systems nobody composed: {:?}", seen.unexpected)
        });
        w.tally
            .classes
            .entry("notify")
            .or_default()
            .extend(std::mem::take(&mut seen.notify));
    }

    // ---- per-layer probes (traced run only) ----
    let mut report = Report::default();
    let mut probe_errors = Vec::new();
    if a.trace {
        let setup = Setup {
            boots: &boots,
            replayed,
        };
        layer_report(
            &mut report,
            a,
            &live,
            &tracer,
            &w,
            &setup,
            &patchable,
            &mut probe_errors,
        );
    }
    for e in probe_errors {
        checks.check(false, || e);
    }

    drop(live.router);
    live.server.shutdown();

    // ---- the report ----
    let mut tally = std::mem::take(&mut w.tally);
    tally.merge(checks);
    let (op, aux) = a.workload.classes();
    let untraced = |class: &str| -> Hist { tally.classes.get(class).map(|s| s.untraced.clone()).unwrap_or_default() };
    let op_s = untraced(op);
    let aux_s = untraced(aux);
    let rate = ratio(w.completed as f64, w.window_s);
    let typical_rate = median_f(&w.per_second.iter().map(|n| *n as f64).collect::<Vec<_>>());
    let (op50, _, op_n) = p50_p99(&op_s);
    let (aux50, _, aux_n) = p50_p99(&aux_s);
    let d = w.after.since(&w.before, "ofmf.wal.appends.total");
    let fsyncs = w.after.since(&w.before, "ofmf.wal.fsyncs.total");
    let (hits, misses) = w.wire;
    let error_rate = ratio(tally.failed as f64, tally.attempted as f64);

    let boot_note = format!(
        "n={RESTARTS} restarts; median replay {:.4} s, recover {:.3} ms; {} compositions restored; WAL {} bytes",
        median_f(&boots.iter().map(|b| b.replay_s).collect::<Vec<_>>()),
        ms(median_f(&boots.iter().map(|b| b.recover_ns as f64).collect::<Vec<_>>())),
        boots.last().map_or(0, |b| b.restored),
        hist.wal_bytes,
    );
    report.e2e("setup_s", setup_s, "s", boot_note);
    report.e2e(
        "rate_per_s",
        typical_rate,
        "1/s",
        format!("median of {} one-second counts", w.per_second.len()),
    );
    report.e2e("op_p50_ms", op50, "ms", format!("{op}, n={op_n}"));
    report.e2e("op_p75_ms", ms(op_s.quantile(0.75)), "ms", format!("{op}, n={op_n}"));
    report.e2e("aux_p50_ms", aux50, "ms", format!("{aux}, n={aux_n}"));
    report.e2e(
        "aux_p75_ms",
        ms(aux_s.quantile(0.75)),
        "ms",
        format!("{aux}, n={aux_n}"),
    );
    report.e2e(
        "rss_mb",
        w.rss_mb,
        "MiB",
        "resident memory at the end of the timed window",
    );

    println!(
        "run: workload={} seed={} seconds={} trace={} cores={} git={}",
        a.workload.name(),
        seed,
        a.seconds,
        u8::from(a.trace),
        sut::workers(),
        git_sha()
    );
    println!(
        "system: rack {} nodes, {} targets per fabric, {} leaves, 2 spines; fabrics CXL0 NVME0 IB0; tree {} resources; fsync {}; poll {} ms; {} epoll workers; {} closed-loop clients",
        sut::NODES,
        sut::TARGETS,
        (sut::NODES / 8).max(2),
        tree_size,
        sut::FSYNC,
        sut::POLL_MS,
        sut::workers(),
        2
    );
    println!(
        "properties: GETs served from the wire cache {:.4} ({hits} hits / {} lookups); WAL records per fsync {:.2} ({d} appends / {fsyncs} fsyncs); snapshots {}",
        ratio(hits as f64, (hits + misses) as f64),
        hits + misses,
        ratio(d, fsyncs),
        w.after.since(&w.before, "ofmf.wal.snapshot.total"),
    );
    println!(
        "known defect: DELETE /redfish/v1/Systems/<composed> answers 204 but leaves the composition, its zones and connections; compose decomposes through Composer::decompose"
    );
    println!(
        "known defect: Composer::decompose of a composition restored by Composer::recover leaves its zones and connections (fresh agents answer NotFound); compose decomposes only systems it composed"
    );
    println!(
        "known defect: after a restart the fresh agents re-issue carve ids (MemoryChunks/chunkN, Volumes) that restored compositions still hold; a new bind overwrites the document and its decompose deletes it: {} restored carves lost this run ({} MiB, {} bytes), their links left dangling",
        lost.links.len() / 2,
        lost.memory_mib,
        lost.storage_bytes
    );
    println!(
        "known defect: the internal event-log subscription drops batches when more than 256 events arrive between two 500 ms polls: {} dropped this window",
        w.after.since(&w.before, "ofmf.events.dropped.total")
    );
    println!("setup_s          {setup_s:.6} s (median of n={RESTARTS} restarts)");
    let rate_name = match a.workload {
        Workload::Compose => "compose_per_s",
        _ => "throughput_rps",
    };
    println!(
        "{rate_name:<16} {rate:.3} 1/s (n={} in {:.3} s)",
        w.completed, w.window_s
    );
    for (class, (p50, p99, n)) in class_metrics(a.workload, &tally) {
        println!("{:<16} {p50:.6} ms (n={n})", format!("{class}_p50_ms"));
        println!("{:<16} {p99:.6} ms (n={n})", format!("{class}_p99_ms"));
    }
    println!(
        "error_rate       {error_rate} failed/attempted (failed {}, attempted {})",
        tally.failed, tally.attempted
    );
    println!("rss_mb           {:.3} MiB (n=1, end of the timed window)", w.rss_mb);
    for f in &tally.failures {
        println!("failure: {f}");
    }
    let mut metrics = Map::new();
    let shown = if a.trace { &report.layers } else { &report.e2e };
    let label = if a.trace { "per-layer" } else { "end-to-end" };
    for m in report.e2e.iter().chain(report.layers.iter()) {
        println!("{:<34} {:>14.6} {:<7} {}", m.name, m.value, m.unit, m.note);
    }
    for m in shown.iter().filter(|m| a.trace || GATED.contains(&m.name.as_str())) {
        metrics.insert(m.name.clone(), json!({"value": m.value, "unit": m.unit}));
    }
    eprintln!("perfbench: emitted {} {label} metrics", metrics.len());
    Ok(json!({
        "correct": tally.failed == 0,
        "attempted": tally.attempted.max(1),
        "failed": tally.failed,
        "metrics": Value::Object(metrics),
    })
    .to_string())
}

/// Carves of compositions restored at set-up whose documents are gone at
/// run end: known defect 3 of `perfbench/README.md`.
struct Lost {
    links: std::collections::HashSet<(ODataId, ODataId)>,
    memory_mib: u64,
    storage_bytes: u64,
}

fn lost_carves(live: &Live, restored: &[composer::ComposedSystem]) -> Lost {
    let reg = &live.ofmf.registry;
    let mut lost = Lost {
        links: Default::default(),
        memory_mib: 0,
        storage_bytes: 0,
    };
    for c in restored {
        for b in &c.bindings {
            if reg.exists(&b.resource) {
                continue;
            }
            match b.kind {
                BindingKind::Memory => lost.memory_mib += b.size,
                BindingKind::Storage => lost.storage_bytes += b.size,
                BindingKind::Gpu => continue,
            }
            // Both the connection and the system's ResourceBlocks link it.
            lost.links.insert((b.connection.clone(), b.resource.clone()));
            lost.links.insert((c.system.clone(), b.resource.clone()));
        }
    }
    lost
}

/// Median and p99 of every request class a workload times (untraced
/// samples only), under the class names of the per-class metrics.
fn class_metrics(wl: Workload, t: &Tally) -> Vec<(&'static str, (f64, f64, u64))> {
    let classes: &[&'static str] = match wl {
        Workload::Browse => &["get", "query"],
        Workload::Manage => &["get", "patch"],
        Workload::Compose => &["compose", "notify", "decompose"],
    };
    classes
        .iter()
        .map(|c| {
            let s = t.classes.get(*c).map(|s| s.untraced.clone()).unwrap_or_default();
            (*c, p50_p99(&s))
        })
        .collect()
}

/// A client thread's tally; a panicked client counts as one failure.
fn joined(h: std::thread::ScopedJoinHandle<'_, Tally>) -> Tally {
    h.join().unwrap_or_else(|_| panicked())
}

fn panicked() -> Tally {
    let mut t = Tally::default();
    t.check(false, || "a client thread panicked".into());
    t
}

/// Completions of `classes`: in total, and per whole second of the window.
fn completed(t: &Tally, classes: &[&str], window_s: f64) -> (u64, Vec<u64>) {
    let mut per_second = vec![0u64; window_s as usize];
    let mut total = 0;
    for s in classes.iter().filter_map(|c| t.classes.get(c)) {
        total += s.untraced.len() + s.traced.len();
        for (a, b) in per_second.iter_mut().zip(&s.per_second) {
            *a += b;
        }
    }
    (total, per_second)
}

fn window(
    live: &Live,
    tracer: &Tracer,
    tallies: Vec<Tally>,
    t0: Instant,
    before: Counters,
    wire0: (u64, u64),
    classes: &[&str],
) -> Window {
    let window_s = t0.elapsed().as_secs_f64();
    let rss_mb = rss_mb();
    tracer.end_window();
    let after = Counters::read();
    let wire1 = live.ofmf.registry.wire_cache_stats();
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    let (completed, per_second) = completed(&tally, classes, window_s);
    Window {
        completed,
        per_second,
        tally,
        window_s,
        rss_mb,
        before,
        after,
        wire: (wire1.0 - wire0.0, wire1.1 - wire0.1),
        poll_ns: Vec::new(),
    }
}

/// Set-up facts the per-layer report draws on.
struct Setup<'a> {
    boots: &'a [sut::Boot],
    replayed: f64,
}

/// Fill the per-layer half of the report from the traced window and the
/// in-process probes after it.
#[allow(clippy::too_many_arguments)]
fn layer_report(
    r: &mut Report,
    a: &Args,
    live: &Live,
    tracer: &Tracer,
    w: &Window,
    setup: &Setup,
    patchable: &[String],
    errors: &mut Vec<String>,
) {
    let (op, _) = a.workload.classes();
    let samples = |class: &str| -> Samples { w.tally.classes.get(class).cloned().unwrap_or_default() };
    let floor = samples("floor").traced;
    let floor_ns = floor.quantile(0.5);
    let op_s = samples(op);
    let op_untraced = op_s.untraced.quantile(0.5);
    let op_traced = op_s.traced.quantile(0.5);

    // The tree as the window left it: compose may have replaced documents.
    let (points, collections) = tree_lists(live);
    let sampled = layers::sample(a.seed, &points, &collections, patchable);
    let own_bytes: Vec<Vec<u8>> = match a.workload {
        Workload::Browse => sampled.gets.iter().chain(sampled.queries.iter()).cloned().collect(),
        Workload::Manage => sampled.gets[..64]
            .iter()
            .chain(sampled.patches.iter())
            .cloned()
            .collect(),
        Workload::Compose => sampled.composes.clone(),
    };
    let mut floor_req = Vec::new();
    client::request_bytes(&mut floor_req, "GET", "/redfish", None, None);

    let c_before = Counters::read();
    tracer.set_probing(true);
    let parse_ns = layers::parse_ns(&own_bytes);
    let handle_floor = layers::handle_ns(live, std::slice::from_ref(&floor_req), 64, &[200], errors);
    let handle_get = layers::handle_ns(live, &sampled.gets, 2, &[200], errors);
    let handle_query = layers::handle_ns(live, &sampled.queries, 1, &[200], errors);
    let handle_patch = layers::handle_ns(live, &sampled.patches, 1, &[200], errors);
    let get_raw = layers::get_raw_ns(live, &sampled.get_paths);
    let expand = layers::expand_ns(live, &sampled.expand_paths);
    let inventory = layers::inventory_ns(live);
    let live_compose = a.workload == Workload::Compose;
    let mut probe_decompose = Hist::default();
    if !live_compose {
        // No compose traffic in this workload: time a few compose and
        // decompose cycles through the same decorators instead.
        for bytes in &sampled.composes {
            let Some(req) = layers::parse(bytes) else { continue };
            let resp = live.router.handle(&req);
            let loc = resp
                .headers
                .iter()
                .find(|(k, _)| k == "Location")
                .map(|(_, v)| v.clone());
            match (resp.status, loc) {
                (201, Some(loc)) => {
                    let t0 = Instant::now();
                    if let Err(e) = live.composer.decompose(&ODataId::new(loc.as_str())) {
                        errors.push(format!("probe decompose {loc}: {e}"));
                    }
                    probe_decompose.record(t0.elapsed().as_nanos() as u64);
                }
                (s, _) => errors.push(format!("probe compose answered {s}")),
            }
        }
    }
    tracer.set_probing(false);
    let c_after = Counters::read();

    // Composer/agent figures: live traced slices on compose, probes elsewhere.
    let (cb, ca) = if live_compose {
        (&w.before, &w.after)
    } else {
        (&c_before, &c_after)
    };
    let mut compose_ns = std::mem::take(&mut *tracer.compose_ns.lock());
    let composes = compose_ns.len() as f64;
    let compose_med = median(&mut compose_ns);
    let decompose = if live_compose {
        samples("decompose").traced
    } else {
        probe_decompose
    };
    let mut agent = tracer.take_agent_samples();
    let bind_ops = (agent[0].len() + agent[1].len() + agent[4].len()) as f64;
    let src = if live_compose {
        "live traced slices"
    } else {
        "probe cycles after the window"
    };

    let delta = |n: &str| w.after.since(&w.before, n);
    let ops = w.completed.max(1) as f64;
    let (hits, misses) = w.wire;

    r.layer(
        "rest.floor_ns",
        floor_ns,
        "ns",
        format!("GET /redfish e2e, n={}", floor.len()),
    );
    r.layer(
        "rest.parse_ns",
        parse_ns,
        "ns",
        format!("parse_request on {} workload requests", own_bytes.len()),
    );
    r.layer("rest.handle_ns.get", handle_get, "ns", "Router::handle, point GETs");
    r.layer(
        "rest.handle_ns.query",
        handle_query,
        "ns",
        "Router::handle, $top/$skip/$expand",
    );
    r.layer("rest.handle_ns.patch", handle_patch, "ns", "Router::handle, PATCHes");
    r.layer(
        "rest.status_errors",
        delta("ofmf.rest.status.4xx") + delta("ofmf.rest.status.5xx"),
        "count",
        "4xx+5xx in the window",
    );
    r.layer(
        "rest.shed",
        delta("ofmf.rest.shed.total"),
        "count",
        "connections shed in the window",
    );
    r.layer("redfish.get_raw_ns", get_raw, "ns", "Ofmf::get_raw on point paths");
    r.layer(
        "redfish.wire_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        format!("{hits} hits / {misses} misses in the window"),
    );
    r.layer("redfish.wire_hits", hits as f64, "count", "window");
    r.layer("redfish.wire_misses", misses as f64, "count", "window");
    r.layer(
        "redfish.expand_ns",
        expand,
        "ns",
        format!("Registry::expand on {} collections", sampled.expand_paths.len()),
    );
    r.layer(
        "redfish.resources",
        live.ofmf.registry.len() as f64,
        "count",
        "Registry::len",
    );
    let mut polls = w.poll_ns.clone();
    r.layer(
        "core.poll_ns",
        median(&mut polls),
        "ns",
        format!("Ofmf::poll, n={}", polls.len()),
    );
    r.layer(
        "core.events_delivered",
        delta("ofmf.events.delivered.total"),
        "count",
        "window",
    );
    r.layer(
        "core.events_dropped",
        delta("ofmf.events.dropped.total"),
        "count",
        "window",
    );
    r.layer(
        "core.supervisor_retries",
        delta("ofmf.supervisor.retries.total"),
        "count",
        "window",
    );
    r.layer(
        "composer.compose_ns",
        compose_med,
        "ns",
        format!("ComposeService decorator, n={composes}, {src}"),
    );
    r.layer("composer.inventory_ns", inventory, "ns", "Composer::inventory");
    r.layer(
        "composer.decompose_ns",
        decompose.quantile(0.5),
        "ns",
        format!("Composer::decompose, n={}, {src}", decompose.len()),
    );
    r.layer(
        "composer.probe_pairs_per_compose",
        ratio(ca.since(cb, "ofmf.composer.probe.pairs.total"), composes),
        "count",
        src,
    );
    let ph = ca.since(cb, "ofmf.composer.probe.cache_hit.total");
    let pm = ca.since(cb, "ofmf.composer.probe.cache_miss.total");
    r.layer(
        "composer.probe_hit_ratio",
        ratio(ph, ph + pm),
        "ratio",
        format!("{ph} hits / {pm} misses"),
    );
    for (i, name) in AGENT_OPS.iter().enumerate() {
        let n = agent[i].len();
        r.layer(
            &format!("agents.op_ns.{name}"),
            median(&mut agent[i]),
            "ns",
            format!("n={n}, {src}"),
        );
    }
    r.layer(
        "agents.ops_per_compose",
        ratio(bind_ops, composes),
        "count",
        "create_zone+connect+probe_routes per compose",
    );
    r.layer(
        "wal.appends_per_op",
        delta("ofmf.wal.appends.total") / ops,
        "count",
        "window",
    );
    r.layer("wal.bytes_per_op", delta("ofmf.wal.bytes.total") / ops, "B", "window");
    r.layer(
        "wal.records_per_fsync",
        ratio(delta("ofmf.wal.appends.total"), delta("ofmf.wal.fsyncs.total")),
        "count",
        "window",
    );
    r.layer("wal.snapshots", delta("ofmf.wal.snapshot.total"), "count", "window");
    r.layer("wal.errors", delta("ofmf.wal.errors.total"), "count", "window");
    r.layer(
        "wal.replay_s",
        median_f(&setup.boots.iter().map(|b| b.replay_s).collect::<Vec<_>>()),
        "s",
        "Ofmf::with_wal_clock, median of the restarts",
    );
    r.layer("wal.replayed_records", setup.replayed, "count", "per restart");
    r.layer(
        "composer.recover_ns",
        median_f(&setup.boots.iter().map(|b| b.recover_ns as f64).collect::<Vec<_>>()),
        "ns",
        "Composer::recover, median of the restarts",
    );

    let covered = floor_ns
        + if live_compose {
            compose_med
        } else if op == "get" {
            handle_get
        } else {
            handle_patch
        }
        - handle_floor;
    r.layer(
        "coverage.share",
        ratio(covered, op_untraced),
        "ratio",
        format!("(floor + {op} layer - floor handle) / untraced {op} p50"),
    );
    r.layer(
        "trace.overhead_ms",
        ms(op_traced - op_untraced),
        "ms",
        format!("traced - untraced {op} p50"),
    );
    r.layer(
        "trace.overhead_share",
        ratio(op_traced - op_untraced, op_untraced),
        "ratio",
        "of the untraced p50",
    );
}
