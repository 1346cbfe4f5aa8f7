//! The system under test, assembled in-process the way `ofmfd` assembles
//! it: a WAL with `batch:5` fsync, an OFMF on a wall clock, the CXL0,
//! NVME0 and IB0 agents on one rack shape, a topology-aware composer behind
//! `ComposerBridge` and the router, an epoll REST server with one worker
//! per core, and the 500 ms poll loop.

use crate::client::{Conn, Resp};
use crate::gen::HistOp;
use crate::trace::{TimedAgent, TimedCompose, Tracer};
use composer::{Composer, Strategy};
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_core::{Agent, Clock, Ofmf};
use ofmf_repro::ComposerBridge;
use ofmf_rest::{Backend, ComposeService, RestServer, Router, ServerConfig};
use ofmf_wal::{FsyncPolicy, Wal};
use redfish_model::odata::ODataId;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Compute nodes, and target devices per fabric (memory appliances, NVMe
/// subsystems, GPUs).
pub const NODES: usize = 64;
pub const TARGETS: usize = 16;
/// `ofmfd`'s defaults.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Batch(5);
pub const POLL_MS: u64 = 500;
/// The system's own seed (`ofmfd --seed` default); the workload seed only
/// drives the inputs.
pub const SYSTEM_SEED: u64 = 2026;

pub fn rack_shape() -> RackShape {
    RackShape {
        compute_nodes: NODES,
        targets: TARGETS,
        leaves: (NODES / 8).max(2),
        spines: 2,
        ..RackShape::default()
    }
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
}

fn agents(tracer: &Arc<Tracer>) -> Vec<Arc<dyn Agent>> {
    let shape = rack_shape();
    let raw = [
        cxl_agent("CXL0", &shape, 1 << 20, SYSTEM_SEED ^ 1),
        nvmeof_agent("NVME0", &shape, 1 << 40, SYSTEM_SEED ^ 2),
        infiniband_agent("IB0", &shape, "A100", SYSTEM_SEED ^ 3),
    ];
    raw.into_iter()
        .map(|a| -> Arc<dyn Agent> {
            if tracer.enabled {
                Arc::new(TimedAgent {
                    inner: a,
                    tracer: Arc::clone(tracer),
                })
            } else {
                Arc::new(a)
            }
        })
        .collect()
}

fn open(dir: &Path) -> io::Result<Arc<Ofmf>> {
    let wal = Arc::new(Wal::open(dir, FSYNC)?);
    Ofmf::with_wal_clock("ofmfd", HashMap::new(), SYSTEM_SEED, wal, Arc::new(Clock::wall()))
}

fn register(ofmf: &Ofmf, tracer: &Arc<Tracer>) -> io::Result<()> {
    for a in agents(tracer) {
        ofmf.register_agent(a)
            .map_err(|e| io::Error::other(format!("register agent: {e}")))?;
    }
    Ok(())
}

/// Resources PATCHes may target: chassis and physical systems, in path
/// order. They are operator-owned documents no workload composes away.
pub fn patchable(ofmf: &Ofmf) -> Vec<String> {
    let mut out = Vec::new();
    ofmf.registry.for_each(|id, stored| {
        let p = id.as_str();
        let Some(rest) = p.strip_prefix("/redfish/v1/") else {
            return;
        };
        let depth = rest.split('/').count();
        let chassis = rest.starts_with("Chassis/") && depth == 2;
        let physical = rest.starts_with("Systems/")
            && depth == 2
            && stored.body.get("SystemType").and_then(|v| v.as_str()) == Some("Physical");
        if chassis || physical {
            out.push(p.to_string());
        }
    });
    out
}

/// What writing the history left behind.
pub struct History {
    pub patchable: Vec<String>,
    pub wal_bytes: u64,
}

/// Write the seeded set-up history into a fresh WAL at `dir` through the
/// public API, polling like `ofmfd` so the event log fills and compaction
/// runs as it would.
pub fn write_history(dir: &Path, ops: impl Fn(usize) -> Vec<HistOp>) -> io::Result<History> {
    let ofmf = open(dir)?;
    let plain = Tracer::new(false);
    register(&ofmf, &plain)?;
    let composer = Arc::new(Composer::new(Arc::clone(&ofmf), Strategy::TopologyAware));
    composer.attach_snapshot_provider();
    let bridge = ComposerBridge::shared(Arc::clone(&composer));
    let keys = patchable(&ofmf);
    let mut live: VecDeque<ODataId> = VecDeque::new();
    for (i, op) in ops(keys.len()).into_iter().enumerate() {
        match op {
            HistOp::Patch { key, body } => {
                ofmf.patch(&ODataId::new(keys[key].as_str()), &body, None)
                    .map_err(|e| io::Error::other(format!("history patch: {e}")))?;
            }
            HistOp::Compose { body, .. } => {
                let sys = bridge
                    .compose(&body)
                    .map_err(|e| io::Error::other(format!("history compose: {e}")))?;
                live.push_back(sys);
            }
            HistOp::DecomposeOldest => {
                let sys = live
                    .pop_front()
                    .ok_or_else(|| io::Error::other("history decompose: none live"))?;
                composer
                    .decompose(&sys)
                    .map_err(|e| io::Error::other(format!("history decompose: {e}")))?;
            }
        }
        if i % 128 == 127 {
            ofmf.poll();
        }
    }
    ofmf.poll();
    let wal = ofmf.wal().ok_or_else(|| io::Error::other("no WAL"))?;
    wal.flush()?;
    Ok(History {
        patchable: keys,
        wal_bytes: wal.log_bytes(),
    })
}

/// One timed restart.
#[derive(Clone, Copy)]
pub struct Boot {
    pub total_s: f64,
    pub replay_s: f64,
    pub recover_ns: u64,
    pub restored: usize,
}

/// A serving OFMF.
pub struct Live {
    pub ofmf: Arc<Ofmf>,
    pub composer: Arc<Composer>,
    pub router: Arc<Router>,
    pub server: RestServer,
}

/// Restart from the WAL at `dir`: replay → agent registration →
/// `finish_recovery` → `Composer::recover` → first `200` on `/redfish/v1`.
/// Returns the live system, the timings, and the connection that got the
/// first `200` (kept open, so the first client reuses it).
pub fn restart(dir: &Path, tracer: &Arc<Tracer>) -> io::Result<(Live, Boot, Conn)> {
    let t0 = Instant::now();
    let ofmf = open(dir)?;
    let replay_s = t0.elapsed().as_secs_f64();
    register(&ofmf, tracer)?;
    let composer = Arc::new(Composer::new(Arc::clone(&ofmf), Strategy::TopologyAware));
    composer.attach_snapshot_provider();
    ofmf.finish_recovery();
    let t1 = Instant::now();
    let (restored, _compensated) = composer.recover();
    let recover_ns = t1.elapsed().as_nanos() as u64;
    let bridge = ComposerBridge::shared(Arc::clone(&composer));
    let svc: Arc<dyn ComposeService> = if tracer.enabled {
        Arc::new(TimedCompose {
            inner: bridge,
            tracer: Arc::clone(tracer),
        })
    } else {
        Arc::new(bridge)
    };
    let router = Arc::new(Router::new(Arc::clone(&ofmf), false).with_compose_service(svc));
    let config = ServerConfig {
        workers: workers(),
        max_connections: 4096,
        backend: Backend::Epoll,
    };
    let server = RestServer::start_with("127.0.0.1:0", Arc::clone(&router), config)?;
    let mut conn = Conn::connect(server.addr())?;
    let mut resp = Resp::default();
    conn.get("/redfish/v1", &mut resp)?;
    if resp.status != 200 {
        server.shutdown();
        return Err(io::Error::other(format!(
            "first GET /redfish/v1 answered {}",
            resp.status
        )));
    }
    let boot = Boot {
        total_s: t0.elapsed().as_secs_f64(),
        replay_s,
        recover_ns,
        restored,
    };
    Ok((
        Live {
            ofmf,
            composer,
            router,
            server,
        },
        boot,
        conn,
    ))
}

/// `ofmfd`'s poll loop on its own thread, timing each `Ofmf::poll`.
pub struct Poller {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<Vec<u64>>,
}

impl Poller {
    pub fn start(ofmf: Arc<Ofmf>) -> Poller {
        let (stop, rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut poll_ns = Vec::new();
            while let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_millis(POLL_MS)) {
                let t = Instant::now();
                ofmf.poll();
                poll_ns.push(t.elapsed().as_nanos() as u64);
            }
            poll_ns
        });
        Poller { stop, handle }
    }

    /// Stop the loop and return every poll's duration.
    pub fn stop(self) -> Vec<u64> {
        let _ = self.stop.send(());
        self.handle.join().unwrap_or_default()
    }
}

/// Copy every regular file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
