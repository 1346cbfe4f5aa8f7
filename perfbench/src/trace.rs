//! The traced run's instruments, all in the benchmark's own files: timing
//! decorators around the `Agent` and `ComposeService` seams, sample stores,
//! and the switch that alternates traced and untraced slices of the timed
//! window so the difference between them is the tracing overhead.

use ofmf_core::agent::{Agent, AgentEvent, AgentInfo, AgentMetric, AgentOp, AgentResponse};
use ofmf_rest::ComposeService;
use parking_lot::Mutex;
use redfish_model::odata::ODataId;
use redfish_model::RedfishResult;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Length of one traced or untraced slice of the timed window.
pub const SLICE_MS: u128 = 250;

/// Agent operations timed per kind, in report order.
pub const AGENT_OPS: [&str; 5] = ["create_zone", "connect", "disconnect", "delete_zone", "probe_routes"];

fn op_index(op: &AgentOp) -> Option<usize> {
    match op {
        AgentOp::CreateZone { .. } => Some(0),
        AgentOp::Connect { .. } => Some(1),
        AgentOp::Disconnect { .. } => Some(2),
        AgentOp::DeleteZone { .. } => Some(3),
        AgentOp::ProbeRoutes { .. } | AgentOp::ProbeRoute { .. } => Some(4),
        AgentOp::InjectFault { .. } => None,
    }
}

/// Decides when instruments record, and holds what they recorded.
pub struct Tracer {
    /// Whether this run traces at all (`--trace 1`).
    pub enabled: bool,
    epoch: Instant,
    /// Nanoseconds after `epoch` at which the timed window started; 0 while
    /// no window runs.
    window_start: AtomicU64,
    /// Forces recording on, for the in-process layer probes after the window.
    probing: AtomicBool,
    pub agent_ns: Mutex<[Vec<u64>; 5]>,
    pub agent_ops: AtomicU64,
    pub compose_ns: Mutex<Vec<u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            window_start: AtomicU64::new(0),
            probing: AtomicBool::new(false),
            agent_ns: Mutex::new(Default::default()),
            agent_ops: AtomicU64::new(0),
            compose_ns: Mutex::new(Vec::new()),
        })
    }

    pub fn start_window(&self) {
        let ns = self.epoch.elapsed().as_nanos() as u64;
        self.window_start.store(ns.max(1), Ordering::Release);
    }

    pub fn end_window(&self) {
        self.window_start.store(0, Ordering::Release);
    }

    pub fn set_probing(&self, on: bool) {
        self.probing.store(on, Ordering::Release);
    }

    /// Whether `now` falls in a traced slice: odd slices of the window of a
    /// traced run, or any time during the probes.
    pub fn traced_at(&self, now: Instant) -> bool {
        if !self.enabled {
            return false;
        }
        if self.probing.load(Ordering::Acquire) {
            return true;
        }
        let start = self.window_start.load(Ordering::Acquire);
        if start == 0 {
            return false;
        }
        let since = (now.saturating_duration_since(self.epoch).as_nanos() as u64).saturating_sub(start);
        (u128::from(since) / 1_000_000 / SLICE_MS) % 2 == 1
    }

    pub fn take_agent_samples(&self) -> [Vec<u64>; 5] {
        std::mem::take(&mut *self.agent_ns.lock())
    }
}

/// Times every call into a fabric agent (which covers the `fabric-sim`
/// beneath it) while tracing.
pub struct TimedAgent<A> {
    pub inner: A,
    pub tracer: Arc<Tracer>,
}

impl<A: Agent> Agent for TimedAgent<A> {
    fn info(&self) -> AgentInfo {
        self.inner.info()
    }

    fn discover(&self) -> Vec<(ODataId, Value)> {
        self.inner.discover()
    }

    fn apply(&self, op: &AgentOp) -> RedfishResult<AgentResponse> {
        let t0 = Instant::now();
        if !self.tracer.traced_at(t0) {
            return self.inner.apply(op);
        }
        let r = self.inner.apply(op);
        let ns = t0.elapsed().as_nanos() as u64;
        self.tracer.agent_ops.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = op_index(op) {
            self.tracer.agent_ns.lock()[i].push(ns);
        }
        r
    }

    fn drain_events(&self) -> Vec<AgentEvent> {
        self.inner.drain_events()
    }

    fn sample_telemetry(&self) -> Vec<AgentMetric> {
        self.inner.sample_telemetry()
    }

    fn heartbeat(&self) -> bool {
        self.inner.heartbeat()
    }
}

/// Times `CompositionService.Compose` below the REST layer while tracing.
pub struct TimedCompose<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
}

impl<S: ComposeService> ComposeService for TimedCompose<S> {
    fn compose(&self, body: &Value) -> RedfishResult<ODataId> {
        let t0 = Instant::now();
        if !self.tracer.traced_at(t0) {
            return self.inner.compose(body);
        }
        let r = self.inner.compose(body);
        self.tracer.compose_ns.lock().push(t0.elapsed().as_nanos() as u64);
        r
    }
}
