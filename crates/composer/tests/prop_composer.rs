//! Property tests: policy arithmetic, accounting bounds, the composer's
//! conservation law (compose ∘ decompose = identity on the inventory),
//! batched probing against a per-pair probing reference, and the
//! single-view inventory scan against a clone-per-id reference scan.

use composer::accounting::{composable_outcome, heterogeneous_mix, static_outcome, PowerModel, StaticNodeShape};
use composer::inventory::{ComputePool, GpuPool, Inventory, MemoryPool, StoragePoolView};
use composer::policy::PolicySet;
use composer::probe::{Prober, RouteScore};
use composer::{Composer, CompositionRequest, Strategy};
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_core::agent::{Agent, AgentEvent, AgentInfo, AgentMetric, AgentOp, AgentResponse};
use proptest::prelude::*;
use redfish_model::odata::ODataId;
use redfish_model::{RedfishError, RedfishResult, Registry};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

fn demo_rig(seed: u64) -> DemoRig {
    let ofmf = ofmf_core::Ofmf::new("prop-rig", std::collections::HashMap::new(), seed);
    let shape = RackShape::default();
    ofmf.register_agent(Arc::new(cxl_agent("CXL0", &shape, 1 << 20, seed ^ 1)))
        .unwrap();
    ofmf.register_agent(Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, seed ^ 2)))
        .unwrap();
    ofmf.register_agent(Arc::new(infiniband_agent("IB0", &shape, "A100", seed ^ 3)))
        .unwrap();
    DemoRig { ofmf }
}

struct DemoRig {
    ofmf: Arc<ofmf_core::Ofmf>,
}

fn pool(total: u64, free: u64) -> MemoryPool {
    MemoryPool {
        fabric: "F".into(),
        endpoint: ODataId::new("/e"),
        domain: ODataId::new("/d"),
        total_mib: total,
        free_mib: free.min(total),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A spread plan always sums to exactly the demand, never uses more
    /// pools than the cap, and never takes more from a pool than offered.
    #[test]
    fn spread_plan_is_exact_and_bounded(
        frees in prop::collection::vec(0u64..5000, 1..8),
        demand in 1u64..20_000,
        cap in 1usize..8,
        headroom in 0.0f64..0.5,
    ) {
        let policy = PolicySet { memory_headroom: headroom, max_memory_spread: cap, ..PolicySet::default() };
        let pools: Vec<MemoryPool> = frees.iter().map(|&f| pool(5000, f)).collect();
        let refs: Vec<&MemoryPool> = pools.iter().collect();
        match policy.spread_plan(&refs, demand) {
            Some(plan) => {
                let sum: u64 = plan.iter().map(|(_, s)| s).sum();
                prop_assert_eq!(sum, demand);
                prop_assert!(plan.len() <= cap);
                for (i, take) in &plan {
                    prop_assert!(*take <= policy.offered_mib(refs[*i]));
                    prop_assert!(*take > 0);
                }
                // No pool used twice.
                let mut seen: Vec<usize> = plan.iter().map(|(i, _)| *i).collect();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), plan.len());
            }
            None => {
                // Refusal must be justified: the top-`cap` offers don't cover it.
                let mut offers: Vec<u64> = refs.iter().map(|p| policy.offered_mib(p)).collect();
                offers.sort_unstable_by(|a, b| b.cmp(a));
                let best: u64 = offers.iter().take(cap).sum();
                prop_assert!(best < demand, "refused {demand} though {best} was offered");
            }
        }
    }

    /// Accounting outcomes are always within physical bounds, for both
    /// provisioning models and any mix.
    #[test]
    fn accounting_outcomes_bounded(n in 1usize..200, seed in any::<u64>()) {
        let jobs = heterogeneous_mix(n, seed);
        let power = PowerModel::default();
        let shape = StaticNodeShape { cores: 32, memory_gib: 384, gpus: 2 };
        let st = static_outcome(&jobs, shape, n, &power);
        let total_mem: u64 = jobs.iter().map(|j| j.memory_gib).sum();
        let total_gpus: u32 = jobs.iter().map(|j| j.gpus).sum();
        let co = composable_outcome(&jobs, n, 32, total_mem.max(1), total_gpus, &power);
        for o in [&st, &co] {
            prop_assert!((0.0..=1.0).contains(&o.core_utilization));
            prop_assert!((0.0..=1.0).contains(&o.memory_utilization));
            prop_assert!((0.0..=1.0).contains(&o.gpu_utilization));
            prop_assert!((0.0..=1.0).contains(&o.stranded_fraction));
            prop_assert!(o.power_watts >= 0.0);
            prop_assert!(o.rejected_jobs <= n);
        }
    }
}

/// The per-pair probing reference: answers each `ProbeRoutes` batch by
/// sending the inner agent one `ProbeRoute` per pair, in order, and
/// reassembling the batch reply. The inner agent sees exactly the traffic
/// of a prober that makes one round-trip per candidate. A `Conflict` (no
/// healthy route) becomes an `{"Error": …}` entry; the batch fails only if
/// no pair got an answer.
struct PerPairProbing {
    inner: Arc<dyn Agent>,
}

impl Agent for PerPairProbing {
    fn info(&self) -> AgentInfo {
        self.inner.info()
    }

    fn discover(&self) -> Vec<(ODataId, Value)> {
        self.inner.discover()
    }

    fn apply(&self, op: &AgentOp) -> RedfishResult<AgentResponse> {
        let AgentOp::ProbeRoutes { pairs } = op else {
            return self.inner.apply(op);
        };
        let mut generation = 0;
        let mut answered = false;
        let mut last_err = None;
        let mut results = Vec::with_capacity(pairs.len());
        for (initiator, target) in pairs {
            let single = AgentOp::ProbeRoute {
                initiator: initiator.clone(),
                target: target.clone(),
            };
            match self.inner.apply(&single) {
                Ok(r) => {
                    answered = true;
                    let payload = r.payload.unwrap_or(Value::Null);
                    if let Some(g) = payload.get("TopologyGeneration").and_then(Value::as_u64) {
                        generation = g;
                    }
                    results.push(payload);
                }
                Err(RedfishError::Conflict(msg)) => {
                    answered = true;
                    results.push(json!({ "Error": msg }));
                }
                Err(e) => {
                    results.push(json!({ "Error": e.to_string() }));
                    last_err = Some(e);
                }
            }
        }
        if let (false, Some(e)) = (answered, last_err) {
            return Err(e);
        }
        Ok(AgentResponse {
            upserts: vec![],
            removals: vec![],
            primary: None,
            payload: Some(json!({ "TopologyGeneration": generation, "Results": results })),
        })
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

/// One candidate pair probed on its own: the score a single `ProbeRoute`
/// answer yields (`None` when the agent reports no route or fails).
fn per_pair_score(ofmf: &ofmf_core::Ofmf, fabric: &str, initiator: &ODataId, target: &ODataId) -> Option<RouteScore> {
    let op = AgentOp::ProbeRoute {
        initiator: initiator.clone(),
        target: target.clone(),
    };
    let payload = ofmf.apply(fabric, &op).ok()?.payload?;
    Some(RouteScore {
        hops: payload.get("Hops")?.as_u64()?,
        residual_gbps: payload.get("ResidualGbps").and_then(Value::as_f64).unwrap_or(f64::MAX),
        blast_radius: payload.get("BlastRadius").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// Three memory fabrics plus GPUs: one topology-aware choose fans a probe
/// batch out across all three in parallel. With `per_pair`, every agent is
/// wrapped in the [`PerPairProbing`] reference.
fn ab_rig(seed: u64, per_pair: bool) -> Arc<ofmf_core::Ofmf> {
    let ofmf = ofmf_core::Ofmf::new("prop-ab-rig", std::collections::HashMap::new(), seed);
    let shape = RackShape::default();
    let register = |agent: Arc<dyn Agent>| {
        let agent = if per_pair {
            Arc::new(PerPairProbing { inner: agent })
        } else {
            agent
        };
        ofmf.register_agent(agent).unwrap();
    };
    for (fid, salt) in [("CXL0", 1u64), ("CXL1", 2), ("CXL2", 3)] {
        register(Arc::new(cxl_agent(fid, &shape, 1 << 20, seed ^ salt)));
    }
    register(Arc::new(infiniband_agent("IB0", &shape, "A100", seed ^ 4)));
    ofmf
}

proptest! {
    // The live-stack property is expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched parallel probing is a pure performance optimization: for any
    /// request mix against twin rigs under the same (uniform) congestion,
    /// the batched composer and a composer whose agents answer every batch
    /// one pair at a time make identical placement decisions and leave
    /// identical fabric state. Both composers run the same prober, so the
    /// prober is also checked on its own: after the composes, its batched
    /// score for every candidate pair, cold and from the warm cache, equals
    /// a direct `ProbeRoute` to that pair's agent.
    #[test]
    fn batched_probing_places_like_per_pair_reference(
        mems in prop::collection::vec(64u64..2048, 1..5),
        bw in 0.0f64..32.0,
        gpus in 0u32..2,
    ) {
        let batched = Composer::new(ab_rig(4242, false), Strategy::TopologyAware);
        let per_pair = Composer::new(ab_rig(4242, true), Strategy::TopologyAware);
        // Every candidate pair of the first node, taken before composing
        // binds the nodes; probed below, after the binds moved residuals.
        let inv = batched.inventory();
        let initiators = &inv.compute[0].endpoints;
        let requests: Vec<(String, ODataId, ODataId)> = inv
            .memory
            .iter()
            .map(|p| (&p.fabric, &p.endpoint))
            .chain(inv.gpus.iter().map(|g| (&g.fabric, &g.endpoint)))
            .filter_map(|(f, e)| initiators.get(f).map(|i| (f.clone(), i.clone(), e.clone())))
            .collect();
        prop_assert!(!requests.is_empty());
        for (i, &m) in mems.iter().enumerate() {
            let mut req = CompositionRequest::compute_only(&format!("ab{i}"), 8, 8)
                .with_fabric_memory_mib(m)
                .with_memory_bandwidth_gbps(bw);
            if i == 0 {
                req = req.with_gpus(gpus).with_gpu_bandwidth_gbps(bw);
            }
            let key = |c: &composer::ComposedSystem| {
                c.bindings
                    .iter()
                    .map(|b| (b.fabric.clone(), b.resource.as_str().to_string(), b.size))
                    .collect::<Vec<_>>()
            };
            match (batched.compose(&req), per_pair.compose(&req)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(key(&a), key(&b), "request {}", i),
                (Err(a), Err(b)) => prop_assert_eq!(a.http_status(), b.http_status()),
                (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a.map(|c| key(&c)), b.map(|c| key(&c))),
            }
        }

        let ofmf = batched.ofmf();
        let expected: Vec<Option<RouteScore>> =
            requests.iter().map(|(f, i, t)| per_pair_score(ofmf, f, i, t)).collect();
        let prober = Prober::new();
        for pass in ["cold", "warm"] {
            let (scores, skipped) = prober.probe_pairs(ofmf, &requests);
            prop_assert!(skipped.is_empty(), "{} probe skipped {:?}", pass, skipped);
            prop_assert_eq!(&scores, &expected, "{} probe", pass);
        }
    }

    /// Conservation: for any satisfiable request mix, composing then
    /// decomposing everything restores the exact inventory.
    #[test]
    fn compose_decompose_is_identity(
        mems in prop::collection::vec(1u64..4096, 1..4),
        gpus in 0u32..2,
        storage in prop::collection::vec(0u64..(1u64<<30), 0..2),
    ) {
        let rig = demo_rig(777);
        let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::BestFit);
        let before = composer.inventory();
        let mut composed = Vec::new();
        for (i, &m) in mems.iter().enumerate() {
            let mut req = CompositionRequest::compute_only(&format!("p{i}"), 8, 8)
                .with_fabric_memory_mib(m);
            if i == 0 {
                req = req.with_gpus(gpus);
                if let Some(&s) = storage.first() {
                    req = req.with_storage_bytes(s);
                }
            }
            match composer.compose(&req) {
                Ok(c) => composed.push(c),
                Err(e) => prop_assert_eq!(e.http_status(), 507, "only capacity refusals allowed"),
            }
        }
        for c in &composed {
            composer.decompose(&c.system).unwrap();
        }
        let after = composer.inventory();
        prop_assert_eq!(before.compute.len(), after.compute.len());
        prop_assert_eq!(before.free_memory_mib(), after.free_memory_mib());
        prop_assert_eq!(before.free_gpus(), after.free_gpus());
        prop_assert_eq!(before.free_storage_bytes(), after.free_storage_bytes());
        prop_assert!(rig.ofmf.registry.dangling_links().is_empty());
    }
}

// ------------------------------------------------- reference inventory scan
//
// The inventory as it was computed before the single-view scan: every
// lookup is its own registry call and clones the document it reads. Kept
// here only as the oracle the view-based `Inventory::scan` must equal.

/// Ids whose `@odata.type` starts with `prefix`, in path order.
fn oracle_ids_of_type(reg: &Registry, prefix: &str) -> Vec<ODataId> {
    let mut out = Vec::new();
    reg.for_each(|id, node| {
        if node.odata_type().is_some_and(|ty| ty.starts_with(prefix)) {
            out.push(id.clone());
        }
    });
    out
}

fn oracle_offline(reg: &Registry, id: &ODataId) -> bool {
    let mut cur = Some(id.clone());
    while let Some(c) = cur {
        if let Ok(stored) = reg.get(&c) {
            if stored.body["Status"]["State"].as_str() == Some("UnavailableOffline") {
                return true;
            }
        }
        cur = c.parent();
    }
    false
}

fn oracle_scan(reg: &Registry, bound_systems: &[ODataId]) -> Inventory {
    let mut inv = Inventory::default();
    let mut target_eps: BTreeMap<ODataId, (String, ODataId)> = BTreeMap::new();
    let mut initiator_eps: BTreeMap<ODataId, (String, ODataId)> = BTreeMap::new();
    for ep_id in oracle_ids_of_type(reg, "#Endpoint.") {
        let Ok(stored) = reg.get(&ep_id) else { continue };
        let fabric = redfish_model::path::fabric_id_of(ep_id.as_str())
            .unwrap_or_default()
            .to_string();
        let Some(entities) = stored.body.get("ConnectedEntities").and_then(Value::as_array) else {
            continue;
        };
        for ent in entities {
            let role = ent.get("EntityRole").and_then(Value::as_str).unwrap_or("");
            let Some(link) = ent
                .get("EntityLink")
                .and_then(|l| l.get("@odata.id"))
                .and_then(Value::as_str)
            else {
                continue;
            };
            let link = ODataId::new(link);
            if role == "Initiator" {
                initiator_eps.insert(ep_id.clone(), (fabric.clone(), link));
            } else {
                target_eps.insert(ep_id.clone(), (fabric.clone(), link));
            }
        }
    }
    let target_of = |res: &ODataId| target_eps.iter().find(|(_, (_, link))| link == res);

    for sys_id in oracle_ids_of_type(reg, "#ComputerSystem.") {
        let Ok(stored) = reg.get(&sys_id) else { continue };
        if stored.body.get("SystemType").and_then(Value::as_str) != Some("Physical") {
            continue;
        }
        if bound_systems.contains(&sys_id) {
            continue;
        }
        let state = stored.body["Status"]["State"].as_str().unwrap_or("Enabled");
        if state != "Enabled" && state != "StandbyOffline" {
            continue;
        }
        let endpoints: BTreeMap<String, ODataId> = initiator_eps
            .iter()
            .filter(|(_, (_, link))| link == &sys_id)
            .map(|(ep, (fabric, _))| (fabric.clone(), ep.clone()))
            .collect();
        inv.compute.push(ComputePool {
            system: sys_id,
            cores: stored.body["ProcessorSummary"]["CoreCount"].as_u64().unwrap_or(0) as u32,
            memory_gib: stored.body["MemorySummary"]["TotalSystemMemoryGiB"]
                .as_u64()
                .unwrap_or(0),
            endpoints,
        });
    }

    for dom_id in oracle_ids_of_type(reg, "#MemoryDomain.") {
        let Ok(stored) = reg.get(&dom_id) else { continue };
        if oracle_offline(reg, &dom_id) {
            continue;
        }
        let total = stored.body["MemorySizeMiB"].as_u64().unwrap_or(0);
        let used: u64 = reg
            .members(&dom_id.child("MemoryChunks"))
            .unwrap_or_default()
            .iter()
            .filter_map(|c| reg.get(c).ok())
            .filter_map(|s| s.body["MemoryChunkSizeMiB"].as_u64())
            .sum();
        let Some((ep, (fabric, _))) = target_of(&dom_id) else {
            continue;
        };
        inv.memory.push(MemoryPool {
            fabric: fabric.clone(),
            endpoint: ep.clone(),
            domain: dom_id.clone(),
            total_mib: total,
            free_mib: total.saturating_sub(used),
        });
    }

    for proc_id in oracle_ids_of_type(reg, "#Processor.") {
        let Ok(stored) = reg.get(&proc_id) else { continue };
        if stored.body.get("ProcessorType").and_then(Value::as_str) != Some("GPU") {
            continue;
        }
        let Some((ep, (fabric, _))) = target_of(&proc_id) else {
            continue;
        };
        let assigned = stored.body["Oem"]["OFMF"]["AssignedTo"].is_string() || oracle_offline(reg, &proc_id);
        inv.gpus.push(GpuPool {
            fabric: fabric.clone(),
            endpoint: ep.clone(),
            processor: proc_id.clone(),
            assigned,
        });
    }

    for pool_id in oracle_ids_of_type(reg, "#StoragePool.") {
        let Ok(stored) = reg.get(&pool_id) else { continue };
        if oracle_offline(reg, &pool_id) {
            continue;
        }
        let total = stored.body["Capacity"]["GuaranteedBytes"].as_u64().unwrap_or(0);
        let Some(pools_col) = pool_id.parent() else { continue };
        let Some(svc) = pools_col.parent() else { continue };
        let used: u64 = reg
            .members(&svc.child("Volumes"))
            .unwrap_or_default()
            .iter()
            .filter_map(|v| reg.get(v).ok())
            .filter_map(|s| s.body["CapacityBytes"].as_u64())
            .sum();
        let Some((ep, (fabric, _))) = target_of(&pool_id) else {
            continue;
        };
        inv.storage.push(StoragePoolView {
            fabric: fabric.clone(),
            endpoint: ep.clone(),
            pool: pool_id.clone(),
            total_bytes: total,
            free_bytes: total.saturating_sub(used),
        });
    }
    inv
}

/// The fabric endpoints of a (possibly bound) node, as the composer looked
/// them up before it read them from the scan's snapshot.
fn oracle_endpoints_of(reg: &Registry, node: &ODataId) -> BTreeMap<String, ODataId> {
    let mut out = BTreeMap::new();
    for ep_id in oracle_ids_of_type(reg, "#Endpoint.") {
        let Ok(stored) = reg.get(&ep_id) else { continue };
        let Some(entities) = stored.body["ConnectedEntities"].as_array() else {
            continue;
        };
        let is_ours = entities
            .iter()
            .any(|e| e["EntityRole"] == "Initiator" && e["EntityLink"]["@odata.id"].as_str() == Some(node.as_str()));
        if is_ours {
            if let Some(f) = redfish_model::path::fabric_id_of(ep_id.as_str()) {
                out.insert(f.to_string(), ep_id.clone());
            }
        }
    }
    out
}

/// Resources an `UnavailableOffline` mark can land on: device chassis,
/// memory domains, storage services and pools, and a compute node.
const MARKABLE: [&str; 9] = [
    "/redfish/v1/Chassis/mem00",
    "/redfish/v1/Chassis/mem01/MemoryDomains/dom0",
    "/redfish/v1/Chassis/mem00/MemoryDomains/dom0",
    "/redfish/v1/Chassis/gpu00",
    "/redfish/v1/Chassis/gpu01",
    "/redfish/v1/StorageServices/nvme00/StoragePools/pool0",
    "/redfish/v1/StorageServices/nvme01",
    "/redfish/v1/StorageServices/nvme01/StoragePools/pool0",
    "/redfish/v1/Systems/cn02",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The single-view scan is a pure performance change: after every step
    /// of a random history of compose, decompose, grow, attach, GPU grants
    /// and offline marks (set and cleared), `Inventory::scan` equals the
    /// clone-per-id reference scan exactly, order included, and the
    /// snapshot's node endpoints equal the reference lookup.
    #[test]
    fn view_scan_matches_clone_per_id_reference(
        ops in prop::collection::vec((0u64..7, any::<u64>(), 0u64..4096), 1..16),
    ) {
        let rig = demo_rig(901);
        let reg = &rig.ofmf.registry;
        let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::BestFit);
        for (step, &(kind, pick, size)) in ops.iter().enumerate() {
            let live = composer.compositions();
            let target = (!live.is_empty()).then(|| &live[pick as usize % live.len()]);
            match kind {
                0 => {
                    let mut req = CompositionRequest::compute_only(&format!("h{step}"), 8, 8)
                        .with_fabric_memory_mib(size)
                        .with_gpus((pick % 3) as u32);
                    if pick % 2 == 0 {
                        req = req.with_storage_bytes(size << 20);
                    }
                    if pick % 5 == 0 {
                        req = req.with_spread_memory();
                    }
                    let _ = composer.compose(&req);
                }
                1 => {
                    if let Some(c) = target {
                        composer.decompose(&c.system).unwrap();
                    }
                }
                2 => {
                    if let Some(c) = target {
                        let _ = composer.grow_memory(&c.system, size + 1);
                    }
                }
                3 => {
                    if let Some(c) = target {
                        let _ = composer.attach_storage(&c.system, (size + 1) << 20);
                    }
                }
                _ => {
                    let id = ODataId::new(MARKABLE[pick as usize % MARKABLE.len()]);
                    let state = if kind == 6 { "Enabled" } else { "UnavailableOffline" };
                    reg.patch(&id, &json!({"Status": {"State": state}}), None).unwrap();
                }
            }
            let bound: Vec<ODataId> = composer.compositions().iter().map(|c| c.node.clone()).collect();
            prop_assert_eq!(Inventory::scan(&rig.ofmf, &bound), oracle_scan(reg, &bound), "step {}", step);
            prop_assert_eq!(composer.inventory(), oracle_scan(reg, &bound), "step {}", step);
            for node in &bound {
                let (inv, endpoints) = Inventory::scan_for_node(&rig.ofmf, node);
                prop_assert_eq!(inv, oracle_scan(reg, &[]), "step {}", step);
                prop_assert_eq!(endpoints, oracle_endpoints_of(reg, node), "step {} node {}", step, node);
            }
        }
    }
}
