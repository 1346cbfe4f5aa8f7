//! A live inventory of composable pools, derived from the unified tree.
//!
//! The inventory is recomputed on demand from the registry (the tree is the
//! single source of truth — what an agent published is what exists), then
//! adjusted by the composer's own assignment records. One scan is one pass
//! over a borrowed [`View`] of the tree: a consistent snapshot, and no
//! document is cloned.

use ofmf_core::Ofmf;
use redfish_model::odata::ODataId;
use redfish_model::{StoredResource, View};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};

/// A compute node available for composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePool {
    /// The `ComputerSystem` resource id.
    pub system: ODataId,
    /// Physical cores.
    pub cores: u32,
    /// Local memory (GiB).
    pub memory_gib: u64,
    /// Fabric endpoints of this node: fabric id → endpoint resource id.
    pub endpoints: BTreeMap<String, ODataId>,
}

/// A fabric-memory target with free capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPool {
    /// Owning fabric.
    pub fabric: String,
    /// Target endpoint resource id.
    pub endpoint: ODataId,
    /// The `MemoryDomain` resource id.
    pub domain: ODataId,
    /// Total capacity (MiB).
    pub total_mib: u64,
    /// Free capacity (MiB) = total − chunks already carved.
    pub free_mib: u64,
}

/// A pooled GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPool {
    /// Owning fabric.
    pub fabric: String,
    /// Target endpoint resource id.
    pub endpoint: ODataId,
    /// The `Processor` resource id.
    pub processor: ODataId,
    /// Whether a grant already exists (tracked via `Oem.OFMF.AssignedTo`).
    pub assigned: bool,
}

/// An NVMe-oF storage pool with free bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePoolView {
    /// Owning fabric.
    pub fabric: String,
    /// Target endpoint resource id.
    pub endpoint: ODataId,
    /// The Swordfish `StoragePool` resource id.
    pub pool: ODataId,
    /// Total bytes.
    pub total_bytes: u64,
    /// Free bytes = total − volumes already provisioned.
    pub free_bytes: u64,
}

/// Snapshot of every composable pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Inventory {
    /// Free compute nodes (systems not yet bound to a composition).
    pub compute: Vec<ComputePool>,
    /// Fabric memory targets.
    pub memory: Vec<MemoryPool>,
    /// Pooled GPUs.
    pub gpus: Vec<GpuPool>,
    /// Storage pools.
    pub storage: Vec<StoragePoolView>,
}

/// Whether `id` or any of its ancestors reports `UnavailableOffline`
/// (agents mark the failed *device* resource — e.g. the chassis of a dead
/// memory appliance — so pool resources underneath inherit the state).
fn offline(v: &View<'_>, id: &ODataId) -> bool {
    let mut cur = Some(id.clone());
    while let Some(c) = cur {
        if v.get(&c)
            .is_some_and(|s| s.body["Status"]["State"].as_str() == Some("UnavailableOffline"))
        {
            return true;
        }
        cur = c.parent();
    }
    false
}

/// Σ `field` over the members of the collection at `col` (0 when `col` is
/// missing or not a collection).
fn sum_members(v: &View<'_>, col: &ODataId, field: &str) -> u64 {
    let Some(members) = v
        .get(col)
        .filter(|c| c.is_collection)
        .and_then(|c| c.body["Members"].as_array())
    else {
        return 0;
    };
    members
        .iter()
        .filter_map(|m| m["@odata.id"].as_str())
        .filter_map(|m| v.get(&ODataId::new(m)))
        .filter_map(|s| s.body.get(field).and_then(Value::as_u64))
        .sum()
}

/// `link` compared the way [`ODataId::new`] would normalize it.
fn normalized(link: &str) -> &str {
    match link.trim_end_matches('/') {
        "" if !link.is_empty() => "/",
        t => t,
    }
}

/// Who fronts what, indexed from the endpoints of one view. Per endpoint,
/// the last `Initiator` entity names the node it belongs to and the last
/// other entity names the device it fronts.
struct EndpointIndex<'v> {
    /// Device resource → (fabric, endpoint) of the first endpoint in path
    /// order fronting it.
    target: HashMap<&'v str, (&'v str, &'v ODataId)>,
    /// Node → fabric → its initiator endpoint (the last in path order wins).
    initiators: HashMap<&'v str, BTreeMap<&'v str, &'v ODataId>>,
}

impl<'v> EndpointIndex<'v> {
    fn new(endpoints: &[(&'v ODataId, &'v StoredResource)]) -> Self {
        let mut idx = EndpointIndex {
            target: HashMap::new(),
            initiators: HashMap::new(),
        };
        for &(ep, stored) in endpoints {
            let Some(entities) = stored.body.get("ConnectedEntities").and_then(Value::as_array) else {
                continue;
            };
            let fabric = redfish_model::path::fabric_id_of(ep.as_str()).unwrap_or_default();
            let (mut initiator, mut target) = (None, None);
            for ent in entities {
                let Some(link) = ent
                    .get("EntityLink")
                    .and_then(|l| l.get("@odata.id"))
                    .and_then(Value::as_str)
                else {
                    continue;
                };
                if ent.get("EntityRole").and_then(Value::as_str) == Some("Initiator") {
                    initiator = Some(normalized(link));
                } else {
                    target = Some(normalized(link));
                }
            }
            if let Some(node) = initiator {
                idx.initiators.entry(node).or_default().insert(fabric, ep);
            }
            if let Some(device) = target {
                idx.target.entry(device).or_insert((fabric, ep));
            }
        }
        idx
    }

    /// Fabric endpoints of `node`: fabric id → endpoint.
    fn endpoints_of(&self, node: &ODataId) -> BTreeMap<String, ODataId> {
        self.initiators
            .get(node.as_str())
            .into_iter()
            .flatten()
            .map(|(fabric, ep)| (fabric.to_string(), (*ep).clone()))
            .collect()
    }

    /// `(fabric, endpoint)` fronting `device`.
    fn target_of(&self, device: &ODataId) -> Option<(String, ODataId)> {
        self.target
            .get(device.as_str())
            .map(|(fabric, ep)| (fabric.to_string(), (*ep).clone()))
    }
}

impl Inventory {
    /// Scan the tree. `bound_systems` are systems the composer already
    /// assigned (excluded from the free compute list).
    pub fn scan(ofmf: &Ofmf, bound_systems: &[ODataId]) -> Inventory {
        ofmf.registry.view(|v| Inventory::read(v, bound_systems).0)
    }

    /// [`Inventory::scan`] with no system excluded, plus the fabric
    /// endpoints of `node` (bound or not), both read from one snapshot.
    pub fn scan_for_node(ofmf: &Ofmf, node: &ODataId) -> (Inventory, BTreeMap<String, ODataId>) {
        ofmf.registry.view(|v| {
            let (inv, eps) = Inventory::read(v, &[]);
            (inv, eps.endpoints_of(node))
        })
    }

    /// Build the inventory in one pass over `v`; also returns the endpoint
    /// index it was built with.
    fn read<'v>(v: &'v View<'_>, bound_systems: &[ODataId]) -> (Inventory, EndpointIndex<'v>) {
        let [endpoints, systems, domains, processors, pools] = v.by_type([
            "#Endpoint.",
            "#ComputerSystem.",
            "#MemoryDomain.",
            "#Processor.",
            "#StoragePool.",
        ]);
        let eps = EndpointIndex::new(&endpoints);
        let mut inv = Inventory::default();

        // Compute nodes: physical systems not bound.
        for (sys_id, stored) in systems {
            if stored.body.get("SystemType").and_then(Value::as_str) != Some("Physical") {
                continue;
            }
            if bound_systems.contains(sys_id) {
                continue;
            }
            let state = stored.body["Status"]["State"].as_str().unwrap_or("Enabled");
            if state != "Enabled" && state != "StandbyOffline" {
                continue;
            }
            inv.compute.push(ComputePool {
                system: sys_id.clone(),
                cores: stored.body["ProcessorSummary"]["CoreCount"].as_u64().unwrap_or(0) as u32,
                memory_gib: stored.body["MemorySummary"]["TotalSystemMemoryGiB"]
                    .as_u64()
                    .unwrap_or(0),
                endpoints: eps.endpoints_of(sys_id),
            });
        }

        // Fabric memory: each MemoryDomain, free = size - Σ chunk sizes.
        for (dom_id, stored) in domains {
            if offline(v, dom_id) {
                continue;
            }
            let Some((fabric, endpoint)) = eps.target_of(dom_id) else {
                continue;
            };
            let total = stored.body["MemorySizeMiB"].as_u64().unwrap_or(0);
            let used = sum_members(v, &dom_id.child("MemoryChunks"), "MemoryChunkSizeMiB");
            inv.memory.push(MemoryPool {
                fabric,
                endpoint,
                domain: dom_id.clone(),
                total_mib: total,
                free_mib: total.saturating_sub(used),
            });
        }

        // GPUs: processors of type GPU fronted by a target endpoint.
        for (proc_id, stored) in processors {
            if stored.body.get("ProcessorType").and_then(Value::as_str) != Some("GPU") {
                continue;
            }
            let Some((fabric, endpoint)) = eps.target_of(proc_id) else {
                continue;
            };
            let assigned = stored.body["Oem"]["OFMF"]["AssignedTo"].is_string() || offline(v, proc_id);
            inv.gpus.push(GpuPool {
                fabric,
                endpoint,
                processor: proc_id.clone(),
                assigned,
            });
        }

        // Storage pools: free = guaranteed − Σ volume capacities in the
        // owning service.
        for (pool_id, stored) in pools {
            if offline(v, pool_id) {
                continue;
            }
            // /redfish/v1/StorageServices/{svc}/StoragePools/{pool}
            let Some(svc) = pool_id.parent().and_then(|col| col.parent()) else {
                continue;
            };
            let Some((fabric, endpoint)) = eps.target_of(pool_id) else {
                continue;
            };
            let total = stored.body["Capacity"]["GuaranteedBytes"].as_u64().unwrap_or(0);
            let used = sum_members(v, &svc.child("Volumes"), "CapacityBytes");
            inv.storage.push(StoragePoolView {
                fabric,
                endpoint,
                pool: pool_id.clone(),
                total_bytes: total,
                free_bytes: total.saturating_sub(used),
            });
        }

        (inv, eps)
    }

    /// Total free fabric memory across pools (MiB).
    pub fn free_memory_mib(&self) -> u64 {
        self.memory.iter().map(|m| m.free_mib).sum()
    }

    /// Number of unassigned GPUs.
    pub fn free_gpus(&self) -> usize {
        self.gpus.iter().filter(|g| !g.assigned).count()
    }

    /// Total free storage bytes across pools.
    pub fn free_storage_bytes(&self) -> u64 {
        self.storage.iter().map(|s| s.free_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn rig() -> Arc<Ofmf> {
        let o = Ofmf::new("inv-uuid", HashMap::new(), 5);
        let shape = RackShape::default();
        o.register_agent(Arc::new(cxl_agent("CXL0", &shape, 1 << 20, 1)))
            .unwrap();
        o.register_agent(Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, 2)))
            .unwrap();
        o.register_agent(Arc::new(infiniband_agent("IB0", &shape, "A100", 3)))
            .unwrap();
        o
    }

    #[test]
    fn scan_finds_all_pool_classes() {
        let o = rig();
        let inv = Inventory::scan(&o, &[]);
        assert_eq!(inv.compute.len(), 4, "4 shared compute nodes");
        assert_eq!(inv.memory.len(), 2, "2 CXL appliances");
        assert_eq!(inv.gpus.len(), 2, "2 pooled GPUs");
        assert_eq!(inv.storage.len(), 2, "2 NVMe pools");
        assert_eq!(inv.free_memory_mib(), 2 << 20);
        assert_eq!(inv.free_gpus(), 2);
        assert_eq!(inv.free_storage_bytes(), 2 << 40);
        // Compute nodes carry endpoints on all three fabrics.
        assert_eq!(inv.compute[0].endpoints.len(), 3);
    }

    #[test]
    fn bound_systems_are_excluded() {
        let o = rig();
        let all = Inventory::scan(&o, &[]);
        let bound = vec![all.compute[0].system.clone()];
        let inv = Inventory::scan(&o, &bound);
        assert_eq!(inv.compute.len(), 3);
        assert!(!inv.compute.iter().any(|c| c.system == bound[0]));
    }

    #[test]
    fn chunk_consumption_reduces_free_memory() {
        let o = rig();
        // Carve a 1024 MiB chunk through the real path.
        let zones = ODataId::new("/redfish/v1/Fabrics/CXL0/Zones");
        let zone = o
            .post(
                &zones,
                &serde_json::json!({"Links": {"Endpoints": [
                    {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"},
                    {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"},
                ]}}),
            )
            .unwrap();
        o.post(
            &ODataId::new("/redfish/v1/Fabrics/CXL0/Connections"),
            &serde_json::json!({
                "Id": "c1",
                "Zone": {"@odata.id": zone.as_str()},
                "Size": 1024,
                "Links": {
                    "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"}],
                    "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"}],
                }
            }),
        )
        .unwrap();
        let inv = Inventory::scan(&o, &[]);
        assert_eq!(inv.free_memory_mib(), (2 << 20) - 1024);
        let mem00 = inv.memory.iter().find(|m| m.domain.as_str().contains("mem00")).unwrap();
        assert_eq!(mem00.free_mib, (1 << 20) - 1024);
    }

    #[test]
    fn offline_domains_are_skipped() {
        let o = rig();
        o.registry
            .patch(
                &ODataId::new("/redfish/v1/Chassis/mem00/MemoryDomains/dom0"),
                &serde_json::json!({"Status": {"State": "UnavailableOffline"}}),
                None,
            )
            .unwrap();
        let inv = Inventory::scan(&o, &[]);
        assert_eq!(inv.memory.len(), 1);
    }
}
