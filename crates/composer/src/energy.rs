//! Energy management: power-gate fully idle pool hardware, wake it on
//! demand.
//!
//! "Overprovisioned resources are those that are either underused, or
//! unused and idle for the current workloads but still draw energy and
//! cooling." In a composable rack the composer *knows* which appliances are
//! completely unbound, so it can gate them and wake them when a
//! composition needs the capacity back.

use crate::composer::Composer;
use redfish_model::odata::ODataId;
use redfish_model::resources::events::EventType;
use serde_json::{json, Value};

/// Nominal draw of an idle-but-powered device, used for the savings
/// estimate (same figures as the telemetry model).
fn idle_watts(kind: &str) -> f64 {
    match kind {
        "memory" => 120.0 * 0.45,
        "gpu" => 300.0 * 0.45,
        "storage" => 80.0 * 0.45,
        _ => 0.0,
    }
}

/// One gateable (or gated) device.
#[derive(Debug, Clone, PartialEq)]
pub struct Gateable {
    /// The device's chassis / service resource.
    pub resource: ODataId,
    /// Device class (`memory` / `gpu` / `storage`).
    pub kind: &'static str,
    /// Estimated idle draw avoided by gating (Watts).
    pub watts: f64,
}

/// The advisory report.
#[derive(Debug, Clone, Default)]
pub struct GatingReport {
    /// Devices that are completely unbound and can be powered off.
    pub gateable: Vec<Gateable>,
}

impl GatingReport {
    /// Total wattage the report would save.
    pub fn total_watts(&self) -> f64 {
        self.gateable.iter().map(|g| g.watts).sum()
    }
}

fn chassis_of(resource: &ODataId) -> Option<ODataId> {
    // /redfish/v1/Chassis/{x}/… → /redfish/v1/Chassis/{x}
    // /redfish/v1/StorageServices/{x}/… → /redfish/v1/StorageServices/{x}
    let segs: Vec<&str> = resource.as_str().split('/').filter(|s| !s.is_empty()).collect();
    match segs.as_slice() {
        ["redfish", "v1", kind @ ("Chassis" | "StorageServices"), id, ..] => {
            Some(ODataId::new(format!("/redfish/v1/{kind}/{id}")))
        }
        _ => None,
    }
}

/// Compute which pool devices are fully idle and could be gated.
pub fn gating_report(composer: &Composer) -> GatingReport {
    let inv = composer.inventory();
    let mut report = GatingReport::default();
    for m in &inv.memory {
        if m.free_mib == m.total_mib {
            if let Some(ch) = chassis_of(&m.domain) {
                report.gateable.push(Gateable {
                    resource: ch,
                    kind: "memory",
                    watts: idle_watts("memory"),
                });
            }
        }
    }
    for g in &inv.gpus {
        if !g.assigned {
            if let Some(ch) = chassis_of(&g.processor) {
                report.gateable.push(Gateable {
                    resource: ch,
                    kind: "gpu",
                    watts: idle_watts("gpu"),
                });
            }
        }
    }
    for s in &inv.storage {
        if s.free_bytes == s.total_bytes {
            if let Some(ch) = chassis_of(&s.pool) {
                report.gateable.push(Gateable {
                    resource: ch,
                    kind: "storage",
                    watts: idle_watts("storage"),
                });
            }
        }
    }
    report.gateable.sort_by(|a, b| a.resource.cmp(&b.resource));
    report.gateable.dedup_by(|a, b| a.resource == b.resource);
    report
}

/// Gate everything the report names: PATCH `PowerState: Off` and announce.
/// Returns the number of devices gated.
pub fn apply_power_gating(composer: &Composer) -> usize {
    let report = gating_report(composer);
    let ofmf = composer.ofmf();
    let mut gated = 0;
    for g in &report.gateable {
        let already_off = ofmf
            .registry
            .get(&g.resource)
            .ok()
            .and_then(|s| s.body.get("PowerState").and_then(Value::as_str).map(str::to_string))
            .as_deref()
            == Some("Off");
        if already_off {
            continue;
        }
        if ofmf
            .registry
            .patch(&g.resource, &json!({"PowerState": "Off"}), None)
            .is_ok()
        {
            gated += 1;
            ofmf.events.publish(
                EventType::StatusChange,
                &g.resource,
                format!("power-gated idle {} device (saves ~{:.0} W)", g.kind, g.watts),
                "OK",
            );
        }
    }
    gated
}

/// Wake a gated device (PATCH `PowerState: On`). Idempotent.
pub fn wake(composer: &Composer, resource: &ODataId) -> bool {
    let ofmf = composer.ofmf();
    let is_off = ofmf
        .registry
        .get(resource)
        .ok()
        .and_then(|s| s.body.get("PowerState").and_then(Value::as_str).map(str::to_string))
        .as_deref()
        == Some("Off");
    if !is_off {
        return false;
    }
    let ok = ofmf
        .registry
        .patch(resource, &json!({"PowerState": "On"}), None)
        .is_ok();
    if ok {
        ofmf.events.publish(
            EventType::StatusChange,
            resource,
            "woken for composition".to_string(),
            "OK",
        );
    }
    ok
}

/// Wake the device backing a target *endpoint* if it was gated (called by
/// the composer before binding): resolves the endpoint's `EntityLink` to
/// the device resource, then its chassis/service.
pub fn wake_backing(composer: &Composer, target_endpoint: &ODataId) -> bool {
    let ofmf = composer.ofmf();
    let device = ofmf
        .registry
        .view(|v| {
            // ofmf-lint: allow(no-panic-path, "Value usize indexing is total; out-of-range yields Null")
            v.get(target_endpoint)?.body["ConnectedEntities"][0]["EntityLink"]["@odata.id"]
                .as_str()
                .map(ODataId::new)
        })
        .unwrap_or_else(|| target_endpoint.clone());
    match chassis_of(&device) {
        Some(ch) => wake(composer, &ch),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Composer, CompositionRequest, Strategy};
    use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
    use std::sync::Arc;

    fn rig() -> Arc<ofmf_core::Ofmf> {
        let o = ofmf_core::Ofmf::new("energy", std::collections::HashMap::new(), 5);
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
    fn idle_rack_is_fully_gateable() {
        let ofmf = rig();
        let composer = Composer::new(Arc::clone(&ofmf), Strategy::FirstFit);
        let report = gating_report(&composer);
        // 2 memory + 2 gpu + 2 storage devices.
        assert_eq!(report.gateable.len(), 6);
        assert!(report.total_watts() > 400.0);
        assert_eq!(apply_power_gating(&composer), 6);
        // Gating is idempotent.
        assert_eq!(apply_power_gating(&composer), 0);
        let mem = ofmf.registry.get(&ODataId::new("/redfish/v1/Chassis/mem00")).unwrap();
        assert_eq!(mem.body["PowerState"], "Off");
    }

    #[test]
    fn bound_devices_are_not_gateable() {
        let ofmf = rig();
        let composer = Composer::new(Arc::clone(&ofmf), Strategy::FirstFit);
        composer
            .compose(
                &CompositionRequest::compute_only("user", 8, 8)
                    .with_fabric_memory_mib(64)
                    .with_gpus(1),
            )
            .unwrap();
        let report = gating_report(&composer);
        // One memory appliance carved, one GPU granted → 1 memory + 1 gpu
        // + 2 storage remain gateable.
        assert_eq!(report.gateable.len(), 4);
        assert!(!report.gateable.iter().any(|g| g.resource.as_str().contains("mem00")));
    }

    #[test]
    fn compose_wakes_gated_pools() {
        let ofmf = rig();
        let composer = Composer::new(Arc::clone(&ofmf), Strategy::FirstFit);
        apply_power_gating(&composer);
        // Composing must succeed against gated pools (auto-wake).
        let c = composer
            .compose(&CompositionRequest::compute_only("waker", 8, 8).with_fabric_memory_mib(128))
            .unwrap();
        assert_eq!(c.bound_memory_mib(), 128);
        let mem = ofmf.registry.get(&ODataId::new("/redfish/v1/Chassis/mem00")).unwrap();
        assert_eq!(mem.body["PowerState"], "On", "woken for the composition");
    }

    #[test]
    fn wake_is_noop_for_powered_devices() {
        let ofmf = rig();
        let composer = Composer::new(Arc::clone(&ofmf), Strategy::FirstFit);
        assert!(!wake(&composer, &ODataId::new("/redfish/v1/Chassis/mem00")));
    }
}
