//! Property test for the subscription routing index: for ANY population of
//! subscription filters and ANY publish origin, the indexed fan-out delivers
//! to exactly the subscribers a naive reference matcher selects — every live
//! subscription whose `EventDestination::matches` accepts the record — with
//! unsubscribes interleaved, so incremental index maintenance is exercised
//! too.

use ofmf_core::clock::Clock;
use ofmf_core::events::EventService;
use ofmf_core::tree::bootstrap;
use proptest::prelude::*;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::events::{EventDestination, EventType};
use redfish_model::Registry;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Origin paths spanning the interesting routing shapes: different
/// top-level collections, nested members, root documents (which key to the
/// wildcard list), and non-standard prefixes.
fn origin_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        // Members of the usual top-level collections, two depths.
        (
            prop_oneof![
                Just("Fabrics"),
                Just("Systems"),
                Just("Chassis"),
                Just("StorageServices")
            ],
            0u32..4,
            0u32..4,
        )
            .prop_map(|(seg, m, leaf)| match leaf {
                0 => format!("/redfish/v1/{seg}/m{m}"),
                l => format!("/redfish/v1/{seg}/m{m}/Parts/p{}", l - 1),
            }),
        // Root-ish paths: span every segment.
        Just("/redfish/v1".to_string()),
        Just("/redfish/v1/".to_string()),
    ]
}

fn event_type_strategy() -> impl Strategy<Value = EventType> {
    prop::sample::select(EventType::ALL.to_vec())
}

/// A subscription's filters: 0–2 event types (0 = wildcard), 0–3 origin
/// subtrees (0 = whole tree).
fn filter_strategy() -> impl Strategy<Value = (Vec<EventType>, Vec<String>)> {
    (
        prop::collection::vec(event_type_strategy(), 0..3),
        prop::collection::vec(origin_strategy(), 0..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_routing_equals_linear_matching(
        filters in prop::collection::vec(filter_strategy(), 1..20),
        publishes in prop::collection::vec((event_type_strategy(), origin_strategy()), 1..20),
        // Indices (mod population) of subscriptions dropped mid-run, so the
        // incrementally-maintained index is exercised, not just the built one.
        unsubs in prop::collection::vec(0usize..20, 0..6),
    ) {
        let reg = Registry::new();
        bootstrap(&reg, "prop").unwrap();
        let indexed = EventService::new(Arc::new(Clock::manual())).with_queue_depth(4096);

        // The reference: each subscription's filters as the destination
        // resource the service stores, matched against every publish by a
        // full scan of the live subscriptions.
        let subs_col = ODataId::new(top::SUBSCRIPTIONS);
        let mut subs = Vec::new();
        let mut reference = Vec::new();
        for (k, (types, origins)) in filters.iter().enumerate() {
            let origins: Vec<ODataId> = origins.iter().map(ODataId::new).collect();
            let dest = format!("channel://s{k}");
            subs.push(indexed.subscribe(&reg, &dest, types.clone(), origins.clone()).unwrap());
            reference.push(EventDestination::new(&subs_col, &format!("ref{k}"), &dest, types.clone(), origins));
        }
        let mut live = vec![true; filters.len()];
        let mut expected: Vec<Vec<(EventType, String)>> = vec![Vec::new(); filters.len()];

        // Interleave unsubscribes with publishes: drop one subscription,
        // publish a few, repeat.
        let mut dropped = BTreeSet::new();
        let mut chunks = publishes.chunks(publishes.len().div_ceil(unsubs.len() + 1));
        let mut run = |svc_pubs: &[(EventType, String)], live: &[bool]| {
            for (t, origin) in svc_pubs {
                let origin = ODataId::new(origin);
                let n_i = indexed.publish(*t, &origin, "p", "OK");
                let mut n_ref = 0;
                for (k, dest) in reference.iter().enumerate() {
                    if live[k] && dest.matches(*t, &origin) {
                        expected[k].push((*t, origin.as_str().to_string()));
                        n_ref += 1;
                    }
                }
                prop_assert_eq!(n_i, n_ref, "delivery counts diverged for {:?} {}", t, origin);
            }
            Ok(())
        };
        if let Some(chunk) = chunks.next() {
            run(chunk, &live)?;
        }
        for u in &unsubs {
            let k = u % filters.len();
            if dropped.insert(k) {
                indexed.unsubscribe(&reg, &subs[k].0).unwrap();
                live[k] = false;
            }
            if let Some(chunk) = chunks.next() {
                run(chunk, &live)?;
            }
        }
        for chunk in chunks {
            run(chunk, &live)?;
        }

        // Identical delivery SETS, subscriber by subscriber: each queue
        // holds the batches the reference selected, with the same record
        // payloads in the same order.
        for (k, (_, rx)) in subs.iter().enumerate() {
            let mut msgs = Vec::new();
            while let Ok(b) = rx.try_recv() {
                for r in b.events.iter() {
                    msgs.push((r.event_type, r.origin_of_condition.odata_id.as_str().to_string()));
                }
            }
            prop_assert_eq!(&msgs, &expected[k], "subscriber {} saw different deliveries", k);
        }
    }
}
