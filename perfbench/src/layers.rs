//! In-process layer probes of the traced run. After the timed window, each
//! layer's public entry point is called directly on the workload's own
//! generated requests and timed call by call.

use crate::client::request_bytes;
use crate::gen::{BrowseStream, ComposeStream, ManageStream, Req};
use crate::stats::median;
use crate::sut::Live;
use ofmf_rest::http::{parse_request, Request};
use redfish_model::odata::ODataId;
use std::time::Instant;

/// The client id the probes generate requests for: past the live clients,
/// so probe PATCHes never touch a live client's keys.
const PROBE_CLIENT: usize = 2;

/// The workload's own generated requests, as the bytes a client sends.
pub struct Sampled {
    pub gets: Vec<Vec<u8>>,
    pub queries: Vec<Vec<u8>>,
    pub patches: Vec<Vec<u8>>,
    pub composes: Vec<Vec<u8>>,
    pub get_paths: Vec<String>,
    pub expand_paths: Vec<String>,
}

pub fn sample(seed: u64, points: &[String], collections: &[(String, usize)], patchable: &[String]) -> Sampled {
    let mut s = Sampled {
        gets: Vec::new(),
        queries: Vec::new(),
        patches: Vec::new(),
        composes: Vec::new(),
        get_paths: Vec::new(),
        expand_paths: Vec::new(),
    };
    let mut browse = BrowseStream::new(seed, PROBE_CLIENT, points, collections);
    while s.gets.len() < 512 || s.queries.len() < 64 {
        let mut bytes = Vec::new();
        match browse.next_req() {
            Req::Get { path } => {
                request_bytes(&mut bytes, "GET", &path, None, None);
                s.gets.push(bytes);
                s.get_paths.push(path);
            }
            Req::Query { path, query } => {
                request_bytes(&mut bytes, "GET", &format!("{path}?{query}"), None, None);
                s.queries.push(bytes);
                if query.starts_with("$expand") {
                    s.expand_paths.push(path);
                }
            }
            Req::Patch { .. } => {}
        }
    }
    let mut manage = ManageStream::new(seed, PROBE_CLIENT, patchable);
    while s.patches.len() < 256 {
        if let Req::Patch { path, body, .. } = manage.next_req() {
            let mut bytes = Vec::new();
            request_bytes(
                &mut bytes,
                "PATCH",
                &path,
                None,
                Some(&serde_json::to_vec(&body).unwrap_or_default()),
            );
            s.patches.push(bytes);
        }
    }
    let mut compose = ComposeStream::new(seed ^ 0x5eed);
    for i in 0..8 {
        let (_, mut body, _) = compose.next_body(true);
        body["Name"] = serde_json::Value::String(format!("probe{i}"));
        let mut bytes = Vec::new();
        request_bytes(
            &mut bytes,
            "POST",
            "/redfish/v1/CompositionService/Actions/CompositionService.Compose",
            None,
            Some(&serde_json::to_vec(&body).unwrap_or_default()),
        );
        s.composes.push(bytes);
    }
    s
}

pub fn parse(bytes: &[u8]) -> Option<Request> {
    parse_request(bytes).ok().flatten().map(|(r, _)| r)
}

fn time_each<T>(items: &[T], passes: usize, mut f: impl FnMut(&T)) -> f64 {
    let mut ns = Vec::with_capacity(items.len() * passes);
    for _ in 0..passes {
        for it in items {
            let t0 = Instant::now();
            f(it);
            ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    median(&mut ns)
}

/// Median per-call time of `parse_request` over `bytes`.
pub fn parse_ns(bytes: &[Vec<u8>]) -> f64 {
    time_each(bytes, 4, |b| {
        std::hint::black_box(parse_request(b).ok());
    })
}

/// Median per-call time of `Router::handle` over requests; failures are
/// returned as messages.
pub fn handle_ns(live: &Live, bytes: &[Vec<u8>], passes: usize, ok: &[u16], errors: &mut Vec<String>) -> f64 {
    let reqs: Vec<Request> = bytes.iter().filter_map(|b| parse(b)).collect();
    if reqs.len() != bytes.len() {
        errors.push("a generated request does not parse".to_string());
    }
    time_each(&reqs, passes, |r| {
        let resp = live.router.handle(r);
        if !ok.contains(&resp.status) && errors.len() < 8 {
            errors.push(format!("in-process {:?} {} answered {}", r.method, r.path, resp.status));
        }
    })
}

pub fn get_raw_ns(live: &Live, paths: &[String]) -> f64 {
    let ids: Vec<ODataId> = paths.iter().map(|p| ODataId::new(p.as_str())).collect();
    time_each(&ids, 4, |id| {
        std::hint::black_box(live.ofmf.get_raw(id).ok());
    })
}

pub fn expand_ns(live: &Live, paths: &[String]) -> f64 {
    let ids: Vec<ODataId> = paths.iter().map(|p| ODataId::new(p.as_str())).collect();
    time_each(&ids, 2, |id| {
        std::hint::black_box(live.ofmf.registry.expand(id).ok());
    })
}

pub fn inventory_ns(live: &Live) -> f64 {
    time_each(&[(); 16], 1, |_| {
        std::hint::black_box(live.composer.inventory());
    })
}
