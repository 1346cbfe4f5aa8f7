//! Seeded input generation: the set-up history and every client's request
//! stream come from here and from nothing else, so one seed always yields
//! the same inputs.

use serde_json::{json, Value};

/// SplitMix64: small, fast and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the workload seed and a label, so adding a new
    /// stream never shifts the values of an existing one.
    pub fn derive(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf popularity over `n` ranks: rank 0 is the most popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// GPU-holding compositions allowed at once, per generator. The history
/// and the compose workload each stay under it, so together they never
/// ask for more GPUs than the rack has.
pub const GPU_CAP: usize = 6;

/// One `CompositionService.Compose` body, drawn from the four shapes the
/// workloads mix: fabric memory, memory + storage, GPU, spread memory.
pub fn compose_body(rng: &mut Rng, name: &str, gpu_allowed: bool) -> (Value, bool) {
    let cores = *rng.pick(&[8u64, 16, 28, 56]);
    let local_gib = *rng.pick(&[16u64, 32, 64, 128]);
    let mut shape = rng.below(100);
    if (60..80).contains(&shape) && !gpu_allowed {
        shape = 0;
    }
    let mem_mib = 1024 * (1 + rng.below(64) as u64);
    match shape {
        0..=34 => (
            json!({"Name": name, "Cores": cores, "LocalMemoryGiB": local_gib, "FabricMemoryMiB": mem_mib}),
            false,
        ),
        35..=59 => (
            json!({
                "Name": name, "Cores": cores, "LocalMemoryGiB": local_gib,
                "FabricMemoryMiB": mem_mib,
                "StorageBytes": (1 + rng.below(16) as u64) << 34,
            }),
            false,
        ),
        60..=79 => (
            json!({"Name": name, "Cores": cores, "LocalMemoryGiB": local_gib, "Gpus": 1}),
            true,
        ),
        _ => (
            json!({
                "Name": name, "Cores": cores, "LocalMemoryGiB": local_gib,
                "FabricMemoryMiB": 2 * mem_mib, "SpreadMemory": true,
            }),
            false,
        ),
    }
}

/// A free-text operator note of 96–160 characters (PATCH bodies carry one,
/// like an asset-management system annotating hardware).
pub fn note(rng: &mut Rng) -> String {
    const WORDS: [&str; 16] = [
        "rack",
        "row",
        "aisle",
        "pdu",
        "serviced",
        "pending",
        "rma",
        "firmware",
        "cooling",
        "audit",
        "slot",
        "cable",
        "tagged",
        "owner",
        "lease",
        "inspected",
    ];
    let target = 96 + rng.below(65);
    let mut s = String::with_capacity(target + 12);
    while s.len() < target {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(WORDS[rng.below(WORDS.len())]);
        s.push_str(&rng.below(1000).to_string());
    }
    s.truncate(target);
    s
}

/// One step of the set-up history.
#[derive(Debug, Clone, PartialEq)]
pub enum HistOp {
    /// PATCH the `key`-th patchable resource (index into the sorted list).
    Patch { key: usize, body: Value },
    /// Compose a system from this body.
    Compose { body: Value, gpu: bool },
    /// Decompose the oldest live composition of the history.
    DecomposeOldest,
}

/// Compositions the history makes; it keeps at most [`HISTORY_LIVE`]
/// alive, so it ends with that many composed (half the compute nodes).
pub const HISTORY_COMPOSES: usize = 96;
pub const HISTORY_LIVE: usize = 32;
/// PATCHes between two compositions.
pub const HISTORY_PATCHES_PER_COMPOSE: usize = 40;

/// The set-up history: a fixed count of PATCHes and compose/decompose
/// cycles. `patchable` is the number of resources PATCHes may target.
pub fn history(seed: u64, patchable: usize) -> Vec<HistOp> {
    let mut rng = Rng::derive(seed, "history");
    let mut ops = Vec::new();
    let mut live_gpu: std::collections::VecDeque<bool> = Default::default();
    for i in 0..HISTORY_COMPOSES {
        for j in 0..HISTORY_PATCHES_PER_COMPOSE {
            let key = rng.below(patchable);
            let body =
                json!({"AssetTag": format!("h{i}-{j}-{:x}", rng.next_u64() & 0xffff), "Description": note(&mut rng)});
            ops.push(HistOp::Patch { key, body });
        }
        let gpus_live = live_gpu.iter().filter(|g| **g).count();
        let (body, gpu) = compose_body(&mut rng, &format!("h{i}"), gpus_live < GPU_CAP);
        ops.push(HistOp::Compose { body, gpu });
        live_gpu.push_back(gpu);
        if live_gpu.len() > HISTORY_LIVE {
            live_gpu.pop_front();
            ops.push(HistOp::DecomposeOldest);
        }
    }
    ops
}

/// One request of a REST client stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Point GET, no query: the wire-cache path.
    Get { path: String },
    /// GET with `$top`/`$skip` or `$expand=.` on a collection.
    Query { path: String, query: String },
    /// `If-Match` PATCH of `path` (key slot `slot` of this client).
    Patch { slot: usize, path: String, body: Value },
}

/// The browse stream of one client: ~90 % point GETs over the whole tree
/// with Zipf popularity (ranks seeded per run), the rest collection paging
/// and `$expand=.`.
pub struct BrowseStream {
    rng: Rng,
    ranked: Vec<String>,
    zipf: Zipf,
    collections: Vec<(String, usize)>,
}

impl BrowseStream {
    /// `points` and `collections` (with member counts) must be in a
    /// canonical order; the seed decides the popularity ranking.
    pub fn new(seed: u64, client: usize, points: &[String], collections: &[(String, usize)]) -> BrowseStream {
        let mut ranked = points.to_vec();
        Rng::derive(seed, "browse-popularity").shuffle(&mut ranked);
        BrowseStream {
            rng: Rng::derive(seed, &format!("browse-{client}")),
            zipf: Zipf::new(ranked.len(), 0.9),
            ranked,
            collections: collections.to_vec(),
        }
    }

    pub fn next_req(&mut self) -> Req {
        if self.rng.below(10) != 0 {
            let path = self.ranked[self.zipf.sample(&mut self.rng)].clone();
            return Req::Get { path };
        }
        let (path, members) = self.rng.pick(&self.collections).clone();
        let query = if self.rng.below(2) == 0 {
            "$expand=.".to_string()
        } else {
            let top = *self.rng.pick(&[5usize, 10, 25]);
            format!("$top={top}&$skip={}", self.rng.below(members.max(1)))
        };
        Req::Query { path, query }
    }
}

/// Hot-set resources each manage client owns.
pub const MANAGE_KEYS_PER_CLIENT: usize = 32;

/// The manage stream of one client: half `If-Match` PATCHes and half GETs
/// over the client's own disjoint slice of the hot set.
pub struct ManageStream {
    rng: Rng,
    client: usize,
    keys: Vec<String>,
    seq: u64,
}

impl ManageStream {
    /// The hot set is drawn from `patchable` by the seed; client `c` owns
    /// slots `c*K .. (c+1)*K` of it.
    pub fn new(seed: u64, client: usize, patchable: &[String]) -> ManageStream {
        ManageStream {
            rng: Rng::derive(seed, &format!("manage-{client}")),
            client,
            keys: manage_keys(seed, client, patchable),
            seq: 0,
        }
    }

    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    pub fn next_req(&mut self) -> Req {
        let slot = self.rng.below(self.keys.len());
        let path = self.keys[slot].clone();
        if self.rng.below(2) == 0 {
            return Req::Get { path };
        }
        self.seq += 1;
        let body = json!({
            "AssetTag": format!("m{}-{}-{:x}", self.client, self.seq, self.rng.next_u64() & 0xffff),
            "Description": note(&mut self.rng),
        });
        Req::Patch { slot, path, body }
    }
}

/// Client `client`'s slice of the seeded hot set.
pub fn manage_keys(seed: u64, client: usize, patchable: &[String]) -> Vec<String> {
    let mut all = patchable.to_vec();
    Rng::derive(seed, "manage-hot-set").shuffle(&mut all);
    all.into_iter()
        .skip(client * MANAGE_KEYS_PER_CLIENT)
        .take(MANAGE_KEYS_PER_CLIENT)
        .collect()
}

/// Own compositions the compose client holds; it decomposes its oldest
/// before composing past this.
pub const COMPOSE_WINDOW: usize = 16;

/// The compose client's request stream: a seeded mix of the four shapes.
pub struct ComposeStream {
    rng: Rng,
    seq: u64,
}

impl ComposeStream {
    pub fn new(seed: u64) -> ComposeStream {
        ComposeStream {
            rng: Rng::derive(seed, "compose"),
            seq: 0,
        }
    }

    /// `(name, body, holds a GPU)`.
    pub fn next_body(&mut self, gpu_allowed: bool) -> (String, Value, bool) {
        let name = format!("w{}", self.seq);
        self.seq += 1;
        let (body, gpu) = compose_body(&mut self.rng, &name, gpu_allowed);
        (name, body, gpu)
    }
}

/// FNV-1a digest of the history and the first `n` requests of every client
/// stream of every workload, given the tree-derived path lists.
pub fn digest(seed: u64, patchable: &[String], points: &[String], collections: &[(String, usize)], n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |s: &str| {
        for b in s.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    };
    for op in history(seed, patchable.len()) {
        feed(&format!("{op:?}"));
    }
    for c in 0..2 {
        let mut b = BrowseStream::new(seed, c, points, collections);
        let mut m = ManageStream::new(seed, c, patchable);
        for _ in 0..n {
            feed(&format!("{:?}", b.next_req()));
            feed(&format!("{:?}", m.next_req()));
        }
    }
    let mut cs = ComposeStream::new(seed);
    for i in 0..n {
        feed(&format!("{:?}", cs.next_body(i % 3 != 0)));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists() -> (Vec<String>, Vec<String>, Vec<(String, usize)>) {
        let patchable: Vec<String> = (0..100).map(|i| format!("/redfish/v1/Chassis/c{i}")).collect();
        let points: Vec<String> = (0..300).map(|i| format!("/redfish/v1/Systems/s{i}")).collect();
        let cols = vec![
            ("/redfish/v1/Systems".to_string(), 300),
            ("/redfish/v1/Chassis".to_string(), 100),
        ];
        (patchable, points, cols)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (p, pts, cols) = lists();
        assert_eq!(digest(7, &p, &pts, &cols, 500), digest(7, &p, &pts, &cols, 500));
        assert_ne!(digest(7, &p, &pts, &cols, 500), digest(8, &p, &pts, &cols, 500));
    }

    #[test]
    fn history_leaves_half_composed_and_respects_the_gpu_cap() {
        let ops = history(3, 10);
        let composes = ops.iter().filter(|o| matches!(o, HistOp::Compose { .. })).count();
        let decomposes = ops.iter().filter(|o| matches!(o, HistOp::DecomposeOldest)).count();
        assert_eq!(composes - decomposes, HISTORY_LIVE);
        let mut live: std::collections::VecDeque<bool> = Default::default();
        for op in ops {
            match op {
                HistOp::Compose { gpu, .. } => live.push_back(gpu),
                HistOp::DecomposeOldest => {
                    live.pop_front();
                }
                HistOp::Patch { .. } => {}
            }
            assert!(live.iter().filter(|g| **g).count() <= GPU_CAP);
        }
    }

    #[test]
    fn manage_clients_own_disjoint_keys() {
        let (p, _, _) = lists();
        let a = manage_keys(5, 0, &p);
        let b = manage_keys(5, 1, &p);
        assert_eq!(a.len(), MANAGE_KEYS_PER_CLIENT);
        assert!(a.iter().all(|k| !b.contains(k)));
    }
}
