//! The three closed-loop workloads. Each client sends its next request only
//! after the previous reply, times it from send to full reply, and checks
//! the reply; a failed check counts like a failed request.

use crate::client::{top_level_odata_id, Conn, Resp};
use crate::gen::{BrowseStream, ComposeStream, ManageStream, Req, COMPOSE_WINDOW, GPU_CAP};
use crate::stats::Hist;
use crate::trace::Tracer;
use composer::Composer;
use parking_lot::Mutex;
use redfish_model::odata::ODataId;
use serde_json::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// In traced slices, every this-many-th request is a `GET /redfish` (a
/// constant body), the REST floor.
const FLOOR_EVERY: u64 = 16;

/// Latencies (ns) of one request class, split by traced slice, and its
/// completions in each second of the window.
#[derive(Clone, Default)]
pub struct Samples {
    pub untraced: Hist,
    pub traced: Hist,
    pub per_second: Vec<u64>,
}

impl Samples {
    fn push(&mut self, traced: bool, ns: u64, second: usize) {
        if traced {
            self.traced.record(ns)
        } else {
            self.untraced.record(ns)
        }
        if second >= self.per_second.len() {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += 1;
    }

    pub fn extend(&mut self, other: Samples) {
        self.untraced.merge(&other.untraced);
        self.traced.merge(&other.traced);
        if other.per_second.len() > self.per_second.len() {
            self.per_second.resize(other.per_second.len(), 0);
        }
        for (a, b) in self.per_second.iter_mut().zip(&other.per_second) {
            *a += b;
        }
    }
}

/// The timed window.
#[derive(Clone, Copy)]
pub struct Timed {
    pub start: Instant,
    pub end: Instant,
}

/// What one client (or an end-of-run check) did.
#[derive(Default)]
pub struct Tally {
    pub classes: BTreeMap<&'static str, Samples>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Start of the window the recorded completions fall into.
    start: Option<Instant>,
}

impl Tally {
    fn timing(timed: Timed) -> Tally {
        Tally {
            start: Some(timed.start),
            ..Tally::default()
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn record(&mut self, class: &'static str, traced: bool, ns: u64) {
        let second = self.start.map_or(0, |s| s.elapsed().as_secs() as usize);
        self.classes.entry(class).or_default().push(traced, ns, second);
    }

    /// One end-of-run check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (k, v) in other.classes {
            self.classes.entry(k).or_default().extend(v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// A client connection that replaces itself after a transport error (the
/// error itself is counted by the caller).
struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    resp: Resp,
}

impl Client {
    fn new(addr: SocketAddr, conn: Conn) -> Client {
        Client {
            addr,
            conn: Some(conn),
            resp: Resp::default(),
        }
    }

    /// Send and time one request; `Err` is a transport error.
    fn send(&mut self, method: &str, target: &str, if_match: Option<u64>, body: Option<&[u8]>) -> Result<u64, String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr).map_err(|e| format!("reconnect: {e}"))?);
        }
        let conn = self.conn.as_mut().ok_or("no connection")?;
        let t0 = Instant::now();
        match conn.send(method, target, if_match, body, &mut self.resp) {
            Ok(()) => Ok(t0.elapsed().as_nanos() as u64),
            Err(e) => {
                self.conn = None;
                Err(format!("{method} {target}: transport error: {e}"))
            }
        }
    }

    /// The interleaved REST floor request of traced slices.
    fn floor(&mut self, out: &mut Tally) {
        match self.send("GET", "/redfish", None, None) {
            Ok(ns) if self.resp.status == 200 => out.record("floor", true, ns),
            Ok(_) => out.fail(format!("GET /redfish answered {}", self.resp.status)),
            Err(e) => out.fail(e),
        }
    }

    fn body_is(&self, path: &str) -> bool {
        top_level_odata_id(&self.resp.body) == Some(path)
    }
}

pub fn browse_client(addr: SocketAddr, conn: Conn, mut stream: BrowseStream, timed: Timed, tracer: &Tracer) -> Tally {
    let mut c = Client::new(addr, conn);
    let mut out = Tally::timing(timed);
    let mut n = 0u64;
    loop {
        let now = Instant::now();
        if now >= timed.end {
            break;
        }
        let traced = tracer.traced_at(now);
        n += 1;
        if traced && n.is_multiple_of(FLOOR_EVERY) {
            c.floor(&mut out);
            continue;
        }
        let (class, path, target) = match stream.next_req() {
            Req::Get { path } => ("get", path.clone(), path),
            Req::Query { path, query } => ("query", path.clone(), format!("{path}?{query}")),
            Req::Patch { .. } => unreachable!("browse streams only read"),
        };
        out.attempted += 1;
        match c.send("GET", &target, None, None) {
            Err(e) => out.fail(e),
            Ok(ns) => {
                if c.resp.status != 200 {
                    out.fail(format!("GET {target} answered {}", c.resp.status));
                } else if !c.body_is(&path) {
                    out.fail(format!("GET {target}: body does not carry @odata.id {path}"));
                } else {
                    out.record(class, traced, ns);
                }
            }
        }
    }
    out
}

/// A manage client: `If-Match` PATCHes and GETs over its own keys.
pub struct ManageClient {
    c: Client,
    stream: ManageStream,
    keys: Vec<String>,
    etags: Vec<u64>,
    /// The AssetTag each key must show, once this client has patched it.
    expect: Vec<Option<String>>,
    pub out: Tally,
}

impl ManageClient {
    /// Connect and learn each key's ETag (untimed).
    pub fn warm(addr: SocketAddr, conn: Conn, stream: ManageStream) -> ManageClient {
        let keys = stream.keys().to_vec();
        let mut m = ManageClient {
            c: Client::new(addr, conn),
            stream,
            etags: vec![0; keys.len()],
            expect: vec![None; keys.len()],
            keys,
            out: Tally::default(),
        };
        for slot in 0..m.keys.len() {
            let key = m.keys[slot].clone();
            m.out.attempted += 1;
            match m.c.send("GET", &key, None, None) {
                Ok(_) if m.c.resp.status == 200 => m.etags[slot] = m.c.resp.etag.unwrap_or(0),
                Ok(_) => m.out.fail(format!("warm-up GET {key} answered {}", m.c.resp.status)),
                Err(e) => m.out.fail(e),
            }
        }
        m
    }

    pub fn run(mut self, timed: Timed, tracer: &Tracer) -> Tally {
        self.out.start = Some(timed.start);
        let mut n = 0u64;
        loop {
            let now = Instant::now();
            if now >= timed.end {
                break;
            }
            let traced = tracer.traced_at(now);
            n += 1;
            if traced && n.is_multiple_of(FLOOR_EVERY) {
                self.c.floor(&mut self.out);
                continue;
            }
            self.out.attempted += 1;
            match self.stream.next_req() {
                Req::Get { path } => self.get(&path, traced),
                Req::Patch { slot, path, body } => self.patch(slot, &path, &body, traced),
                Req::Query { .. } => unreachable!("manage streams do not query"),
            }
        }
        self.out
    }

    fn get(&mut self, path: &str, traced: bool) {
        let slot = self.keys.iter().position(|k| k == path).unwrap_or(0);
        let ns = match self.c.send("GET", path, None, None) {
            Ok(ns) => ns,
            Err(e) => return self.out.fail(e),
        };
        let resp = &self.c.resp;
        let shows = self.expect[slot]
            .as_ref()
            .is_none_or(|tag| contains(&resp.body, format!("\"AssetTag\":\"{tag}\"").as_bytes()));
        if resp.status != 200 {
            self.out.fail(format!("GET {path} answered {}", resp.status));
        } else if !self.c.body_is(path) {
            self.out.fail(format!("GET {path}: body does not carry its @odata.id"));
        } else if resp.etag != Some(self.etags[slot]) || !shows {
            let msg = format!(
                "GET {path}: does not show the last PATCH (ETag {:?}, expected {})",
                resp.etag, self.etags[slot]
            );
            self.out.fail(msg);
        } else {
            self.out.record("get", traced, ns);
        }
    }

    fn patch(&mut self, slot: usize, path: &str, body: &Value, traced: bool) {
        let bytes = serde_json::to_vec(body).unwrap_or_default();
        let ns = match self.c.send("PATCH", path, Some(self.etags[slot]), Some(&bytes)) {
            Ok(ns) => ns,
            Err(e) => return self.out.fail(e),
        };
        let tag = self.c.resp.etag.unwrap_or(0);
        if self.c.resp.status != 200 {
            self.out.fail(format!("PATCH {path} answered {}", self.c.resp.status));
        } else if tag <= self.etags[slot] {
            self.out.fail(format!(
                "PATCH {path}: ETag {tag} does not increase past {}",
                self.etags[slot]
            ));
        } else if !self.c.body_is(path) {
            self.out
                .fail(format!("PATCH {path}: body does not carry its @odata.id"));
        } else {
            self.etags[slot] = tag;
            self.expect[slot] = body.get("AssetTag").and_then(Value::as_str).map(str::to_string);
            self.out.record("patch", traced, ns);
        }
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// When a composed system's request left the client, whether the send fell
/// inside the timed window, and whether in a traced slice.
#[derive(Clone, Copy)]
pub struct Sent {
    at: Instant,
    timed: bool,
    traced: bool,
}

pub type SentMap = Arc<Mutex<HashMap<String, Sent>>>;

/// The compose client. It first composes `COMPOSE_WINDOW` systems
/// (untimed), then in the window decomposes its oldest through
/// `Composer::decompose` before each new compose, and after the window
/// decomposes the rest. REST has no decompose route, so decompositions go
/// in-process.
pub struct ComposeClient {
    c: Client,
    stream: ComposeStream,
    composer: Arc<Composer>,
    own: VecDeque<(ODataId, bool)>,
    sent: SentMap,
    /// Names of every system this client composed.
    pub composed: Vec<String>,
    pub out: Tally,
}

const COMPOSE_PATH: &str = "/redfish/v1/CompositionService/Actions/CompositionService.Compose";

impl ComposeClient {
    pub fn new(
        addr: SocketAddr,
        conn: Conn,
        stream: ComposeStream,
        composer: Arc<Composer>,
        sent: SentMap,
    ) -> ComposeClient {
        ComposeClient {
            c: Client::new(addr, conn),
            stream,
            composer,
            own: VecDeque::new(),
            sent,
            composed: Vec::new(),
            out: Tally::default(),
        }
    }

    pub fn fill(&mut self) {
        while self.own.len() < COMPOSE_WINDOW && self.out.failed == 0 {
            self.compose_one(false, false);
        }
    }

    pub fn run(&mut self, timed: Timed, tracer: &Tracer) {
        self.out.start = Some(timed.start);
        let mut n = 0u64;
        loop {
            let now = Instant::now();
            if now >= timed.end {
                break;
            }
            let traced = tracer.traced_at(now);
            n += 1;
            if traced && n.is_multiple_of(FLOOR_EVERY) {
                self.c.floor(&mut self.out);
                continue;
            }
            if self.own.len() >= COMPOSE_WINDOW {
                self.decompose_oldest(traced);
            }
            self.compose_one(true, traced);
        }
    }

    pub fn drain(&mut self) {
        while !self.own.is_empty() {
            self.decompose_oldest(false);
        }
    }

    fn compose_one(&mut self, timed: bool, traced: bool) {
        let gpus = self.own.iter().filter(|(_, g)| *g).count();
        let (name, body, gpu) = self.stream.next_body(gpus < GPU_CAP);
        let bytes = serde_json::to_vec(&body).unwrap_or_default();
        let expect = format!("/redfish/v1/Systems/{name}");
        self.out.attempted += 1;
        self.sent.lock().insert(
            name.clone(),
            Sent {
                at: Instant::now(),
                timed,
                traced,
            },
        );
        let ns = match self.c.send("POST", COMPOSE_PATH, None, Some(&bytes)) {
            Ok(ns) => ns,
            Err(e) => return self.out.fail(e),
        };
        if self.c.resp.status != 201 {
            let why = String::from_utf8_lossy(&self.c.resp.body)
                .chars()
                .take(200)
                .collect::<String>();
            return self
                .out
                .fail(format!("compose {expect} answered {}: {why}", self.c.resp.status));
        }
        if self.c.resp.location.as_deref() != Some(expect.as_str()) {
            return self
                .out
                .fail(format!("compose {expect}: Location {:?}", self.c.resp.location));
        }
        let sys = ODataId::new(expect.as_str());
        let reg = &self.composer.ofmf().registry;
        let bound = self.composer.find(&sys);
        let intact = reg.exists(&sys)
            && bound.as_ref().is_some_and(|c| {
                c.bindings
                    .iter()
                    .all(|b| reg.exists(&b.connection) && reg.exists(&b.zone))
            });
        if !intact {
            return self
                .out
                .fail(format!("compose {expect}: system or a binding's connection is missing"));
        }
        self.own.push_back((sys, gpu));
        self.composed.push(name);
        if timed {
            self.out.record("compose", traced, ns);
        }
    }

    fn decompose_oldest(&mut self, traced: bool) {
        let Some((sys, _)) = self.own.pop_front() else { return };
        let bindings = self.composer.find(&sys).map(|c| c.bindings).unwrap_or_default();
        self.out.attempted += 1;
        let t0 = Instant::now();
        let r = self.composer.decompose(&sys);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Err(e) = r {
            return self.out.fail(format!("decompose {sys}: {e}"));
        }
        let reg = &self.composer.ofmf().registry;
        let left: Vec<&ODataId> = bindings
            .iter()
            .flat_map(|b| [&b.zone, &b.connection])
            .filter(|id| reg.exists(id))
            .collect();
        if reg.exists(&sys) || !left.is_empty() {
            return self.out.fail(format!("decompose {sys}: left behind {left:?}"));
        }
        self.out.record("decompose", traced, ns);
    }
}

/// What the event watcher saw.
#[derive(Default)]
pub struct Watched {
    pub added: HashMap<String, u32>,
    pub unexpected: Vec<String>,
    pub notify: Samples,
    pub out: Tally,
}

/// The second compose-workload client: long-polls its subscription for
/// `ResourceAdded` on `Systems` until `stop` is set and a poll comes back
/// empty.
pub fn watcher(addr: SocketAddr, conn: Conn, events_path: &str, sent: SentMap, stop: &AtomicBool) -> Watched {
    let mut c = Client::new(addr, conn);
    let mut w = Watched::default();
    let target = format!("{events_path}?wait=200");
    loop {
        let stopping = stop.load(Ordering::Acquire);
        w.out.attempted += 1;
        if let Err(e) = c.send("GET", &target, None, None) {
            w.out.fail(e);
            if stopping {
                break;
            }
            continue;
        }
        let got = Instant::now();
        if c.resp.status != 200 {
            w.out.fail(format!("GET {target} answered {}", c.resp.status));
            break;
        }
        let Ok(v) = serde_json::from_slice::<Value>(&c.resp.body) else {
            w.out.fail(format!("GET {target}: body is not JSON"));
            continue;
        };
        let mut count = 0;
        for env in v.get("Events").and_then(Value::as_array).into_iter().flatten() {
            for rec in env.get("Events").and_then(Value::as_array).into_iter().flatten() {
                count += 1;
                if rec.get("EventType").and_then(Value::as_str) != Some("ResourceAdded") {
                    continue;
                }
                let origin = rec
                    .get("OriginOfCondition")
                    .and_then(|o| o.get("@odata.id"))
                    .and_then(Value::as_str)
                    .unwrap_or("");
                let name = origin.strip_prefix("/redfish/v1/Systems/").unwrap_or("");
                match sent.lock().get(name).copied() {
                    Some(s) => {
                        let seen = w.added.entry(name.to_string()).or_default();
                        *seen += 1;
                        if *seen == 1 && s.timed {
                            let ns = got.saturating_duration_since(s.at).as_nanos() as u64;
                            w.notify.push(s.traced, ns, 0);
                        }
                    }
                    None => w.unexpected.push(origin.to_string()),
                }
            }
        }
        if stopping && count == 0 {
            break;
        }
    }
    w
}
