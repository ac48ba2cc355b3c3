//! The three workloads as fixed plans: the graph, the set-up requests,
//! and the exact operation schedule of every timed phase, all derived
//! from the seed before `serve` starts.

use crate::inputs::{self, GRAPH, REGISTERED, TOP_K, UPDATE_BATCH};
use crate::load::{Kind, Op};
use crate::net::request;
use expfinder_graph::{DiGraph, EdgeUpdate, GraphView};
use std::time::Duration;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ColdEval,
    UpdateMix,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "hot_read" => Some(Workload::HotRead),
            "cold_eval" => Some(Workload::ColdEval),
            "update_mix" => Some(Workload::UpdateMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ColdEval => "cold_eval",
            Workload::UpdateMix => "update_mix",
        }
    }
}

/// `hot_read` open-loop rate over both connections: about a fifth of
/// the closed-loop capacity measured on one CPU of a 2-core host, so
/// requests rarely queue behind each other. At 2,000/s, one competing
/// CPU-bound thread raised the median from the due time by a third and
/// two pushed it to 420 ms; at 1,000/s, one left it unchanged and two
/// raised it to 3 ms.
pub const HOT_RATE: f64 = 1000.0;
/// `update_mix` open-loop rates on its one request connection (one update
/// batch per three reads; twice the first sketch's 20 + 60 per second,
/// for twice the read samples per run).
pub const MIX_UPDATE_RATE: f64 = 40.0;
pub const MIX_QUERY_RATE: f64 = 120.0;
/// Upper bounds on closed-loop speed, used only to pre-generate enough
/// operations: above the fastest rate seen on a 2-core host. A phase
/// that runs out ends early; its figures stay valid.
const HOT_CLOSED_CAP: f64 = 8_000.0;
const COLD_CLOSED_CAP: f64 = 300.0;
const MIX_CLOSED_CAP: f64 = 1_500.0;

/// Everything one workload sends, in order.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The graph as uploaded (version `graph_version` of the upload).
    pub graph: DiGraph,
    pub upload: Vec<u8>,
    /// Set-up requests: one registration per [`Plan::registered`]
    /// query, then the warm-up.
    pub setup_reqs: Vec<Vec<u8>>,
    /// Standing queries as (name, DSL).
    pub registered: Vec<(String, String)>,
    /// Hot pool DSL (`hot_read`, `update_mix`) and its `/query` requests.
    pub pool: Vec<String>,
    pub pool_reqs: Vec<Vec<u8>>,
    /// `cold_eval` batches (DSL slots) and their `/batch` requests.
    pub batches: Vec<Vec<String>>,
    pub batch_reqs: Vec<Vec<u8>>,
    /// `update_mix` update batches, valid in order, and their requests.
    pub updates: Vec<Vec<EdgeUpdate>>,
    pub update_reqs: Vec<Vec<u8>>,
    /// Open-loop schedule per connection: (offset from phase start, op).
    pub open: Vec<Vec<(Duration, Kind, usize)>>,
    pub open_secs: f64,
    /// Closed-loop sequence per connection.
    pub closed: Vec<Vec<(Kind, usize)>>,
    pub closed_secs: f64,
    /// Generator connections in the timed phases.
    pub conns: usize,
    /// Run the generator and `serve` on one CPU during the TCP phases
    /// (see `tcp::OneCpu`).
    pub one_cpu: bool,
    /// `serve --data-dir` (durable runtime) and a live `/subscribe`.
    pub durable: bool,
    pub subscribe: bool,
    /// The route whose `/metrics` histogram is the primary operation's.
    pub primary_route: &'static str,
    pub primary: Kind,
    /// One-line description of the offered load, for the report.
    pub offered: String,
    /// Window length for the windowed end-to-end figures: long enough
    /// for ten samples beyond each window's p90.
    pub window_s: f64,
}

impl Plan {
    pub fn req(&self, kind: Kind, item: usize) -> Op<'_> {
        let req = match kind {
            Kind::Query => &self.pool_reqs[item],
            Kind::Batch => &self.batch_reqs[item],
            Kind::Update => &self.update_reqs[item],
        };
        Op { kind, item, req }
    }

    /// The graph and the hot pool come from `data_seed`, a constant of
    /// the workload (another one under `--holdout`); every request
    /// stream — Zipf draws, batch patterns, update batches — comes from
    /// the run `seed`.
    pub fn build(workload: Workload, data_seed: u64, seed: u64, seconds: f64) -> Plan {
        match workload {
            Workload::HotRead => hot_read(data_seed, seed, seconds),
            Workload::ColdEval => cold_eval(data_seed, seed, seconds),
            Workload::UpdateMix => update_mix(data_seed, seed, seconds),
        }
    }

    pub fn graph_size(&self) -> (usize, usize) {
        (self.graph.node_count(), self.graph.edge_count())
    }
}

fn query_path() -> String {
    format!("/graphs/{GRAPH}/query")
}

fn upload(g: &DiGraph) -> Vec<u8> {
    let body = expfinder_server::wire::encode_add_graph(GRAPH, g).to_string_compact();
    request("POST", "/graphs", &body)
}

fn pool_reqs(pool: &[String]) -> Vec<Vec<u8>> {
    pool.iter()
        .map(|d| {
            let body = inputs::query_doc(d, Some(TOP_K)).to_string_compact();
            request("POST", &query_path(), &body)
        })
        .collect()
}

fn empty(workload: Workload, seed: u64, graph: DiGraph) -> Plan {
    Plan {
        workload,
        seed,
        upload: upload(&graph),
        graph,
        setup_reqs: Vec::new(),
        registered: Vec::new(),
        pool: Vec::new(),
        pool_reqs: Vec::new(),
        batches: Vec::new(),
        batch_reqs: Vec::new(),
        updates: Vec::new(),
        update_reqs: Vec::new(),
        open: Vec::new(),
        open_secs: 0.0,
        closed: Vec::new(),
        closed_secs: 0.0,
        conns: 1,
        one_cpu: false,
        durable: false,
        subscribe: false,
        primary_route: "query",
        primary: Kind::Query,
        offered: String::new(),
        window_s: 1.0,
    }
}

/// Cache-resident reads: open loop at [`HOT_RATE`] over two
/// connections, then a closed-loop phase on the same two.
fn hot_read(data_seed: u64, seed: u64, seconds: f64) -> Plan {
    let mut p = empty(Workload::HotRead, seed, inputs::collab_graph(data_seed));
    p.pool = inputs::hot_pool(data_seed);
    p.pool_reqs = pool_reqs(&p.pool);
    // warm-up: every pool query once, so the timed phases hit the cache
    p.setup_reqs = p.pool_reqs.clone();
    p.conns = 2;
    p.one_cpu = true;
    p.window_s = 0.5;
    p.open_secs = seconds * 0.85;
    p.closed_secs = seconds - p.open_secs;
    let mut r = inputs::rng(seed, 10);
    let n = (HOT_RATE * p.open_secs) as usize;
    let draws = inputs::zipf_stream(&mut r, p.pool.len(), n);
    p.open = vec![Vec::new(); 2];
    for (i, q) in draws.into_iter().enumerate() {
        p.open[i % 2].push((Duration::from_secs_f64(i as f64 / HOT_RATE), Kind::Query, q));
    }
    let cap = (HOT_CLOSED_CAP * p.closed_secs) as usize / 2 + 1;
    p.closed = (0..2)
        .map(|_| {
            inputs::zipf_stream(&mut r, p.pool.len(), cap)
                .into_iter()
                .map(|q| (Kind::Query, q))
                .collect()
        })
        .collect();
    p.offered = format!(
        "open loop {HOT_RATE}/s /query (Zipf over {} patterns, top_k {TOP_K}) on 2 connections \
         for {:.1}s, then closed loop on the same 2 for {:.1}s",
        p.pool.len(),
        p.open_secs,
        p.closed_secs
    );
    p
}

/// Evaluation-bound batches: closed loop on one connection, every
/// pattern distinct.
fn cold_eval(data_seed: u64, seed: u64, seconds: f64) -> Plan {
    let mut p = empty(Workload::ColdEval, seed, inputs::twitter_graph(data_seed));
    let cap = (COLD_CLOSED_CAP * seconds) as usize + 1;
    let mut all = inputs::cold_batches(seed, 11, cap + 1);
    let warm = all.remove(0);
    p.setup_reqs = vec![request(
        "POST",
        &format!("/graphs/{GRAPH}/batch"),
        &inputs::batch_body(&warm),
    )];
    p.batch_reqs = all
        .iter()
        .map(|b| {
            request(
                "POST",
                &format!("/graphs/{GRAPH}/batch"),
                &inputs::batch_body(b),
            )
        })
        .collect();
    p.batches = all;
    p.closed_secs = seconds;
    p.closed = vec![(0..cap).map(|i| (Kind::Batch, i)).collect()];
    p.primary_route = "batch";
    p.primary = Kind::Batch;
    p.offered = format!(
        "closed loop /batch of {} distinct patterns on 1 connection for {seconds:.1}s",
        inputs::BATCH
    );
    p
}

/// Durable writes beside reads: open loop of [`MIX_UPDATE_RATE`] update
/// batches interleaved with [`MIX_QUERY_RATE`] reads on one connection,
/// a live subscription, then a closed loop of update batches.
fn update_mix(data_seed: u64, seed: u64, seconds: f64) -> Plan {
    let mut p = empty(Workload::UpdateMix, seed, inputs::collab_graph(data_seed));
    p.pool = inputs::hot_pool(data_seed);
    p.pool_reqs = pool_reqs(&p.pool);
    p.registered = inputs::registered()
        .map(|i| (format!("q{i}"), p.pool[i].clone()))
        .collect();
    p.setup_reqs = p
        .registered
        .iter()
        .map(|(name, dsl)| {
            request(
                "POST",
                &format!("/graphs/{GRAPH}/register"),
                &inputs::register_body(name, dsl),
            )
        })
        .chain(p.pool_reqs.iter().cloned())
        .collect();
    p.durable = true;
    p.subscribe = true;
    p.one_cpu = true;
    p.window_s = 1.0;
    p.open_secs = seconds * 0.85;
    p.closed_secs = seconds - p.open_secs;
    // one op every 1/(u+q) s; every 4th is an update
    let per_sec = MIX_UPDATE_RATE + MIX_QUERY_RATE;
    let stride = (per_sec / MIX_UPDATE_RATE).round() as usize;
    let n = (per_sec * p.open_secs) as usize;
    let n_updates = n.div_ceil(stride);
    let closed_cap = (MIX_CLOSED_CAP * p.closed_secs) as usize + 1;
    let mut g = p.graph.clone();
    p.updates = inputs::update_stream(seed, &mut g, n_updates + closed_cap);
    p.update_reqs = p
        .updates
        .iter()
        .map(|u| {
            request(
                "POST",
                &format!("/graphs/{GRAPH}/updates"),
                &inputs::updates_body(u),
            )
        })
        .collect();
    let mut r = inputs::rng(seed, 12);
    let reads = inputs::zipf_stream(&mut r, p.pool.len(), n);
    let mut u = 0;
    p.open = vec![(0..n)
        .map(|i| {
            let off = Duration::from_secs_f64(i as f64 / per_sec);
            if i % stride == 0 {
                u += 1;
                (off, Kind::Update, u - 1)
            } else {
                (off, Kind::Query, reads[i])
            }
        })
        .collect()];
    p.closed = vec![(n_updates..p.updates.len())
        .map(|i| (Kind::Update, i))
        .collect()];
    p.offered = format!(
        "open loop {MIX_UPDATE_RATE}/s /updates of {UPDATE_BATCH} edges + {MIX_QUERY_RATE}/s \
         /query on 1 connection for {:.1}s with {REGISTERED} registered queries and 1 live \
         subscription, then closed loop /updates for {:.1}s",
        p.open_secs, p.closed_secs
    );
    p
}
