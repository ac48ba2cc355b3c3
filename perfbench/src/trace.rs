//! The traced run's per-layer numbers.
//!
//! Three sources, all timed from this crate around calls into each
//! layer's public functions (no code outside the benchmark changes):
//!
//! 1. the traced TCP run: `/metrics` diffed across the timed phases,
//!    plus the generator's own timestamps;
//! 2. an in-process replay of the identical request stream through the
//!    layers a request crosses in `serve` — HTTP framing, body parse,
//!    DSL parse, wire decode, the engine (or durable runtime) call,
//!    encode and response write — one span per call, with the engine's
//!    own `QueryTimings` as child spans rather than timed twice;
//! 3. probes on the workload's own graph and patterns for layers its
//!    stream does not cross (a direct-route batch for `hot_read` and
//!    `update_mix`, durable update batches for `hot_read` and
//!    `cold_eval`), so every per-layer metric is measured on every
//!    workload.

use crate::inputs::{self, GRAPH, REGISTERED, TOP_K};
use crate::load::{mean, Kind};
use crate::outcome::Outcome;
use crate::plan::{Plan, Workload};
use crate::tcp::{delta, TcpRun};
use expfinder_engine::{ExpFinder, QuerySpec, Route};
use expfinder_graph::json::Value;
use expfinder_runtime::{DurableExpFinder, RuntimeConfig};
use expfinder_server::http::{read_request, Response};
use expfinder_server::{wire, Backend};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One recorded span. `parent` is the index of the enclosing span in
/// the same request (`None` for the request root).
pub struct Span {
    pub rid: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
    on: bool,
    rid: u64,
    stack: Vec<usize>,
}

impl Recorder {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            rid: self.rid,
            parent: self.stack.last().copied(),
            name,
            start: Instant::now(),
            end: Instant::now(),
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        r
    }

    /// A child span whose duration the callee measured itself (the
    /// engine's `QueryTimings`), laid at the start of the current span.
    fn child(&mut self, name: &'static str, at: Instant, d: Duration) {
        if self.on {
            self.spans.push(Span {
                rid: self.rid,
                parent: self.stack.last().copied(),
                name,
                start: at,
                end: at + d,
            });
        }
    }
}

/// Per-call observations the replay accumulates beside the spans.
#[derive(Default)]
struct Tallies {
    query_us: Vec<f64>,
    evaluate_us: Vec<f64>,
    rank_us: Vec<f64>,
    batch_us: Vec<f64>,
    batch_eff: Vec<f64>,
    routes: BTreeMap<&'static str, usize>,
    bytes_out: Vec<f64>,
    apply_us: Vec<f64>,
    delta_pairs: Vec<f64>,
    applied: usize,
    batches: usize,
}

struct Replay {
    backend: Backend,
    rec: Recorder,
    t: Tallies,
    cores: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Tallies {
    fn note(&mut self, resp: &expfinder_engine::QueryResponse) {
        self.evaluate_us.push(us(resp.timings.evaluate));
        self.rank_us.push(us(resp.timings.rank));
        *self.routes.entry(resp.plan.chosen.as_str()).or_default() += 1;
    }
}

impl Replay {
    /// Run one raw request through the serving layers, as `serve` would.
    fn request(&mut self, raw: &[u8]) {
        let rec = &mut self.rec;
        rec.time("request", |rec| {
            let req = rec
                .time("http.read", |_| {
                    read_request(&mut &raw[..], usize::MAX, Duration::from_secs(10))
                })
                .expect("replayed request parses");
            let body = rec
                .time("wire.parse", |_| wire::parse_body(&req.body))
                .expect("replayed body parses");
            let doc: Value = if req.path.ends_with("/query") {
                let dsl = body.field("pattern").and_then(|p| p.as_str()).unwrap_or("");
                rec.time("pattern.parse", |_| expfinder_pattern::parser::parse(dsl))
                    .expect("replayed DSL parses");
                let q = rec
                    .time("wire.decode", |_| wire::decode_query(&body))
                    .expect("replayed query decodes");
                let at = Instant::now();
                let resp = rec.time("engine.query", |rec| {
                    let start = Instant::now();
                    let resp = self
                        .backend
                        .query(GRAPH, &q.pattern, q.top_k, q.route)
                        .expect("replayed query answers");
                    rec.child("engine.evaluate", start, resp.timings.evaluate);
                    rec.child(
                        "engine.rank",
                        start + resp.timings.evaluate,
                        resp.timings.rank,
                    );
                    resp
                });
                self.t.query_us.push(us(at.elapsed()));
                self.t.note(&resp);
                let backend = &self.backend;
                rec.time("wire.encode", |_| {
                    backend
                        .read_graph(GRAPH, |g| {
                            wire::encode_query_response(&resp, &q.pattern, q.include_matches, |n| {
                                match g.attr_of(n, "name") {
                                    Some(expfinder_graph::AttrValue::Str(s)) => Some(s.clone()),
                                    _ => None,
                                }
                            })
                        })
                        .expect("graph present")
                })
            } else if req.path.ends_with("/batch") {
                if let Ok(slots) = body.field("queries").and_then(|q| q.as_array()) {
                    for s in slots {
                        let dsl = s.field("pattern").and_then(|p| p.as_str()).unwrap_or("");
                        rec.time("pattern.parse", |_| expfinder_pattern::parser::parse(dsl))
                            .expect("replayed DSL parses");
                    }
                }
                let b = rec
                    .time("wire.decode", |_| wire::decode_batch(&body))
                    .expect("replayed batch decodes");
                let decoded: Vec<_> = b.queries.into_iter().map(|q| q.expect("slot")).collect();
                let specs: Vec<QuerySpec> = decoded
                    .iter()
                    .map(|q| {
                        let s = QuerySpec::pattern(q.pattern.clone()).prefer(q.route);
                        match q.top_k {
                            Some(k) => s.top_k(k),
                            None => s,
                        }
                    })
                    .collect();
                let at = Instant::now();
                let results = rec.time("engine.batch", |_| {
                    self.backend
                        .query_batch(GRAPH, specs)
                        .expect("replayed batch answers")
                });
                let wall = at.elapsed();
                let results: Vec<_> = results
                    .into_iter()
                    .map(|r| r.expect("replayed slot answers"))
                    .collect();
                self.t.batch_us.push(us(wall));
                let busy: f64 = results.iter().map(|r| us(r.timings.total)).sum();
                self.t.batch_eff.push(busy / (us(wall) * self.cores));
                for r in &results {
                    self.t.query_us.push(us(r.timings.total));
                    self.t.note(r);
                }
                rec.time("wire.encode", |_| {
                    let slots: Vec<Value> = results
                        .iter()
                        .zip(&decoded)
                        .map(|(r, q)| {
                            obj(vec![(
                                "ok",
                                wire::encode_query_response(r, &q.pattern, false, |_| None),
                            )])
                        })
                        .collect();
                    obj(vec![("results", Value::Array(slots))])
                })
            } else {
                let ups = rec
                    .time("wire.decode", |_| wire::decode_updates(&body))
                    .expect("replayed updates decode");
                let at = Instant::now();
                let report = rec.time("runtime.apply", |_| {
                    self.backend
                        .apply_updates_traced(GRAPH, &ups)
                        .expect("replayed updates apply")
                });
                self.t.apply_us.push(us(at.elapsed()));
                self.t.applied += report.applied;
                self.t.batches += 1;
                self.t.delta_pairs.push(
                    report
                        .registered
                        .iter()
                        .map(|d| d.delta().abs() as f64)
                        .sum(),
                );
                rec.time("wire.encode", |_| wire::encode_update_report(&report))
            };
            let mut out = Vec::new();
            rec.time("http.write", |_| {
                Response::json(200, &doc)
                    .write_to(&mut out, true)
                    .expect("write to memory")
            });
            self.t.bytes_out.push(out.len() as f64);
        });
        self.rec.rid += 1;
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn open_backend(plan: &Plan, dir: &Path, durable: bool) -> Result<Backend, String> {
    let backend = if durable {
        let _ = std::fs::remove_dir_all(dir);
        Backend::Durable(std::sync::Arc::new(
            DurableExpFinder::open(dir, RuntimeConfig::default()).map_err(|e| e.to_string())?,
        ))
    } else {
        Backend::Local(std::sync::Arc::new(ExpFinder::default()))
    };
    backend
        .add_graph(GRAPH, plan.graph.clone())
        .map_err(|e| e.to_string())?;
    Ok(backend)
}

/// Per-layer metrics, in `BENCHMARK.json` order.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
    /// Self-time table: (name, calls, mean µs, mean self µs).
    pub self_time: Vec<(&'static str, usize, f64, f64)>,
    pub unattributed_share: f64,
    pub inproc_request_us: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Apply `batches` through a backend while a sampler records the
/// deepest shard mailbox; returns the maximum depth seen.
fn with_depth_sampler(backend: &Backend, f: impl FnOnce()) -> f64 {
    let stop = AtomicBool::new(false);
    let max = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let d = backend
                    .shard_stats()
                    .iter()
                    .map(|s| s.depth)
                    .max()
                    .unwrap_or(0);
                max.fetch_max(d, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        f();
        stop.store(true, Ordering::Relaxed);
    });
    max.load(Ordering::Relaxed) as f64
}

pub fn layers(
    plan: &Plan,
    run: &TcpRun,
    traced: &Outcome,
    untraced: &Outcome,
    run_dir: &Path,
) -> Result<Layers, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // 1. the TCP run
    let route = plan.primary_route;
    let d_sum = delta(&run.m0, &run.m1, &["requests", route, "latency_us", "sum"]);
    let d_cnt = delta(&run.m0, &run.m1, &["requests", route, "count"]);
    let dispatch_us = ratio(d_sum, d_cnt);
    m.push(("server.dispatch_us", dispatch_us, "us"));
    m.push(("server.gap_us", traced.client_mean_us - dispatch_us, "us"));
    m.push((
        "server.shed",
        delta(&run.m0, &run.m1, &["server", "shed"]),
        "count",
    ));
    m.push((
        "server.rejected",
        delta(&run.m0, &run.m1, &["server", "deadline", "rejected"]),
        "count",
    ));
    m.push(("server.conns_opened", traced.conns_opened, "count"));
    m.push((
        "subscribe.frames",
        delta(&run.m0, &run.m1, &["subscriptions", "frames_pushed"]),
        "count",
    ));
    m.push((
        "subscribe.evictions",
        delta(
            &run.m0,
            &run.m1,
            &["subscriptions", "slow_consumer_disconnects"],
        ),
        "count",
    ));
    m.push(("gen.lag_p99_ms", traced.gen_lag_p99_ms, "ms"));
    let p50 = |o: &Outcome| o.e2e.iter().find(|e| e.0 == "p50_ms").map_or(0.0, |e| e.1);
    m.push((
        "trace.overhead_p50_pct",
        100.0 * (p50(traced) - p50(untraced)) / p50(untraced),
        "%",
    ));

    // 2. the replay
    let dir = run_dir.join("replay");
    let backend = open_backend(plan, &dir, plan.durable)?;
    let mut r = Replay {
        backend: backend.clone(),
        rec: Recorder::default(),
        t: Tallies::default(),
        cores,
    };
    // registrations are not on the request path; apply them directly,
    // then replay the warm-up like any request
    for (name, dsl) in &plan.registered {
        let p = expfinder_pattern::parser::parse(dsl).map_err(|e| e.to_string())?;
        backend
            .register_query(GRAPH, name, p)
            .map_err(|e| e.to_string())?;
    }
    for req in &plan.setup_reqs[plan.registered.len()..] {
        r.request(req);
    }
    r.t = Tallies::default();
    let c0 = backend.cache_stats();
    let e0 = backend.eval_totals();
    let i0 = backend.index_totals();
    let p0 = backend.planner_totals();
    let w0 = backend.wal_totals();
    r.rec.on = true;
    let stream: Vec<(Kind, usize)> = run
        .open
        .iter()
        .chain(&run.closed)
        .map(|s| (s.kind, s.item))
        .collect();
    let depth_max = with_depth_sampler(&backend, || {
        for &(k, item) in &stream {
            r.request(plan.req(k, item).req);
        }
    });
    r.rec.on = false;
    let c1 = backend.cache_stats();
    let e1 = backend.eval_totals();
    let i1 = backend.index_totals();
    let p1 = backend.planner_totals();
    let w1 = backend.wal_totals();

    let span_mean = |name: &str| {
        mean(
            &r.rec
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| us(s.end - s.start))
                .collect::<Vec<_>>(),
        )
    };
    for name in [
        "http.read",
        "http.write",
        "wire.parse",
        "wire.decode",
        "wire.encode",
        "pattern.parse",
    ] {
        let key: &'static str = match name {
            "http.read" => "http.read_us",
            "http.write" => "http.write_us",
            "wire.parse" => "wire.parse_us",
            "wire.decode" => "wire.decode_us",
            "wire.encode" => "wire.encode_us",
            _ => "pattern.parse_us",
        };
        m.push((key, span_mean(name), "us"));
    }
    m.push(("http.bytes_out", mean(&r.t.bytes_out), "B"));

    // 3. probes for layers the stream does not cross
    if r.t.batch_us.is_empty() {
        for half in plan.pool.chunks(inputs::BATCH) {
            let specs = half
                .iter()
                .map(|d| {
                    QuerySpec::dsl(d.as_str())
                        .prefer(Route::Direct)
                        .top_k(TOP_K)
                })
                .collect();
            let at = Instant::now();
            let results = backend
                .query_batch(GRAPH, specs)
                .map_err(|e| e.to_string())?;
            let wall = at.elapsed();
            let busy: f64 = results
                .iter()
                .map(|x| x.as_ref().map_or(0.0, |x| us(x.timings.total)))
                .sum();
            r.t.batch_us.push(us(wall));
            r.t.batch_eff.push(busy / (us(wall) * cores));
        }
    }
    let (apply_us, delta_pairs, wal_bpu, fsyncs_pb, depth) = if r.t.batches > 0 {
        (
            mean(&r.t.apply_us),
            mean(&r.t.delta_pairs),
            ratio((w1.bytes - w0.bytes) as f64, r.t.applied as f64),
            ratio((w1.fsyncs - w0.fsyncs) as f64, r.t.batches as f64),
            depth_max,
        )
    } else {
        update_probe(plan, &run_dir.join("probe"))?
    };

    m.push(("engine.query_us", mean(&r.t.query_us), "us"));
    m.push(("engine.evaluate_us", mean(&r.t.evaluate_us), "us"));
    m.push(("engine.rank_us", mean(&r.t.rank_us), "us"));
    m.push(("engine.batch_us", mean(&r.t.batch_us), "us"));
    m.push(("engine.batch_efficiency", mean(&r.t.batch_eff), "ratio"));
    let (hits, misses) = ((c1.hits - c0.hits) as f64, (c1.misses - c0.misses) as f64);
    m.push((
        "engine.cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    m.push((
        "engine.cache.evictions",
        (c1.evictions - c0.evictions) as f64,
        "count",
    ));
    let answered: usize = r.t.routes.values().sum();
    for (key, route) in [
        ("engine.route.cache_share", "cache"),
        ("engine.route.registered_share", "registered"),
        ("engine.route.live_share", "live"),
        ("engine.route.snapshot_share", "snapshot"),
        ("engine.route.snapshot_parallel_share", "snapshot_parallel"),
    ] {
        let n = r.t.routes.get(route).copied().unwrap_or(0);
        m.push((key, ratio(n as f64, answered as f64), "ratio"));
    }
    m.push((
        "engine.planner.mispredict_ratio",
        ratio(
            (p1.mispredicts - p0.mispredicts) as f64,
            (p1.decisions - p0.decisions) as f64,
        ),
        "ratio",
    ));
    let evaluated = answered
        - r.t.routes.get("cache").copied().unwrap_or(0)
        - r.t.routes.get("registered").copied().unwrap_or(0);
    let per_eval = |x: usize| ratio(x as f64, evaluated as f64);
    m.push((
        "core.refreshes",
        per_eval(e1.refreshes - e0.refreshes),
        "count",
    ));
    let skipped = (e1.refreshes_skipped - e0.refreshes_skipped) as f64;
    m.push((
        "core.skip_ratio",
        ratio(skipped, skipped + (e1.refreshes - e0.refreshes) as f64),
        "ratio",
    ));
    m.push((
        "core.bfs_nodes_visited",
        per_eval(e1.bfs_nodes_visited - e0.bfs_nodes_visited),
        "count",
    ));
    m.push((
        "core.removals",
        per_eval(e1.removals - e0.removals),
        "count",
    ));
    let (ih, im) = ((i1.hits - i0.hits) as f64, (i1.misses - i0.misses) as f64);
    m.push(("graph.index.hit_ratio", ratio(ih, ih + im), "ratio"));
    m.push(("graph.index.bytes", i1.bytes as f64, "B"));
    let mut csr: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let c = expfinder_graph::CsrGraph::snapshot(&plan.graph);
            let d = us(t.elapsed());
            drop(c);
            d
        })
        .collect();
    csr.sort_by(f64::total_cmp);
    m.push(("graph.csr_build_us", csr[2], "us"));
    m.push(("runtime.apply_us", apply_us, "us"));
    m.push(("incremental.delta_pairs", delta_pairs, "count"));
    m.push(("runtime.wal.bytes_per_update", wal_bpu, "B"));
    m.push(("runtime.wal.fsyncs_per_batch", fsyncs_pb, "count"));
    m.push(("runtime.shard.depth_max", depth, "count"));
    drop(r.backend);
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);

    // self time per layer, and what the replay cannot account for
    let spans = std::mem::take(&mut r.rec.spans);
    let mut child_us = vec![0.0; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            child_us[p] += us(s.end - s.start);
        }
    }
    let mut agg: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = agg.entry(s.name).or_default();
        let d = us(s.end - s.start);
        e.0 += 1;
        e.1 += d;
        e.2 += d - child_us[i];
    }
    let self_time = agg
        .into_iter()
        .map(|(n, (c, d, s))| (n, c, d / c as f64, s / c as f64))
        .collect();
    let primary_roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .zip(&stream)
        .filter(|(_, (k, _))| *k == plan.primary)
        .map(|(s, _)| us(s.end - s.start))
        .collect();
    let inproc = mean(&primary_roots);
    Ok(Layers {
        metrics: m,
        spans,
        self_time,
        unattributed_share: 1.0 - inproc / traced.client_mean_us,
        inproc_request_us: inproc,
    })
}

/// Durable update batches on the workload's graph with its first
/// patterns registered: the runtime layers for workloads whose stream
/// has no writes. Returns (apply µs, |ΔM| pairs, WAL bytes per update,
/// fsyncs per batch, deepest shard mailbox).
fn update_probe(plan: &Plan, dir: &Path) -> Result<(f64, f64, f64, f64, f64), String> {
    const PROBE_BATCHES: usize = 24;
    let backend = open_backend(plan, dir, true)?;
    let patterns: Vec<&String> = if plan.pool.is_empty() {
        plan.batches[0].iter().collect()
    } else {
        plan.pool.iter().collect()
    };
    for (i, dsl) in patterns.iter().take(REGISTERED).enumerate() {
        let p = expfinder_pattern::parser::parse(dsl).map_err(|e| e.to_string())?;
        backend
            .register_query(GRAPH, &format!("q{i}"), p)
            .map_err(|e| e.to_string())?;
    }
    let mut g = plan.graph.clone();
    let ups = inputs::update_stream(plan.seed ^ 0x5EED, &mut g, PROBE_BATCHES);
    let w0 = backend.wal_totals();
    let mut apply = Vec::new();
    let mut pairs = Vec::new();
    let mut applied = 0usize;
    let depth = with_depth_sampler(&backend, || {
        for u in &ups {
            let t = Instant::now();
            let rep = backend
                .apply_updates_traced(GRAPH, u)
                .expect("probe update");
            apply.push(us(t.elapsed()));
            applied += rep.applied;
            pairs.push(rep.registered.iter().map(|d| d.delta().abs() as f64).sum());
        }
    });
    let w1 = backend.wal_totals();
    drop(backend);
    let _ = std::fs::remove_dir_all(dir);
    Ok((
        mean(&apply),
        mean(&pairs),
        ratio((w1.bytes - w0.bytes) as f64, applied as f64),
        ratio((w1.fsyncs - w0.fsyncs) as f64, ups.len() as f64),
        depth,
    ))
}

/// Write every span (replay and TCP) as tab-separated lines:
/// source, request id, span index, parent index, name, start ns, end ns.
pub fn write_spans(path: &Path, layers: &Layers, run: &TcpRun) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "source\trid\tspan\tparent\tname\tstart_ns\tend_ns")?;
    let base = layers.spans.first().map(|s| s.start);
    for (i, s) in layers.spans.iter().enumerate() {
        let b = base.expect("non-empty");
        writeln!(
            f,
            "replay\t{}\t{i}\t{}\t{}\t{}\t{}",
            s.rid,
            s.parent.map_or("-".to_owned(), |p| p.to_string()),
            s.name,
            (s.start - b).as_nanos(),
            (s.end.max(s.start) - b).as_nanos()
        )?;
    }
    let samples: Vec<_> = run.open.iter().chain(&run.closed).collect();
    if let Some(b) = samples.iter().map(|s| s.due).min() {
        for (rid, s) in samples.iter().enumerate() {
            let ns = |t: Instant| (t - b).as_nanos();
            let root = 3 * rid;
            writeln!(
                f,
                "tcp\t{rid}\t{root}\t-\tclient.{}\t{}\t{}",
                s.kind.name(),
                ns(s.due),
                ns(s.done)
            )?;
            writeln!(
                f,
                "tcp\t{rid}\t{}\t{root}\tgen.lag\t{}\t{}",
                root + 1,
                ns(s.due),
                ns(s.sent)
            )?;
            writeln!(
                f,
                "tcp\t{rid}\t{}\t{root}\tclient.wire\t{}\t{}",
                root + 2,
                ns(s.sent),
                ns(s.done)
            )?;
        }
    }
    f.flush()
}

/// Which end-to-end metric, on which workload, each per-layer metric is
/// expected to move (printed with every traced run).
pub const LAYER_MAP: &[(&str, &str)] = &[
    ("server.dispatch_us", "p50_ms, cpu_us_per_op @hot_read"),
    ("server.gap_us", "p50_ms, cpu_us_per_op @hot_read"),
    ("server.shed", "failures, query p90/p99 @hot_read"),
    ("server.rejected", "failures, query p90/p99 @hot_read"),
    ("server.conns_opened", "failures, query p90/p99 @hot_read"),
    ("subscribe.frames", "push_lag_p50_ms @update_mix"),
    ("subscribe.evictions", "push_lag_p50_ms @update_mix"),
    ("gen.lag_p99_ms", "validity of every open-loop latency"),
    (
        "trace.overhead_p50_pct",
        "tracing overhead on p50_ms, every workload",
    ),
    (
        "http.read_us",
        "p50_ms @hot_read (~0 share of p50_ms @cold_eval)",
    ),
    (
        "http.write_us",
        "p50_ms @hot_read (~0 share of p50_ms @cold_eval)",
    ),
    (
        "wire.parse_us",
        "p50_ms @hot_read (~0 share of p50_ms @cold_eval)",
    ),
    (
        "wire.decode_us",
        "p50_ms @hot_read (~0 share of p50_ms @cold_eval)",
    ),
    (
        "wire.encode_us",
        "p50_ms @hot_read (~0 share of p50_ms @cold_eval)",
    ),
    (
        "pattern.parse_us",
        "p50_ms @hot_read (~0 share of p50_ms @cold_eval)",
    ),
    ("http.bytes_out", "p50_ms @hot_read"),
    ("engine.query_us", "p50_ms @cold_eval and @update_mix"),
    ("engine.evaluate_us", "p50_ms @cold_eval and @update_mix"),
    ("engine.rank_us", "p50_ms @cold_eval and @update_mix"),
    ("engine.batch_us", "cpu_us_per_op, eval_qps @cold_eval"),
    (
        "engine.batch_efficiency",
        "cpu_us_per_op, eval_qps @cold_eval",
    ),
    ("engine.cache.hit_ratio", "p50_ms @hot_read and @update_mix"),
    ("engine.cache.evictions", "p50_ms @hot_read and @update_mix"),
    ("engine.route.cache_share", "p50_ms @update_mix"),
    ("engine.route.registered_share", "p50_ms @update_mix"),
    ("engine.route.live_share", "p50_ms @update_mix"),
    ("engine.route.snapshot_share", "p50_ms @update_mix"),
    ("engine.route.snapshot_parallel_share", "p50_ms @update_mix"),
    (
        "engine.planner.mispredict_ratio",
        "cpu_us_per_op, eval_qps @cold_eval",
    ),
    ("core.refreshes", "cpu_us_per_op, eval_qps @cold_eval"),
    ("core.skip_ratio", "cpu_us_per_op, eval_qps @cold_eval"),
    (
        "core.bfs_nodes_visited",
        "cpu_us_per_op, eval_qps @cold_eval",
    ),
    ("core.removals", "cpu_us_per_op, eval_qps @cold_eval"),
    (
        "graph.index.hit_ratio",
        "cpu_us_per_op @cold_eval, p50_ms @update_mix",
    ),
    (
        "graph.index.bytes",
        "cpu_us_per_op @cold_eval, p50_ms @update_mix, rss_mb",
    ),
    ("graph.csr_build_us", "p50_ms @update_mix"),
    (
        "runtime.apply_us",
        "update_p50_ms, cpu_us_per_op @update_mix",
    ),
    (
        "incremental.delta_pairs",
        "update_p50_ms, cpu_us_per_op @update_mix",
    ),
    (
        "runtime.wal.bytes_per_update",
        "update_p50_ms, disk_bytes_per_update @update_mix",
    ),
    (
        "runtime.wal.fsyncs_per_batch",
        "update_p50_ms, cpu_us_per_op @update_mix",
    ),
    ("runtime.shard.depth_max", "update_p99_ms @update_mix"),
];

/// Whether this workload's own stream (rather than a probe) produced
/// the batch and update-path numbers.
pub fn probe_note(w: Workload) -> &'static str {
    match w {
        Workload::HotRead => {
            "engine.batch_* from a direct-route batch probe of the pool; runtime.*/incremental.* \
             from a durable update probe (4 pool queries registered, 24 batches of 8)"
        }
        Workload::ColdEval => {
            "runtime.*/incremental.* from a durable update probe (4 batch patterns registered, \
             24 batches of 8)"
        }
        Workload::UpdateMix => "engine.batch_* from a direct-route batch probe of the pool",
    }
}
