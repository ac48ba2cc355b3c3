//! Server throughput benchmark: N concurrent client threads hammering
//! `/query` and `/batch` over real TCP against an in-process
//! `expfinder-server`.
//!
//! Measures end-to-end requests/second and latency percentiles per
//! endpoint — engine time *plus* the serving layer (framing, JSON,
//! socket round-trips) — the number the ROADMAP's "heavy traffic" goal
//! is about. Query slots rotate through the distinct pattern variants of
//! [`crate::batchbench`] with `route: direct`, so every request does
//! real matching work instead of hitting the result cache.
//!
//! The document is written to `BENCH_3.json` (checked-in baseline; the
//! `bench-smoke` CI job archives its own quick-profile run), and
//! `--min-rps` turns the `bench_serve` bin into an advisory throughput
//! gate.

use crate::{collab_graph, json_obj as obj, SEED};
use expfinder_engine::ExpFinder;
use expfinder_graph::json::Value;
use expfinder_graph::GraphView;
use expfinder_pattern::Pattern;
use expfinder_server::client::{query_body, Client};
use expfinder_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one load-generation run.
#[derive(Clone, Debug)]
pub struct ServeBenchOptions {
    /// Smaller graph and fewer requests.
    pub quick: bool,
    /// Concurrent client threads.
    pub clients: usize,
    /// `/query` requests issued per client.
    pub requests_per_client: usize,
    /// Queries per `/batch` request.
    pub batch_size: usize,
    /// Server worker threads.
    pub workers: usize,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServeBenchOptions {
            quick: false,
            clients: cores.clamp(2, 8),
            requests_per_client: 200,
            batch_size: 16,
            workers: cores.clamp(2, 16),
        }
    }
}

impl ServeBenchOptions {
    /// The quick profile used by CI smoke runs.
    pub fn quick() -> Self {
        ServeBenchOptions {
            quick: true,
            requests_per_client: 40,
            batch_size: 8,
            ..ServeBenchOptions::default()
        }
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One endpoint's merged measurements.
struct EndpointStats {
    requests: usize,
    wall: Duration,
    latencies: Vec<Duration>,
}

impl EndpointStats {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    fn to_json(&self, extra: Vec<(&str, Value)>) -> Value {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let ms = |d: Duration| Value::Float(d.as_secs_f64() * 1e3);
        let mut fields = vec![
            ("requests", Value::Int(self.requests as i64)),
            ("wall_ms", ms(self.wall)),
            ("rps", Value::Float(self.rps())),
            (
                "latency_ms",
                obj(vec![
                    ("p50", ms(percentile(&sorted, 0.50))),
                    ("p95", ms(percentile(&sorted, 0.95))),
                    ("p99", ms(percentile(&sorted, 0.99))),
                    ("max", ms(sorted.last().copied().unwrap_or_default())),
                ]),
            ),
        ];
        fields.extend(extra);
        obj(fields)
    }
}

/// Run `clients` threads, each issuing `per_client` requests built by
/// `make_body`, and merge the per-request latencies.
fn hammer(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    path_graph: &str,
    make_body: impl Fn(usize, usize) -> Value + Sync,
) -> EndpointStats {
    let started = Instant::now();
    let all: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let make_body = &make_body;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    client.set_timeout(Duration::from_secs(60));
                    let mut lats = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let body = make_body(c, i);
                        let t = Instant::now();
                        client
                            .query(path_graph, &body)
                            .expect("bench request failed");
                        lats.push(t.elapsed());
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    let latencies: Vec<Duration> = all.into_iter().flatten().collect();
    EndpointStats {
        requests: latencies.len(),
        wall,
        latencies,
    }
}

/// `/batch` counterpart of [`hammer`] (one request = `batch_size` queries).
fn hammer_batch(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    batch_size: usize,
    variant_dsl: &(impl Fn(usize) -> String + Sync),
) -> EndpointStats {
    let started = Instant::now();
    let all: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    client.set_timeout(Duration::from_secs(60));
                    let mut lats = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let queries: Vec<Value> = (0..batch_size)
                            .map(|j| {
                                query_body(
                                    &variant_dsl(c * per_client * batch_size + i * batch_size + j),
                                    Some(5),
                                    "direct",
                                    false,
                                )
                            })
                            .collect();
                        let t = Instant::now();
                        client.batch("bench", queries).expect("bench batch failed");
                        lats.push(t.elapsed());
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    let latencies: Vec<Duration> = all.into_iter().flatten().collect();
    EndpointStats {
        requests: latencies.len(),
        wall,
        latencies,
    }
}

/// [`crate::batchbench::collab_variant`] in wire (DSL) form: same
/// structure, same vacuously-true per-slot uniqueness conjunct,
/// property-tested equivalent below.
fn variant_dsl(i: usize) -> String {
    let exp = 1 + (i % 5) as i64;
    let hop = 2 + (i / 5 % 2) as u32;
    let uniq = 1_000 + i as i64;
    format!(
        "node sa* where label = \"SA\" and experience >= {exp} and experience <= {uniq}; \
         node sd where label = \"SD\"; node st where label = \"ST\"; \
         edge sa -> sd within {hop}; edge sa -> st within 3; edge sd -> st within 2;"
    )
}

/// Run the whole load generation; prints a table and returns the
/// machine-readable document.
pub fn run_serve_bench(opts: &ServeBenchOptions) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let graph = collab_graph(if opts.quick { 1_500 } else { 6_000 }, SEED);
    println!(
        "serve benchmark: {} clients, {} server workers, {} cores, graph |V|={} |E|={}",
        opts.clients,
        opts.workers,
        cores,
        graph.node_count(),
        graph.edge_count()
    );

    // sanity: the DSL variants must parse and stay distinct per slot
    let p0: Pattern = expfinder_pattern::parser::parse(&variant_dsl(0)).expect("variant dsl");
    assert!(p0.node_count() == 3);

    let engine = Arc::new(ExpFinder::default());
    engine.add_graph("bench", graph).unwrap();
    let handle = Server::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: opts.workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // warm-up (snapshot builds, allocator, listener). The client is
    // dropped before timing: its idle keep-alive connection would
    // otherwise pin one worker through the hammer phase.
    Client::new(addr)
        .query(
            "bench",
            &query_body(&variant_dsl(0), Some(5), "direct", false),
        )
        .expect("warm-up");

    let query_stats = hammer(
        addr,
        opts.clients,
        opts.requests_per_client,
        "bench",
        |c, i| {
            query_body(
                &variant_dsl(c * opts.requests_per_client + i),
                Some(5),
                "direct",
                false,
            )
        },
    );
    let batch_per_client = (opts.requests_per_client / 4).max(2);
    let batch_stats = hammer_batch(
        addr,
        opts.clients,
        batch_per_client,
        opts.batch_size,
        &variant_dsl,
    );
    let served = handle.shutdown();

    let qps = batch_stats.rps() * opts.batch_size as f64;
    println!(
        "{:>8} {:>9} {:>11} | {:>8} {:>9} {:>11} {:>11}",
        "endpoint", "requests", "req/s", "", "requests", "req/s", "queries/s"
    );
    println!(
        "{:>8} {:>9} {:>11.1} | {:>8} {:>9} {:>11.1} {:>11.1}",
        "/query",
        query_stats.requests,
        query_stats.rps(),
        "/batch",
        batch_stats.requests,
        batch_stats.rps(),
        qps
    );

    obj(vec![
        ("bench", Value::Str("serve_throughput".to_owned())),
        (
            "note",
            Value::Str(
                "end-to-end over real TCP (engine + framing + JSON); req/s is \
                 bounded by available_parallelism — single-core hosts measure \
                 the serving overhead, not scaling"
                    .to_owned(),
            ),
        ),
        ("seed", Value::Int(SEED as i64)),
        ("quick", Value::Bool(opts.quick)),
        ("clients", Value::Int(opts.clients as i64)),
        ("server_workers", Value::Int(opts.workers as i64)),
        ("available_parallelism", Value::Int(cores as i64)),
        ("requests_served", Value::Int(served as i64)),
        (
            "endpoints",
            obj(vec![
                ("query", query_stats.to_json(vec![])),
                (
                    "batch",
                    batch_stats.to_json(vec![
                        ("queries_per_request", Value::Int(opts.batch_size as i64)),
                        ("qps", Value::Float(qps)),
                    ]),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchbench::collab_variant;

    #[test]
    fn variant_dsl_matches_builder_variant() {
        // the DSL form and the builder form of a slot agree on semantics
        let g = collab_graph(800, SEED);
        for i in [0, 3, 7] {
            let from_dsl = expfinder_pattern::parser::parse(&variant_dsl(i)).unwrap();
            let a = expfinder_core::bounded_simulation(&g, &from_dsl).unwrap();
            let b = expfinder_core::bounded_simulation(&g, &collab_variant(i)).unwrap();
            assert_eq!(a, b, "slot {i}");
        }
    }

    #[test]
    fn serve_bench_doc_shape() {
        let opts = ServeBenchOptions {
            quick: true,
            clients: 2,
            requests_per_client: 4,
            batch_size: 2,
            workers: 2,
        };
        let doc = run_serve_bench(&opts);
        assert_eq!(
            doc.field("bench").unwrap().as_str().unwrap(),
            "serve_throughput"
        );
        let eps = doc.field("endpoints").unwrap();
        let q = eps.field("query").unwrap();
        assert_eq!(q.field("requests").unwrap().as_i64().unwrap(), 8);
        assert!(q.field("rps").unwrap().as_f64().unwrap() > 0.0);
        assert!(q.field("latency_ms").unwrap().field("p99").is_ok());
        let b = eps.field("batch").unwrap();
        assert_eq!(b.field("queries_per_request").unwrap().as_i64().unwrap(), 2);
        // round-trips through the hand-rolled parser
        let text = doc.to_string_pretty();
        assert_eq!(expfinder_graph::json::parse(&text).unwrap(), doc);
    }
}
