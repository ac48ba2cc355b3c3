//! Property tests pinning the route planner to its contract: routing is
//! an *optimization*, never a semantic choice. For any seeded graph,
//! update history and pattern, the match relation under `Route::Auto`
//! (planner's pick) is bit-identical to forced `Route::Direct`, and to
//! `Route::Compressed` once the graph carries a quotient — on both the
//! in-process engine and the durable runtime, cold (first read, planner
//! leans live) and warm (profile amortized, planner leans snapshot).
//! Rankings served from the cache are pinned the same way: bit-identical
//! to `expfinder_core::top_k` on the graph at the response's version.

use expfinder_compress::CompressionMethod;
use expfinder_core::RankedMatch;
use expfinder_engine::{ExecConfig, ExpFinder, Route};
use expfinder_graph::{DiGraph, EdgeUpdate, NodeId};
use expfinder_pattern::{Bound, Pattern, PatternBuilder, Predicate};
use expfinder_runtime::{DurableExpFinder, FsyncPolicy, RuntimeConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const NODES: u32 = 16;

/// Node count of the ranking property's graphs: large enough (four
/// bitset words per pattern node) that the top-3 and top-5 lists fit the
/// cache's per-slot ranking budget, so rankings really are cached.
const RANK_NODES: u32 = 256;

/// The `top_k` sequence the ranking property replays: a prefix of a
/// stored list, a longer list, no ranking, and more than every match.
const TOP_KS: [Option<usize>; 5] = [Some(3), Some(1), Some(5), None, Some(1000)];

/// Unique temp dir per proptest case (cases run concurrently).
fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "expfinder_planprop_{tag}_{}_{n}",
        std::process::id()
    ))
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        shards: 2,
        fsync: FsyncPolicy::Never,
        exec: ExecConfig::sequential(),
        ..RuntimeConfig::default()
    }
}

/// A graph with `nodes` nodes, labels cycling over three classes, and
/// the given edges (modulo the node count).
fn graph_with_edges(nodes: u32, edges: &[(u32, u32)]) -> DiGraph {
    let mut g = DiGraph::new();
    for i in 0..nodes {
        g.add_node(["A", "B", "C"][i as usize % 3], []);
    }
    for &(a, b) in edges {
        g.add_edge(NodeId(a % nodes), NodeId(b % nodes));
    }
    g
}

fn update_strategy(nodes: u32) -> impl Strategy<Value = EdgeUpdate> {
    (proptest::bool::ANY, 0..nodes, 0..nodes).prop_map(|(ins, a, b)| {
        if ins {
            EdgeUpdate::Insert(NodeId(a), NodeId(b))
        } else {
            EdgeUpdate::Delete(NodeId(a), NodeId(b))
        }
    })
}

/// A small family over the three label classes: a single edge, a star
/// and a chain, with proptest-chosen hop bounds (bound 1 everywhere
/// makes the pattern a plain-simulation one, exercising that algorithm
/// family too).
fn pattern_for(kind: u8, b1: u32, b2: u32) -> Pattern {
    let base = PatternBuilder::new().node_output("x", Predicate::label("A"));
    match kind {
        0 => base
            .node("y", Predicate::label("B"))
            .edge("x", "y", Bound::hops(b1)),
        1 => base
            .node("y", Predicate::label("B"))
            .node("z", Predicate::label("C"))
            .edge("x", "y", Bound::hops(b1))
            .edge("x", "z", Bound::hops(b2)),
        _ => base
            .node("y", Predicate::label("B"))
            .node("z", Predicate::label("C"))
            .edge("x", "y", Bound::hops(b1))
            .edge("y", "z", Bound::hops(b2)),
    }
    .build()
    .unwrap()
}

/// Experts as comparable bits: node and the exact rank.
fn bits(experts: &[RankedMatch]) -> Vec<(NodeId, u64)> {
    experts.iter().map(|e| (e.node, e.rank.to_bits())).collect()
}

/// The fresh answer for `top_k = k` on `g`, with the version it is for:
/// evaluate and rank from scratch, no engine involved.
fn fresh_top_k(g: &DiGraph, p: &Pattern, k: Option<usize>) -> (u64, Vec<(NodeId, u64)>) {
    let experts = k.map_or_else(Vec::new, |k| {
        let m = expfinder_core::bounded_simulation(g, p).unwrap();
        expfinder_core::top_k(g, p, &m, k).unwrap()
    });
    (g.version(), bits(&experts))
}

/// Fixed pattern used only to warm a graph's `CostProfile` (every eval
/// bumps reads-at-version, pushing the planner from live to snapshot).
fn warm_pattern() -> Pattern {
    PatternBuilder::new()
        .node_output("u", Predicate::label("B"))
        .node("v", Predicate::label("C"))
        .edge("u", "v", Bound::hops(2))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn planner_routes_are_semantics_preserving(
        initial in proptest::collection::vec((0..NODES, 0..NODES), 4..40),
        updates in proptest::collection::vec(update_strategy(NODES), 1..12),
        kind in 0u8..3,
        b1 in 1u32..4,
        b2 in 1u32..4,
    ) {
        let g = graph_with_edges(NODES, &initial);
        let p = pattern_for(kind, b1, b2);
        let p2 = pattern_for((kind + 1) % 3, b2, b1);
        let warm = warm_pattern();

        // ----- in-process engine (default exec: available parallelism,
        // so the SnapshotParallel candidate is in play) -----
        let engine = ExpFinder::default();
        let h = engine.add_graph("g", g.clone()).unwrap();

        // cold: first read on a fresh graph (Auto must run first — a
        // Direct eval would populate the cache and turn the Auto query
        // into a trivial cache hit)
        let cold = engine.query(&h).pattern(p.clone()).prefer(Route::Auto).run().unwrap();
        let direct = engine.query(&h).pattern(p.clone()).prefer(Route::Direct).run().unwrap();
        prop_assert_eq!(&*cold.matches, &*direct.matches);
        prop_assert!(!cold.plan.candidates.is_empty());

        // warm: amortize the profile, then plan a pattern the cache has
        // never seen — the planner now leans snapshot
        for _ in 0..4 {
            engine.query(&h).pattern(warm.clone()).prefer(Route::Direct).run().unwrap();
        }
        let warm2 = engine.query(&h).pattern(p2.clone()).prefer(Route::Auto).run().unwrap();
        let direct2 = engine.query(&h).pattern(p2.clone()).prefer(Route::Direct).run().unwrap();
        prop_assert_eq!(&*warm2.matches, &*direct2.matches);

        // after updates: cache invalidated, profile reads reset, replan
        engine.apply_updates(&h, &updates).unwrap();
        let auto3 = engine.query(&h).pattern(p.clone()).prefer(Route::Auto).run().unwrap();
        let direct3 = engine.query(&h).pattern(p.clone()).prefer(Route::Direct).run().unwrap();
        prop_assert_eq!(&*auto3.matches, &*direct3.matches);

        // compressed override: evaluate on the quotient, expand, compare
        engine.compress(&h).unwrap();
        let comp = engine.query(&h).pattern(p.clone()).prefer(Route::Compressed).run().unwrap();
        prop_assert_eq!(&*comp.matches, &*direct3.matches);

        // ----- durable runtime (sequential exec, WAL-backed) -----
        let dir = tmpdir("equiv");
        let rt = DurableExpFinder::open(&dir, runtime_config()).unwrap();
        rt.add_graph("g", g).unwrap();

        let d_cold = rt.query("g", &p, None, Route::Auto).unwrap();
        let d_direct = rt.query("g", &p, None, Route::Direct).unwrap();
        prop_assert_eq!(&*d_cold.matches, &*d_direct.matches);
        // cross-check: the durable runtime agrees with the engine
        prop_assert_eq!(&*d_direct.matches, &*direct.matches);

        for _ in 0..4 {
            rt.query("g", &warm, None, Route::Direct).unwrap();
        }
        let d_warm2 = rt.query("g", &p2, None, Route::Auto).unwrap();
        let d_direct2 = rt.query("g", &p2, None, Route::Direct).unwrap();
        prop_assert_eq!(&*d_warm2.matches, &*d_direct2.matches);
        prop_assert_eq!(&*d_direct2.matches, &*direct2.matches);

        rt.apply_updates("g", &updates).unwrap();
        let d_auto3 = rt.query("g", &p, None, Route::Auto).unwrap();
        let d_direct3 = rt.query("g", &p, None, Route::Direct).unwrap();
        prop_assert_eq!(&*d_auto3.matches, &*d_direct3.matches);
        prop_assert_eq!(&*d_direct3.matches, &*direct3.matches);

        rt.compress("g", CompressionMethod::Bisimulation).unwrap();
        let d_comp = rt.query("g", &p, None, Route::Compressed).unwrap();
        prop_assert_eq!(&*d_comp.matches, &*d_direct3.matches);

        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_rankings_equal_fresh_ranking(
        initial in proptest::collection::vec((0..RANK_NODES, 0..RANK_NODES), 150..600),
        updates in proptest::collection::vec(update_strategy(RANK_NODES), 1..40),
        kind in 0u8..3,
        b1 in 1u32..4,
        b2 in 1u32..4,
    ) {
        let g = graph_with_edges(RANK_NODES, &initial);
        let p = pattern_for(kind, b1, b2);
        // answered first by its registered route, then by the cache
        let registered = pattern_for((kind + 1) % 3, b2, b1);

        let engine = ExpFinder::default();
        let h = engine.add_graph("g", g.clone()).unwrap();
        engine.register_query(&h, "r", registered.clone()).unwrap();
        let dir = tmpdir("rank");
        let rt = DurableExpFinder::open(&dir, runtime_config()).unwrap();
        rt.add_graph("g", g).unwrap();
        rt.register_query("g", "r", registered.clone()).unwrap();

        for phase in 0..2 {
            if phase == 1 {
                engine.apply_updates(&h, &updates).unwrap();
                rt.apply_updates("g", &updates).unwrap();
            }
            for q in [&p, &registered] {
                // twice through: the second pass is served from the
                // longest list the first pass stored
                for k in TOP_KS.into_iter().chain(TOP_KS) {
                    let mut b = engine.query(&h).pattern(q.clone()).prefer(Route::Auto);
                    if let Some(k) = k {
                        b = b.top_k(k);
                    }
                    let resp = b.run().unwrap();
                    let (version, want) = engine.read_graph(&h, |g| fresh_top_k(g, q, k)).unwrap();
                    prop_assert_eq!(resp.graph_version, version);
                    prop_assert_eq!(bits(&resp.experts), want, "engine, top_k {:?}", k);

                    let resp = rt.query("g", q, k, Route::Auto).unwrap();
                    let (version, want) = rt.read_graph("g", |g| fresh_top_k(g, q, k)).unwrap();
                    prop_assert_eq!(resp.graph_version, version);
                    prop_assert_eq!(bits(&resp.experts), want, "runtime, top_k {:?}", k);
                }
            }
        }
        // top_k 1 right after top_k 3 is always a stored prefix
        prop_assert!(engine.cache_stats().ranked_hits > 0);
        prop_assert!(rt.cache_stats().ranked_hits > 0);

        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
