//! Seeded inputs: graphs, pattern pools, request streams and update
//! streams. Everything here is a pure function of the run seed, so the
//! same seed always yields the same bytes on the wire.

use expfinder_graph::generate::{
    collaboration, random_updates, twitter_like, CollabConfig, TwitterConfig,
};
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
use expfinder_pattern::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Name of the one graph every workload serves.
pub const GRAPH: &str = "bench";
/// Distinct `/query` patterns in the hot pool (fits the 64-entry cache).
pub const POOL: usize = 32;
/// Experts requested per `/query`.
pub const TOP_K: usize = 10;
/// Patterns per `/batch` request.
pub const BATCH: usize = 16;
/// Edge updates per `/updates` request.
pub const UPDATE_BATCH: usize = 8;
/// Share of inserts among generated edge updates.
pub const INSERT_RATIO: f64 = 0.6;
/// Standing queries registered in `update_mix`: the [`REGISTERED`] least
/// popular pool patterns (see [`registered`]).
pub const REGISTERED: usize = 4;

/// Pool indices of the registered queries, registered as `q<index>`.
/// The rarely read tail of the Zipf pool, so reads mostly take the
/// cache-or-evaluate path that every update invalidates, not the
/// maintained one.
pub fn registered() -> std::ops::Range<usize> {
    POOL - REGISTERED..POOL
}

const COLLAB_LABELS: [&str; 7] = ["SA", "SD", "BA", "ST", "QA", "PM", "GD"];

/// An independent generator per input kind, so adding draws to one
/// stream never shifts another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Collaboration network of about 6k people (750 teams of 8).
pub fn collab_graph(seed: u64) -> DiGraph {
    let cfg = CollabConfig {
        teams: 750,
        team_size: 8,
        ..CollabConfig::default()
    };
    collaboration(&mut rng(seed, 1), &cfg)
}

/// Twitter-like follower graph: 20k accounts, about 77k follow edges.
pub fn twitter_graph(seed: u64) -> DiGraph {
    let cfg = TwitterConfig {
        n: 20_000,
        avg_out: 4,
        hub_fraction: 0.005,
        buckets: 4,
    };
    twitter_like(&mut rng(seed, 2), &cfg)
}

/// The hot pool: [`POOL`] distinct team queries on the collaboration
/// graph, as DSL text. Each is a small tree (2–3 nodes, hop bounds 1–3)
/// whose output node asks for a senior member (experience ≥ 7), the
/// selective shape of a "top-10 experts for this team" request.
pub fn hot_pool(seed: u64) -> Vec<String> {
    let mut r = rng(seed, 3);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL);
    while pool.len() < POOL {
        let label = |r: &mut StdRng| COLLAB_LABELS[r.gen_range(0..COLLAB_LABELS.len())];
        let mut dsl = format!(
            "node v0* where label = \"{}\" and experience >= {};",
            label(&mut r),
            r.gen_range(7..10)
        );
        for j in 1..=r.gen_range(1..=2usize) {
            dsl.push_str(&format!(
                " node v{j} where label = \"{}\" and experience >= {}; edge v{} -> v{j} within {};",
                label(&mut r),
                r.gen_range(3..10),
                r.gen_range(0..j),
                r.gen_range(1..=3)
            ));
        }
        let p = expfinder_pattern::parser::parse(&dsl).expect("generated DSL parses");
        if seen.insert(p.fingerprint()) {
            pool.push(dsl);
        }
    }
    pool
}

/// `count` draws from a Zipf(1) distribution over `0..n` (rank 0 most
/// popular).
pub fn zipf_stream(r: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..count)
        .map(|_| {
            let x: f64 = r.gen_range(0.0..1.0);
            cdf.iter().position(|&c| x <= c).unwrap_or(n - 1)
        })
        .collect()
}

/// `batches` batches of [`BATCH`] random patterns for the twitter-like
/// graph: Star, Chain, Tree, Cycle and Dag shapes, 3–5 nodes, hop
/// bounds 1–3, every pattern distinct by fingerprint across the whole
/// stream (so the query cache never hits). Three of five label draws
/// are `user`, the only accounts with out-edges, so most patterns have
/// a non-trivial fixpoint to refine.
pub fn cold_batches(seed: u64, stream: u64, batches: usize) -> Vec<Vec<String>> {
    const SHAPES: [PatternShape; 5] = [
        PatternShape::Star,
        PatternShape::Chain,
        PatternShape::Tree,
        PatternShape::Cycle,
        PatternShape::Dag,
    ];
    let labels: Vec<String> = ["user", "user", "user", "celebrity", "media"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut r = rng(seed, stream);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(batches);
    let mut i = 0usize;
    while out.len() < batches {
        let mut batch = Vec::with_capacity(BATCH);
        while batch.len() < BATCH {
            let mut cfg =
                PatternConfig::new(SHAPES[i % SHAPES.len()], r.gen_range(3..=5), labels.clone());
            cfg.bound_range = (1, 3);
            cfg.max_experience = 4;
            i += 1;
            let p: Pattern = random_pattern(&mut r, &cfg);
            if seen.insert(p.fingerprint()) {
                batch.push(p.to_string());
            }
        }
        out.push(batch);
    }
    out
}

/// A stream of update batches valid in order against `g`, each of
/// [`UPDATE_BATCH`] edge updates ([`INSERT_RATIO`] inserts). Returns the
/// batches; `g` is left at the state after the last one.
pub fn update_stream(seed: u64, g: &mut DiGraph, batches: usize) -> Vec<Vec<EdgeUpdate>> {
    let mut r = rng(seed, 5);
    (0..batches)
        .map(|_| {
            let ups = random_updates(&mut r, g, UPDATE_BATCH, INSERT_RATIO);
            apply(g, &ups);
            ups
        })
        .collect()
}

/// Apply edge updates to a local replica.
pub fn apply(g: &mut DiGraph, ups: &[EdgeUpdate]) {
    for u in ups {
        match *u {
            EdgeUpdate::Insert(a, b) => {
                g.add_edge(a, b);
            }
            EdgeUpdate::Delete(a, b) => {
                g.remove_edge(a, b);
            }
        }
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// One `/query` slot: `route: auto`, optional `top_k`.
pub fn query_doc(dsl: &str, top_k: Option<usize>) -> Value {
    let mut fields = vec![
        ("pattern", Value::Str(dsl.to_owned())),
        ("route", Value::Str("auto".to_owned())),
    ];
    if let Some(k) = top_k {
        fields.push(("top_k", Value::Int(k as i64)));
    }
    obj(fields)
}

/// `/batch` body over DSL slots (no `top_k`: the batch measures
/// evaluation, not ranking).
pub fn batch_body(slots: &[String]) -> String {
    obj(vec![(
        "queries",
        Value::Array(slots.iter().map(|d| query_doc(d, None)).collect()),
    )])
    .to_string_compact()
}

/// `/updates` body.
pub fn updates_body(ups: &[EdgeUpdate]) -> String {
    obj(vec![(
        "updates",
        Value::Array(
            ups.iter()
                .map(|u| expfinder_server::wire::encode_update(*u))
                .collect(),
        ),
    )])
    .to_string_compact()
}

/// `/register` body.
pub fn register_body(name: &str, dsl: &str) -> String {
    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("pattern", Value::Str(dsl.to_owned())),
    ])
    .to_string_compact()
}
