//! Expected answers, computed in-process with `expfinder_core` on the
//! same seeded graph (replayed to the answer's version), and the checks
//! that compare them with what the server returned. All of it runs
//! outside the timed phases.

use expfinder_graph::json::Value;
use expfinder_graph::GraphView;

/// What a correct `/query` (or batch slot) answer contains.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub pairs: i64,
    /// `(node, rank)` of the top-K experts, best first; `None` when the
    /// request asked for no ranking.
    pub experts: Option<Vec<(i64, f64)>>,
}

/// Bounded simulation plus (optionally) top-K ranking of one pattern.
pub fn expect<G: GraphView + Sync>(g: &G, dsl: &str, top_k: Option<usize>) -> Expected {
    let p = expfinder_pattern::parser::parse(dsl).expect("generated DSL parses");
    let m = expfinder_core::bounded_simulation(g, &p).expect("pattern matches the graph");
    let experts = top_k.map(|k| {
        expfinder_core::top_k(g, &p, &m, k)
            .expect("output node present")
            .into_iter()
            .map(|x| (x.node.0 as i64, x.rank))
            .collect()
    });
    Expected {
        pairs: m.total_pairs() as i64,
        experts,
    }
}

/// [`expect`] over many patterns on up to two threads (the load
/// generator's thread budget).
pub fn expect_all<G: GraphView + Sync>(
    g: &G,
    dsls: &[&str],
    top_k: Option<usize>,
) -> Vec<Expected> {
    let half = dsls.len().div_ceil(2);
    std::thread::scope(|s| {
        let (a, b) = dsls.split_at(half);
        let h = s.spawn(move || b.iter().map(|d| expect(g, d, top_k)).collect::<Vec<_>>());
        let mut out: Vec<Expected> = a.iter().map(|d| expect(g, d, top_k)).collect();
        out.extend(h.join().expect("verifier thread"));
        out
    })
}

/// Does one query response document match the expectation?
pub fn matches(doc: &Value, want: &Expected) -> bool {
    let pairs = doc.field("pairs").and_then(|v| v.as_i64()).ok();
    if pairs != Some(want.pairs) {
        return false;
    }
    let Some(want_experts) = &want.experts else {
        return true;
    };
    let Ok(got) = doc.field("experts").and_then(|v| v.as_array()) else {
        return false;
    };
    got.len() == want_experts.len()
        && got.iter().zip(want_experts).all(|(x, &(node, rank))| {
            let n = x.field("node").and_then(|v| v.as_i64()).ok();
            let r = match x.field("rank") {
                Ok(Value::Str(s)) if s == "inf" => Some(f64::INFINITY),
                Ok(v) => v.as_f64().ok(),
                Err(_) => None,
            };
            n == Some(node) && r.is_some_and(|r| r == rank || (r - rank).abs() <= 1e-9 * rank.abs())
        })
}

/// The `graph_version` a response reports.
pub fn version_of(doc: &Value) -> Option<u64> {
    doc.field("graph_version")
        .and_then(|v| v.as_i64())
        .ok()
        .map(|v| v as u64)
}
