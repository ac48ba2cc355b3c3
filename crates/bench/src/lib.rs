//! Shared workloads and measurement helpers for the experiment harness
//! and the criterion benches.
//!
//! Every workload is a deterministic function of a seed so the
//! experiments in EXPERIMENTS.md are reproducible bit-for-bit.

pub mod batchbench;
pub mod matchbench;
pub mod planbench;
pub mod servebench;

use expfinder_core::{evaluate, EvalRequest, EvalStats, MatchRelation, PlanMode, Semantics};
use expfinder_graph::generate::{
    collaboration, erdos_renyi, hierarchy, preferential_attachment, twitter_like, CollabConfig,
    HierarchyConfig, NodeSpec, TwitterConfig,
};
use expfinder_graph::DiGraph;
use expfinder_pattern::{Bound, Pattern, PatternBuilder, Predicate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Default seed for all workloads.
pub const SEED: u64 = 20130408; // ICDE 2013, Brisbane, April 8

/// A collaboration network with roughly `people` nodes.
pub fn collab_graph(people: usize, seed: u64) -> DiGraph {
    let team_size = 8;
    let cfg = CollabConfig {
        teams: (people / team_size).max(1),
        team_size,
        ..CollabConfig::default()
    };
    collaboration(&mut StdRng::seed_from_u64(seed), &cfg)
}

/// A Twitter-like follower graph with `n` accounts.
pub fn twitter_graph(n: usize, seed: u64) -> DiGraph {
    let cfg = TwitterConfig {
        n,
        avg_out: 4,
        hub_fraction: 0.005,
        buckets: 4,
    };
    twitter_like(&mut StdRng::seed_from_u64(seed), &cfg)
}

/// An Erdős–Rényi graph with `n` nodes and average degree `deg` over the
/// expert-field alphabet.
pub fn er_graph(n: usize, deg: usize, seed: u64) -> DiGraph {
    erdos_renyi(
        &mut StdRng::seed_from_u64(seed),
        n,
        n * deg,
        &NodeSpec::expert_fields(),
    )
}

/// An organizational hierarchy with roughly `n` nodes.
pub fn hierarchy_graph(n: usize, seed: u64) -> DiGraph {
    // branching 4: depth chosen so 4^depth ≈ n
    let mut depth = 2usize;
    while 4usize.pow(depth as u32) < n && depth < 10 {
        depth += 1;
    }
    hierarchy(
        &mut StdRng::seed_from_u64(seed),
        &HierarchyConfig {
            depth,
            branching: 4,
            buckets: 2,
        },
    )
}

/// A preferential-attachment graph with `n` nodes.
pub fn pa_graph(n: usize, seed: u64) -> DiGraph {
    preferential_attachment(
        &mut StdRng::seed_from_u64(seed),
        n,
        3,
        &NodeSpec::expert_fields(),
    )
}

/// The paper's Fig. 1 team-hiring pattern (bounded).
pub fn team_pattern() -> Pattern {
    expfinder_pattern::fixtures::fig1_pattern()
}

/// A 4-node bounded pattern tuned for the collaboration generator: leads
/// within reach of developers, testers and QA.
pub fn collab_pattern() -> Pattern {
    PatternBuilder::new()
        .node_output(
            "sa",
            Predicate::label("SA").and(Predicate::attr_ge("experience", 3)),
        )
        .node("sd", Predicate::label("SD"))
        .node("st", Predicate::label("ST"))
        .node("qa", Predicate::label("QA"))
        .edge("sa", "sd", Bound::hops(2))
        .edge("sa", "st", Bound::hops(3))
        .edge("sd", "qa", Bound::hops(2))
        .build()
        .expect("valid")
}

/// The 1-hop (plain simulation) version of [`collab_pattern`].
pub fn collab_pattern_sim() -> Pattern {
    collab_pattern().as_simulation()
}

/// A pattern for the Twitter-like generator.
pub fn twitter_pattern() -> Pattern {
    PatternBuilder::new()
        .node_output("media", Predicate::label("media"))
        .node(
            "fan",
            Predicate::label("user").and(Predicate::attr_ge("experience", 2)),
        )
        .node("celebrity", Predicate::label("celebrity"))
        .edge("fan", "media", Bound::hops(2))
        .edge("fan", "celebrity", Bound::hops(2))
        .build()
        .expect("valid")
}

/// Sequential bounded simulation under an explicit plan mode (ablation
/// E12).
pub fn bsim_with_plan(g: &DiGraph, q: &Pattern, plan: PlanMode) -> (MatchRelation, EvalStats) {
    let req = EvalRequest {
        plan,
        ..EvalRequest::new(Semantics::Bounded)
    };
    evaluate(g, q, req).expect("bounded simulation accepts every pattern")
}

/// Build a JSON object from `(key, value)` pairs — the one helper every
/// benchmark-document writer in this crate shares.
pub fn json_obj(fields: Vec<(&str, expfinder_graph::json::Value)>) -> expfinder_graph::json::Value {
    expfinder_graph::json::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<std::collections::BTreeMap<_, _>>(),
    )
}

/// Wall-clock one call.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Median wall-clock over `n` runs (n ≥ 1).
pub fn median_of<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..n.max(1)).map(|_| time(&mut f).1).collect();
    times.sort();
    times[times.len() / 2]
}

/// Format a duration in adaptive units for table output.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_core::bounded_simulation;
    use expfinder_graph::GraphView;

    #[test]
    fn workloads_are_deterministic() {
        let a = collab_graph(400, 1);
        let b = collab_graph(400, 1);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn patterns_match_on_their_generators() {
        let g = collab_graph(800, SEED);
        let m = bounded_simulation(&g, &collab_pattern()).unwrap();
        assert!(!m.is_empty(), "collab pattern finds teams");

        let t = twitter_graph(2000, SEED);
        let m = bounded_simulation(&t, &twitter_pattern()).unwrap();
        assert!(!m.is_empty(), "twitter pattern finds influencers");
    }

    #[test]
    fn fmt_dur_units() {
        assert_eq!(fmt_dur(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_dur(Duration::from_micros(2500)), "2.50ms");
        assert_eq!(fmt_dur(Duration::from_millis(3200)), "3.20s");
    }

    #[test]
    fn median_is_stable() {
        let d = median_of(3, || std::thread::sleep(Duration::from_micros(50)));
        assert!(d >= Duration::from_micros(40));
    }
}
