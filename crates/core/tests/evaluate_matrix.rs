//! Every `evaluate` request must be invisible except in its work counters.
//!
//! One property matrix over the request: each semantics (simulation,
//! bounded, dual), each execution mode (sequential, parallel with one
//! worker, parallel with three), each plan mode, with and without a bound
//! [`ReachIndex`], on the live `DiGraph` (where the provider is inert — no
//! label classes) and on its `CsrGraph` snapshot (where class-seeded first
//! refreshes are served from memoized entries). One `EvalScratch` is
//! reused across every case, so stale caches between evaluations would be
//! caught here.
//!
//! The oracles are independent: `naive` recomputation for simulation and
//! bounded simulation, and the queue-based reference loop for dual
//! simulation (which has no naive version). The raw no-early-exit
//! fixpoint the incremental module persists is checked against the queue
//! raw fixpoint, and a stream of updates forces the per-version index to
//! be dropped and rebuilt between queries — the engine's invalidation
//! rule.
//!
//! Pattern nodes alternate between *pure-label* predicates (index
//! eligible: the candidate set is the label class itself) and
//! label+attribute predicates (ineligible: the hook must fall back to
//! BFS), so both sides of the eligibility check are exercised.

use expfinder_core::naive::{
    bounded_fixpoint_queue, dual_fixpoint_queue, naive_bounded_simulation, naive_simulation,
};
use expfinder_core::{
    bounded_fixpoint, candidate_sets, evaluate, EvalRequest, EvalScratch, Exec, MatchError,
    MatchRelation, PlanMode, ReachIndex, ReachProvider, Semantics,
};
use expfinder_graph::{AttrValue, CsrGraph, DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::{Bound, PNodeId, Pattern, PatternEdge, PatternNode, Predicate};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// generators (same compact raw encodings as the workspace-level tests)
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct RawGraph {
    labels: Vec<u8>,
    exps: Vec<u8>,
    edges: Vec<(u8, u8)>,
}

fn raw_graph(max_nodes: usize) -> impl Strategy<Value = RawGraph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u8..3, n);
        let exps = proptest::collection::vec(0u8..3, n);
        let edges = proptest::collection::vec((0u8..n as u8, 0u8..n as u8), 0..n * 3);
        (labels, exps, edges).prop_map(|(labels, exps, edges)| RawGraph {
            labels,
            exps,
            edges,
        })
    })
}

fn build_graph(raw: &RawGraph) -> DiGraph {
    let mut g = DiGraph::new();
    for (l, e) in raw.labels.iter().zip(&raw.exps) {
        g.add_node(
            &format!("L{l}"),
            [("experience", AttrValue::Int(*e as i64))],
        );
    }
    for &(a, b) in &raw.edges {
        g.add_edge(NodeId(a as u32), NodeId(b as u32));
    }
    g
}

#[derive(Clone, Debug)]
struct RawPattern {
    labels: Vec<u8>,
    /// Threshold 0 ⇒ a pure-label predicate (index-eligible seed class);
    /// otherwise label ∧ experience ≥ t (ineligible).
    thresholds: Vec<u8>,
    edges: Vec<(u8, u8, u8)>, // from, to, bound (0 ⇒ unbounded)
}

fn raw_pattern() -> impl Strategy<Value = RawPattern> {
    (2usize..=4).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u8..3, n);
        let thresholds = proptest::collection::vec(0u8..3, n);
        let edges = proptest::collection::vec((0u8..n as u8, 0u8..n as u8, 0u8..4), 1..n * 2);
        (labels, thresholds, edges).prop_map(|(labels, thresholds, edges)| RawPattern {
            labels,
            thresholds,
            edges,
        })
    })
}

fn build_pattern(raw: &RawPattern, force_bound_one: bool) -> Pattern {
    let nodes: Vec<PatternNode> = raw
        .labels
        .iter()
        .zip(&raw.thresholds)
        .enumerate()
        .map(|(i, (l, t))| PatternNode {
            name: format!("v{i}"),
            predicate: if *t == 0 {
                Predicate::label(format!("L{l}"))
            } else {
                Predicate::label(format!("L{l}")).and(Predicate::attr_ge("experience", *t as i64))
            },
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for &(f, t, b) in &raw.edges {
        if f == t || !seen.insert((f, t)) {
            continue;
        }
        let bound = if force_bound_one {
            Bound::ONE
        } else if b == 0 {
            Bound::Unbounded
        } else {
            Bound::hops(b as u32)
        };
        edges.push(PatternEdge {
            from: PNodeId(f as u32),
            to: PNodeId(t as u32),
            bound,
        });
    }
    Pattern::from_parts(nodes, edges, Some(PNodeId(0))).expect("valid pattern")
}

// ---------------------------------------------------------------------
// the matrix
// ---------------------------------------------------------------------

const SEMANTICS: [Semantics; 3] = [Semantics::Simulation, Semantics::Bounded, Semantics::Dual];
const EXECS: [Exec; 3] = [Exec::Sequential, Exec::Parallel(1), Exec::Parallel(3)];
const PLANS: [PlanMode; 2] = [PlanMode::Selective, PlanMode::DeclarationOrder];

/// The independent oracle for one semantics; `None` when the semantics
/// rejects the pattern.
fn oracle(g: &DiGraph, q: &Pattern, semantics: Semantics) -> Option<MatchRelation> {
    match semantics {
        Semantics::Simulation => q.is_simulation().then(|| naive_simulation(g, q)),
        Semantics::Bounded => Some(naive_bounded_simulation(g, q)),
        Semantics::Dual => Some(dual_fixpoint_queue(g, q).0),
    }
}

/// Run every request of the matrix on one view and check it against the
/// oracles. `index` is a provider bound to `view`.
fn check_view<G: GraphView + Sync>(
    view: &G,
    view_name: &str,
    q: &Pattern,
    oracles: &[Option<MatchRelation>; 3],
    index: &dyn ReachProvider,
    scratch: &mut EvalScratch,
) {
    let has_classes = view_name == "CsrGraph";
    for (semantics, expected) in SEMANTICS.into_iter().zip(oracles) {
        for exec in EXECS {
            for plan in PLANS {
                for indexed in [false, true] {
                    let req = EvalRequest {
                        semantics,
                        exec,
                        plan,
                        scratch: Some(&mut *scratch),
                        index: indexed.then_some(index),
                        cancel: None,
                    };
                    let case =
                        format!("{view_name} {semantics:?} {exec:?} {plan:?} index={indexed}");
                    let result = evaluate(view, q, req);
                    let Some(expected) = expected else {
                        prop_assert_eq!(
                            result.unwrap_err(),
                            MatchError::NotASimulationPattern,
                            "{}",
                            case
                        );
                        continue;
                    };
                    let (m, stats) = result.expect("no token, accepted pattern");
                    prop_assert_eq!(&m, expected, "{}", case);

                    // sequential simulation is the counter fixpoint: no
                    // refreshes, and the index is never consulted
                    let counter = exec == Exec::Sequential && semantics == Semantics::Simulation;
                    let constrained = q.edge_count() > 0;
                    prop_assert!(counter || !constrained || stats.refreshes >= 1, "{}", case);
                    let consulted = stats.index_hits + stats.index_misses > 0;
                    prop_assert_eq!(consulted, indexed && !counter && constrained, "{}", case);
                    if !has_classes {
                        prop_assert_eq!(stats.index_hits, 0, "no label classes: {}", case);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request in the matrix equals its oracle, on a bound-1 pattern
    /// (where all three semantics apply) and a general one (where
    /// simulation must be rejected), with one scratch reused throughout
    /// and each index shared across repeated queries (cold then warm).
    #[test]
    fn every_request_equals_its_oracle(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let csr = CsrGraph::snapshot(&g);
        let mut scratch = EvalScratch::new();
        let csr_idx = ReachIndex::new(csr.version());
        let live_idx = ReachIndex::new(g.version());
        for q in [build_pattern(&rp, true), build_pattern(&rp, false)] {
            let oracles = SEMANTICS.map(|s| oracle(&g, &q, s));
            check_view(&g, "DiGraph", &q, &oracles, &live_idx.bind(&g), &mut scratch);
            check_view(&csr, "CsrGraph", &q, &oracles, &csr_idx.bind(&csr), &mut scratch);
        }
        prop_assert_eq!(live_idx.len(), 0, "the live graph has no classes to memoize");
    }

    /// The raw fixpoint without early exit equals the queue raw fixpoint
    /// — the exact-GFP contract the incremental module persists — and
    /// with early exit it equals the queue loop's paper-semantics answer.
    #[test]
    fn raw_fixpoint_equals_queue(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let mut scratch = EvalScratch::new();
        for early_exit in [false, true] {
            let cand = candidate_sets(&g, &q);
            let (queue, _) =
                bounded_fixpoint_queue(&g, &q, cand.clone(), PlanMode::Selective, early_exit);
            let (frontier, _) = bounded_fixpoint(&g, &q, cand, early_exit, &mut scratch, None)
                .expect("no token");
            prop_assert_eq!(&frontier, &queue, "early_exit = {}", early_exit);
        }
    }

    /// A stream of interleaved updates and queries, with the per-version
    /// index dropped and rebuilt whenever the version moves. Every query
    /// must equal a fresh oracle evaluation of the *current* graph.
    #[test]
    fn update_sequence_forces_index_invalidation(
        rg in raw_graph(12),
        rp in raw_pattern(),
        updates in proptest::collection::vec((0u8..12, 0u8..12, 0u8..2), 1..10),
    ) {
        let mut g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let n = g.node_count() as u8;
        let mut scratch = EvalScratch::new();

        let mut csr = CsrGraph::snapshot(&g);
        let mut idx = ReachIndex::new(csr.version());
        for (a, b, insert) in updates {
            let (x, y) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            let up = if insert == 1 { EdgeUpdate::Insert(x, y) } else { EdgeUpdate::Delete(x, y) };
            g.apply(up);
            if csr.version() != g.version() {
                // version moved: rebuild snapshot + index (stale entries
                // must never be consulted — this is what the engine's
                // version-keyed cache slot enforces)
                csr = CsrGraph::snapshot(&g);
                idx = ReachIndex::new(csr.version());
            }
            let bound = idx.bind(&csr);
            let expected = naive_bounded_simulation(&g, &q);
            // cold, then warm on the same version
            for round in 0..2 {
                let req = EvalRequest {
                    scratch: Some(&mut scratch),
                    index: Some(&bound),
                    ..EvalRequest::new(Semantics::Bounded)
                };
                let (m, _) = evaluate(&csr, &q, req).expect("no token");
                prop_assert_eq!(&m, &expected, "version {} round {}", g.version(), round);
            }
        }
    }
}
