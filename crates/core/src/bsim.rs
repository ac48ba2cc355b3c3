//! Bounded simulation — the paper's core matching semantics.
//!
//! `M(Q,G)` is the maximum relation such that each match `(u, v)` satisfies
//! `u`'s search condition and, for every pattern edge `(u, u')` with bound
//! `b`, some match `v'` of `u'` is reachable from `v` by a *non-empty* path
//! of length ≤ `b` (paper §II "Bounded simulation", after \[Fan et al.,
//! PVLDB 2010\]).
//!
//! ## Algorithm
//!
//! Greatest-fixpoint refinement over candidate sets:
//!
//! 1. `sim(u)` ← nodes satisfying `u`'s predicate;
//! 2. for a pattern edge `e = (u, u')`: let `R_e` = every node with a
//!    non-empty ≤`b`-path to some member of `sim(u')` — one multi-source
//!    reverse bounded BFS over the data graph, `O(|G|)`;
//!    then `sim(u) ← sim(u) ∩ R_e`;
//! 3. when `sim(u)` shrinks, re-queue the edges *entering* `u` (their
//!    source sets may now be too large); repeat until stable.
//!
//! Each shrink event re-queues at most `deg_Q` edges and each refresh is
//! linear in `|G|`, giving the cubic worst case the paper quotes, but in
//! practice a handful of refreshes per edge. The refresh *order* is the
//! "query plan": [`PlanMode::Selective`] starts from the most selective
//! target sets, which empirically halves refresh counts (ablation E12).
//!
//! The fixpoint runs on the delta-aware loop of [`crate::fixpoint`]
//! (word-parallel BFS, refresh memoization, dirty-counter skipping,
//! reusable [`EvalScratch`]); [`crate::evaluate`] also runs it in
//! parallel. The original queue-based loop is kept as
//! [`crate::naive::bounded_fixpoint_queue`], the correctness oracle and
//! benchmark baseline; both compute the same greatest fixpoint
//! bit-for-bit (property-tested).

use crate::eval::{constraints, evaluate_sequential, EvalRequest, EvalStats, PlanMode, Semantics};
use crate::fixpoint::{refine_constraints, Cancelled, EvalScratch};
use crate::matchrel::MatchRelation;
use expfinder_graph::{BitSet, CancelToken, GraphView};
use expfinder_pattern::Pattern;

/// Compute the maximum bounded simulation `M(Q,G)` with default options.
pub fn bounded_simulation<G: GraphView>(
    g: &G,
    q: &Pattern,
) -> Result<MatchRelation, crate::MatchError> {
    evaluate_sequential(g, q, EvalRequest::new(Semantics::Bounded)).map(|(m, _)| m)
}

/// The raw refinement fixpoint from caller-supplied starting sets — the
/// path the incremental module builds its state through. With
/// `early_exit` the computation stops as soon as any pattern node has no
/// matches and every set is cleared (paper semantics: M(Q,G) = ∅);
/// without it, the exact raw GFP is computed — the incremental module
/// persists that as its state. A fired `cancel` token aborts with
/// [`Cancelled`]; the partially refined sets are dropped and nothing
/// durable was mutated.
pub fn bounded_fixpoint<G: GraphView>(
    g: &G,
    q: &Pattern,
    mut sim: Vec<BitSet>,
    early_exit: bool,
    scratch: &mut EvalScratch,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<BitSet>, EvalStats), Cancelled> {
    let (died, stats) = refine_constraints(
        g,
        q.node_count(),
        &constraints(q, Semantics::Bounded),
        &mut sim,
        PlanMode::Selective,
        early_exit,
        scratch,
        None,
        cancel,
    )?;
    if died {
        // some pattern node became unmatchable: M(Q,G) = ∅
        for s in &mut sim {
            s.clear();
        }
    }
    Ok((sim, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::bounded_fixpoint_queue;
    use crate::{candidate_sets, evaluate};
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::{DiGraph, ReachProvider};
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};

    /// Sequential bounded simulation through [`evaluate`].
    fn bsim<G: GraphView + Sync>(
        g: &G,
        q: &Pattern,
        plan: PlanMode,
        scratch: &mut EvalScratch,
        index: Option<&dyn ReachProvider>,
    ) -> (MatchRelation, EvalStats) {
        let req = EvalRequest {
            plan,
            scratch: Some(scratch),
            index,
            ..EvalRequest::new(Semantics::Bounded)
        };
        evaluate(g, q, req).unwrap()
    }

    /// The queue oracle with paper semantics.
    fn queue_oracle<G: GraphView>(g: &G, q: &Pattern) -> (MatchRelation, EvalStats) {
        let (sets, stats) =
            bounded_fixpoint_queue(g, q, candidate_sets(g, q), PlanMode::Selective, true);
        (MatchRelation::from_sets(sets, g.node_count()), stats)
    }

    #[test]
    fn paper_example1_match_set() {
        // Example 1: M(Q,G) = {(SA,Bob),(SA,Walt),(BA,Jean),(SD,Mat),
        //                      (SD,Dan),(SD,Pat),(ST,Eva)}
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let sa = q.node_id("sa").unwrap();
        let sd = q.node_id("sd").unwrap();
        let ba = q.node_id("ba").unwrap();
        let st = q.node_id("st").unwrap();
        assert_eq!(m.matches_vec(sa), {
            let mut v = vec![f.bob, f.walt];
            v.sort();
            v
        });
        assert_eq!(m.matches_vec(ba), vec![f.jean]);
        assert_eq!(m.matches_vec(st), vec![f.eva]);
        let mut sd_expected = vec![f.mat, f.dan, f.pat];
        sd_expected.sort();
        assert_eq!(m.matches_vec(sd), sd_expected);
        assert_eq!(m.total_pairs(), 7);
    }

    #[test]
    fn paper_example3_after_e1_insertion() {
        let mut f = collaboration_fig1();
        let q = fig1_pattern();
        let before = bounded_simulation(&f.graph, &q).unwrap();
        f.graph.add_edge(f.e1.0, f.e1.1);
        let after = bounded_simulation(&f.graph, &q).unwrap();
        let delta = before.diff(&after);
        let sd = q.node_id("sd").unwrap();
        assert_eq!(delta, vec![(sd, f.fred, true)], "ΔM = {{(SD, Fred)}}");
    }

    #[test]
    fn bound_one_equals_simulation() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..25 {
            let g = erdos_renyi(&mut rng, 35, 150, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Tree, 4, spec.labels.clone());
            cfg.bound_range = (1, 1);
            let q = random_pattern(&mut rng, &cfg);
            let b = bounded_simulation(&g, &q).unwrap();
            let s = crate::sim::graph_simulation(&g, &q).unwrap();
            assert_eq!(b, s, "trial {trial}: bsim(bounds=1) == simulation");
        }
    }

    #[test]
    fn agrees_with_naive_reference() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let spec = NodeSpec::uniform(3, 4);
        for shape in [PatternShape::Chain, PatternShape::Cycle, PatternShape::Dag] {
            for trial in 0..12 {
                let g = erdos_renyi(&mut rng, 30, 120, &spec);
                let mut cfg = PatternConfig::new(shape, 4, spec.labels.clone());
                cfg.bound_range = (1, 3);
                cfg.extra_edges = 1;
                let q = random_pattern(&mut rng, &cfg);
                let fast = bounded_simulation(&g, &q).unwrap();
                let slow = crate::naive::naive_bounded_simulation(&g, &q);
                assert_eq!(fast, slow, "{shape:?} trial {trial} diverged");
            }
        }
    }

    #[test]
    fn unbounded_edge_is_reachability() {
        // chain A → x → x → B: bound * matches, bound 2 does not
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let x1 = g.add_node("X", []);
        let x2 = g.add_node("X", []);
        let b = g.add_node("B", []);
        g.add_edge(a, x1);
        g.add_edge(x1, x2);
        g.add_edge(x2, b);

        let star = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::Unbounded)
            .build()
            .unwrap();
        assert!(!bounded_simulation(&g, &star).unwrap().is_empty());

        let two = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        assert!(bounded_simulation(&g, &two).unwrap().is_empty());

        let three = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(3))
            .build()
            .unwrap();
        assert!(!bounded_simulation(&g, &three).unwrap().is_empty());
    }

    #[test]
    fn nonempty_path_required_for_self_support() {
        // single node labelled A with *no* self-loop; pattern a →(≤2) a'
        // where both ask for label A: must fail (path must be non-empty).
        let mut g = DiGraph::new();
        let _a = g.add_node("A", []);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("a2", Predicate::label("A"))
            .edge("a", "a2", Bound::hops(2))
            .build()
            .unwrap();
        assert!(bounded_simulation(&g, &q).unwrap().is_empty());

        // with a self-loop it succeeds
        let mut g2 = DiGraph::new();
        let a = g2.add_node("A", []);
        g2.add_edge(a, a);
        assert!(!bounded_simulation(&g2, &q).unwrap().is_empty());
    }

    #[test]
    fn cyclic_pattern_mutual_support() {
        // data cycle 0(A) → 1(B) → 0; pattern cycle a ⇄ b with bounds 2
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        g.add_edge(b, a);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::hops(2))
            .edge("b", "a", Bound::hops(2))
            .build()
            .unwrap();
        let m = bounded_simulation(&g, &q).unwrap();
        assert_eq!(m.total_pairs(), 2);
    }

    #[test]
    fn plan_modes_agree_on_result() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let spec = NodeSpec::uniform(4, 5);
        let mut scratch = EvalScratch::new();
        for trial in 0..10 {
            let g = erdos_renyi(&mut rng, 60, 300, &spec);
            let cfg = PatternConfig::new(PatternShape::Dag, 5, spec.labels.clone());
            let q = random_pattern(&mut rng, &cfg);
            let (m1, _) = bsim(&g, &q, PlanMode::Selective, &mut scratch, None);
            let (m2, _) = bsim(&g, &q, PlanMode::DeclarationOrder, &mut scratch, None);
            assert_eq!(m1, m2, "trial {trial}: plans change cost, never results");
        }
    }

    #[test]
    fn stats_are_populated() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let mut scratch = EvalScratch::new();
        let (_, stats) = bsim(&f.graph, &q, PlanMode::Selective, &mut scratch, None);
        assert!(stats.refreshes >= q.edge_count());
        assert!(stats.bfs_nodes_visited > 0);
        let (_, old) = queue_oracle(&f.graph, &q);
        assert!(old.refreshes >= q.edge_count());
        assert!(old.bfs_nodes_visited >= stats.bfs_nodes_visited);
    }

    #[test]
    fn engines_agree_and_scratch_is_reusable() {
        use expfinder_graph::generate::{erdos_renyi, NodeSpec};
        use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(29);
        let spec = NodeSpec::uniform(3, 4);
        let mut scratch = EvalScratch::new();
        for trial in 0..20 {
            // varying graph sizes exercise cache resets between queries
            let g = erdos_renyi(&mut rng, 20 + trial * 3, 100 + trial * 10, &spec);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            cfg.bound_range = (1, 3);
            cfg.extra_edges = 2;
            let q = random_pattern(&mut rng, &cfg);
            let (old, _) = queue_oracle(&g, &q);
            let (new, _) = bsim(&g, &q, PlanMode::Selective, &mut scratch, None);
            assert_eq!(old, new, "trial {trial}: engines diverged");
        }
    }

    #[test]
    fn indexed_evaluation_hits_on_class_seeded_constraints() {
        use expfinder_graph::{CsrGraph, ReachIndex};
        let f = collaboration_fig1();
        let csr = CsrGraph::snapshot(&f.graph);
        // pure-label star: both constraints shrink `sa` and are seeded
        // from untouched leaf classes, so both first refreshes are
        // class-seeded (a *chain* would shrink the interior seed set
        // before its upstream edge refreshes — that one must miss)
        let q = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .node("st", Predicate::label("ST"))
            .edge("sa", "sd", Bound::hops(2))
            .edge("sa", "st", Bound::hops(2))
            .build()
            .unwrap();
        let mut scratch = EvalScratch::new();
        let plan = PlanMode::Selective;
        let (plain, base) = bsim(&csr, &q, plan, &mut scratch, None);
        assert_eq!(base.index_hits, 0, "no provider, no hits");

        let idx = ReachIndex::new(csr.version());
        let bound = idx.bind(&csr);
        let (cold, s1) = bsim(&csr, &q, plan, &mut scratch, Some(&bound));
        assert_eq!(cold, plain, "index never changes results");
        assert_eq!(s1.index_hits, 2, "both first refreshes are class-seeded");
        assert_eq!(s1.index_misses, 0);
        assert!(idx.len() >= 2, "entries memoized for the next query");

        // warm query: entries are reused, and the class-seeded traversal
        // work disappears entirely
        let (warm, s2) = bsim(&csr, &q, plan, &mut scratch, Some(&bound));
        assert_eq!(warm, plain);
        assert_eq!(s2.index_hits, 2);
        assert!(s2.bfs_nodes_visited < base.bfs_nodes_visited);

        // a residual-predicate seed is a miss, never a wrong answer
        let q2 = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .node(
                "sd",
                Predicate::label("SD").and(Predicate::attr_ge("experience", 0)),
            )
            .edge("sa", "sd", Bound::hops(2))
            .build()
            .unwrap();
        let (with_idx, s3) = bsim(&csr, &q2, plan, &mut scratch, Some(&bound));
        let (without, _) = bsim(&csr, &q2, plan, &mut scratch, None);
        assert_eq!(with_idx, without);
        assert_eq!(
            s3.index_misses, 1,
            "attr residual disqualifies the seed class"
        );
    }

    #[test]
    fn empty_candidate_set_fails_fast() {
        let f = collaboration_fig1();
        let q = PatternBuilder::new()
            .node("x", Predicate::label("CEO"))
            .node("y", Predicate::label("SA"))
            .edge("y", "x", Bound::hops(2))
            .build()
            .unwrap();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        assert!(m.is_empty());
    }
}
