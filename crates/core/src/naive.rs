//! Naive reference implementations for differential testing.
//!
//! These recompute the same greatest fixpoints with deliberately different,
//! simpler machinery (no counters, no shared BFS scratch, no worklists):
//! every pass re-checks every pair from scratch until nothing changes.
//! Slow — but independent, which is what a differential oracle needs.
//!
//! The module also keeps the queue-based fixpoint loops that predate the
//! frontier engine of [`crate::fixpoint`]: [`bounded_fixpoint_queue`] and
//! [`dual_fixpoint_queue`]. They are the oracle for dual simulation (which
//! has no naive version here), the reference the raw no-early-exit
//! fixpoint is checked against, and the `old` column of the
//! `bench_match` benchmark.

use crate::candidate_sets;
use crate::eval::{EvalStats, PlanMode};
use crate::matchrel::MatchRelation;
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::{BitSet, GraphView, NodeId};
use expfinder_pattern::{Bound, Pattern};
use std::collections::{HashMap, VecDeque};

/// Reference graph simulation by repeated full re-checks.
pub fn naive_simulation<G: GraphView>(g: &G, q: &Pattern) -> MatchRelation {
    let mut sim = candidate_sets(g, q);
    loop {
        let mut changed = false;
        for e in q.edges() {
            debug_assert!(e.bound.is_one());
            let mut doomed = Vec::new();
            for v in sim[e.from.index()].iter() {
                let ok = g
                    .out_neighbors(v)
                    .iter()
                    .any(|&w| sim[e.to.index()].contains(w));
                if !ok {
                    doomed.push(v);
                }
            }
            for v in doomed {
                sim[e.from.index()].remove(v);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    MatchRelation::from_sets(sim, g.node_count())
}

/// Is there a non-empty path from `v` to a member of `targets` of length
/// ≤ `depth`? Independent BFS with its own queue/visited map.
fn can_reach_within<G: GraphView>(
    g: &G,
    v: NodeId,
    targets: &expfinder_graph::BitSet,
    depth: u32,
) -> bool {
    if depth == 0 {
        return false;
    }
    let mut dist: HashMap<NodeId, u32> = HashMap::new();
    let mut queue = VecDeque::new();
    // start from v's successors at distance 1 so v itself needs a real path
    for &w in g.out_neighbors(v) {
        if targets.contains(w) {
            return true;
        }
        if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
            e.insert(1);
            queue.push_back(w);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        if d >= depth {
            continue;
        }
        for &w in g.out_neighbors(u) {
            if targets.contains(w) {
                return true;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(d + 1);
                queue.push_back(w);
            }
        }
    }
    false
}

/// Reference bounded simulation by repeated full re-checks with per-node
/// forward BFS.
pub fn naive_bounded_simulation<G: GraphView>(g: &G, q: &Pattern) -> MatchRelation {
    let mut sim = candidate_sets(g, q);
    loop {
        let mut changed = false;
        for e in q.edges() {
            let depth = match e.bound {
                Bound::Hops(k) => k,
                Bound::Unbounded => u32::MAX,
            };
            let mut doomed = Vec::new();
            for v in sim[e.from.index()].iter() {
                if !can_reach_within(g, v, &sim[e.to.index()], depth) {
                    doomed.push(v);
                }
            }
            for v in doomed {
                sim[e.from.index()].remove(v);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    MatchRelation::from_sets(sim, g.node_count())
}

/// The original queue-based bounded-simulation fixpoint from starting
/// sets `sim`, with the same `early_exit` contract as
/// [`crate::bsim::bounded_fixpoint`]. Edges start in `plan` order and
/// re-queue whenever their target set shrinks.
pub fn bounded_fixpoint_queue<G: GraphView>(
    g: &G,
    q: &Pattern,
    mut sim: Vec<BitSet>,
    plan: PlanMode,
    early_exit: bool,
) -> (Vec<BitSet>, EvalStats) {
    let n = g.node_count();
    let ne = q.edge_count();
    let mut stats = EvalStats::default();

    if ne == 0 {
        return (sim, stats);
    }

    // initial processing order = the "query plan"
    let mut order: Vec<usize> = (0..ne).collect();
    if plan == PlanMode::Selective {
        order.sort_by_key(|&ei| sim[q.edges()[ei].to.index()].count());
    }

    let mut in_queue = vec![true; ne];
    let mut queue: std::collections::VecDeque<usize> = order.into_iter().collect();

    let mut scratch = BfsScratch::new();
    let mut reach = BitSet::new(n);

    while let Some(ei) = queue.pop_front() {
        in_queue[ei] = false;
        let e = &q.edges()[ei];
        let (u, t, depth) = (e.from, e.to, e.bound.depth());

        stats.refreshes += 1;
        stats.bfs_nodes_visited +=
            scratch.multi_source_within(g, &sim[t.index()], depth, Direction::Backward, &mut reach);

        let before = sim[u.index()].count();
        sim[u.index()].intersect_with(&reach);
        let after = sim[u.index()].count();

        if after < before {
            stats.removals += before - after;
            if after == 0 && early_exit {
                // some pattern node became unmatchable: M(Q,G) = ∅
                for s in &mut sim {
                    s.clear();
                }
                return (sim, stats);
            }
            // sim(u) shrank: every edge whose *target* is u must re-check
            for &in_ei in q.in_edge_indices(u) {
                let in_ei = in_ei as usize;
                if !in_queue[in_ei] {
                    in_queue[in_ei] = true;
                    queue.push_back(in_ei);
                }
            }
        }
    }

    (sim, stats)
}

/// The original queue-based bidirectional fixpoint: the maximum bounded
/// dual simulation relation, with paper semantics.
pub fn dual_fixpoint_queue<G: GraphView>(g: &G, q: &Pattern) -> (MatchRelation, EvalStats) {
    let n = g.node_count();
    let ne = q.edge_count();
    let mut sim = candidate_sets(g, q);
    let mut stats = EvalStats::default();
    if ne == 0 {
        return (MatchRelation::from_sets(sim, n), stats);
    }

    // constraint ids: 2*e = forward side of edge e, 2*e+1 = backward side
    let total = ne * 2;
    let mut in_queue = vec![true; total];
    let mut queue: std::collections::VecDeque<usize> = (0..total).collect();

    let mut scratch = BfsScratch::new();
    let mut reach = BitSet::new(n);

    while let Some(cid) = queue.pop_front() {
        in_queue[cid] = false;
        let e = &q.edges()[cid / 2];
        let forward = cid % 2 == 0;
        let depth = e.bound.depth();

        // which set shrinks, and from which seeds reach is computed
        let (constrained, seeds, dir) = if forward {
            (e.from, e.to, Direction::Backward)
        } else {
            (e.to, e.from, Direction::Forward)
        };

        stats.refreshes += 1;
        stats.bfs_nodes_visited +=
            scratch.multi_source_within(g, &sim[seeds.index()], depth, dir, &mut reach);
        let before = sim[constrained.index()].count();
        sim[constrained.index()].intersect_with(&reach);
        let after = sim[constrained.index()].count();
        if after == before {
            continue;
        }
        stats.removals += before - after;
        if sim[constrained.index()].is_empty() {
            return (MatchRelation::empty(q, n), stats);
        }
        // sim(constrained) shrank: every constraint that *reads* it must
        // re-check — forward constraints of edges entering it, backward
        // constraints of edges leaving it.
        for &ei in q.in_edge_indices(constrained) {
            let c = (ei as usize) * 2;
            if !in_queue[c] {
                in_queue[c] = true;
                queue.push_back(c);
            }
        }
        for &ei in q.out_edge_indices(constrained) {
            let c = (ei as usize) * 2 + 1;
            if !in_queue[c] {
                in_queue[c] = true;
                queue.push_back(c);
            }
        }
    }

    (MatchRelation::from_sets(sim, n), stats)
}

/// Check that `m` actually *is* a valid bounded simulation relation (every
/// pair satisfies predicate + edge conditions). Used by property tests to
/// assert soundness independently of any matcher.
pub fn is_valid_bounded_relation<G: GraphView>(g: &G, q: &Pattern, m: &MatchRelation) -> bool {
    for (ui, pn) in q.nodes().iter().enumerate() {
        let u = expfinder_pattern::PNodeId(ui as u32);
        let compiled = pn.predicate.compile(g);
        for v in m.matches(u).iter() {
            if !compiled.eval(g.vertex(v)) {
                return false;
            }
            for e in q.out_edges(u) {
                if !can_reach_within(g, v, m.matches(e.to), e.bound.depth()) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_pattern::fixtures::{fig1_pattern, fig1_pattern_simulation};

    #[test]
    fn naive_bsim_reproduces_example1() {
        let f = collaboration_fig1();
        let m = naive_bounded_simulation(&f.graph, &fig1_pattern());
        assert_eq!(m.total_pairs(), 7);
    }

    #[test]
    fn naive_sim_fails_on_fig1() {
        let f = collaboration_fig1();
        let m = naive_simulation(&f.graph, &fig1_pattern_simulation());
        assert!(m.is_empty());
    }

    #[test]
    fn validity_checker_accepts_real_result() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = naive_bounded_simulation(&f.graph, &q);
        assert!(is_valid_bounded_relation(&f.graph, &q, &m));
    }

    #[test]
    fn validity_checker_rejects_bogus_pair() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let mut m = naive_bounded_simulation(&f.graph, &q);
        // force Fred into the SD matches: invalid before e1
        let sd = q.node_id("sd").unwrap();
        m.sets_mut()[sd.index()].insert(f.fred);
        assert!(!is_valid_bounded_relation(&f.graph, &q, &m));
    }
}
