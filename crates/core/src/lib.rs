//! Matching core of ExpFinder.
//!
//! Implements the matching semantics the paper discusses, the result
//! graph, and the top-K ranking that is new in the ExpFinder paper:
//!
//! * [`graph_simulation`] — plain graph simulation, quadratic-time
//!   (Henzinger–Henzinger–Kopke-style refinement with per-edge counters);
//! * [`bounded_simulation`] — the paper's core semantics \[Fan et al.,
//!   PVLDB 2010\]: pattern edges with bound `k` map to non-empty paths of
//!   length ≤ `k`; computed as a greatest-fixpoint refinement whose step is
//!   a multi-source reverse bounded BFS (cubic worst case);
//! * [`dual_simulation`] — our extension beyond the paper: bounded
//!   simulation that also constrains parents;
//! * [`subgraph_isomorphism`] — the classical baseline the paper argues is
//!   too strict and too expensive (NP-complete);
//! * [`ResultGraph`] — matches as nodes, edges weighted by shortest-path
//!   length, exactly the result representation of \[PVLDB 2010\];
//! * [`rank_matches`] / [`top_k`] — the social-impact ranking
//!   `f(u_o, v) = (Σ dist(u,v) + Σ dist(v,u')) / |V'_r|` of paper §II.
//!
//! The three simulation functions are shorthands for [`evaluate`], the one
//! evaluation entry point: an [`EvalRequest`] names the [`Semantics`], the
//! [`Exec`] mode (sequential or parallel), the [`PlanMode`], and the
//! optional [`EvalScratch`], [`ReachProvider`] and [`CancelToken`]. The
//! raw fixpoints the incremental module builds its state from are
//! [`simulation_fixpoint`] and [`bounded_fixpoint`]; [`naive`] holds the
//! differential oracles.
//!
//! The maximum match relation `M(Q,G)` is represented by
//! [`MatchRelation`]. Following the paper's definition, if any pattern
//! node ends up with no valid match the whole result is empty.

pub mod bsim;
pub mod dualsim;
pub mod eval;
pub mod fixpoint;
pub mod iso;
pub mod matchrel;
pub mod naive;
pub mod parallel;
pub mod rank;
pub mod result_graph;
pub mod sim;

pub use bsim::{bounded_fixpoint, bounded_simulation};
pub use dualsim::dual_simulation;
pub use eval::{evaluate, EvalRequest, EvalStats, Exec, PlanMode, Semantics};
pub use expfinder_graph::{CancelToken, ReachIndex, ReachProvider};
pub use fixpoint::{Cancelled, EvalScratch, PooledScratch, ScratchPool};
pub use iso::{subgraph_isomorphism, IsoOptions};
pub use matchrel::MatchRelation;
pub use rank::{rank_matches, rank_matches_top_k, rank_value, top_k, RankedMatch};
pub use result_graph::{BuildOptions, ResultGraph};
pub use sim::{graph_simulation, simulation_fixpoint};

use std::fmt;

/// Errors from the matching layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// [`graph_simulation`] was given a pattern with bounds > 1; use
    /// [`bounded_simulation`] for those.
    NotASimulationPattern,
    /// Ranking was requested for a pattern without an output node.
    NoOutputNode,
    /// The request's [`CancelToken`] fired; carries the partial work.
    Cancelled(Cancelled),
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::NotASimulationPattern => {
                write!(f, "pattern has bounds > 1; use bounded_simulation")
            }
            MatchError::NoOutputNode => write!(f, "pattern has no output node to rank"),
            MatchError::Cancelled(c) => c.fmt(f),
        }
    }
}

impl std::error::Error for MatchError {}

impl From<Cancelled> for MatchError {
    fn from(c: Cancelled) -> Self {
        MatchError::Cancelled(c)
    }
}

/// Collect the nodes of `g` satisfying each pattern node's predicate,
/// as bitsets indexed by pattern node — the starting sets of every
/// fixpoint. A view with a label index (`CsrGraph` has one) seeds each
/// label-implying predicate from its label class instead of a full scan.
pub fn candidate_sets<G: expfinder_graph::GraphView>(
    g: &G,
    q: &expfinder_pattern::Pattern,
) -> Vec<expfinder_graph::BitSet> {
    q.ids().map(|u| candidate_set_classed(g, q, u).0).collect()
}

/// [`candidate_sets`] plus, per pattern node, the label symbol whose
/// class the set *is* — `Some(sym)` exactly when the indexed pure-label
/// path was taken, i.e. the candidate set equals `g`'s full class for
/// `sym`. That is the eligibility marker of the reach-index hook: a
/// constraint whose seed set is still such a class can have its first
/// refresh served from a per-snapshot
/// [`ReachIndex`](expfinder_graph::ReachIndex) entry instead of a BFS.
pub(crate) fn candidate_sets_classed<G: expfinder_graph::GraphView>(
    g: &G,
    q: &expfinder_pattern::Pattern,
) -> (
    Vec<expfinder_graph::BitSet>,
    Vec<Option<expfinder_graph::Sym>>,
) {
    let mut sets = Vec::with_capacity(q.node_count());
    let mut classes = Vec::with_capacity(q.node_count());
    for u in q.ids() {
        let (set, class) = candidate_set_classed(g, q, u);
        sets.push(set);
        classes.push(class);
    }
    (sets, classes)
}

/// The candidate set of one pattern node, plus the class marker of
/// [`candidate_sets_classed`]. When the view maintains a label index
/// (`CsrGraph` does) and the predicate implies a label, only that label
/// class is scanned — and only against the *residual* predicate (the
/// label conjunct is already proven by class membership), so a
/// pure-label node costs one bitset clone instead of a graph scan.
/// Without an index every node is tested against the full predicate.
pub(crate) fn candidate_set_classed<G: expfinder_graph::GraphView>(
    g: &G,
    q: &expfinder_pattern::Pattern,
    u: expfinder_pattern::PNodeId,
) -> (expfinder_graph::BitSet, Option<expfinder_graph::Sym>) {
    let n = g.node_count();
    let pn = &q.nodes()[u.index()];
    let indexed = pn.predicate.required_label().and_then(|l| {
        let class = g
            .interner()
            .get(l)
            .and_then(|sym| g.nodes_with_label(sym).map(|c| (sym, c)));
        class.map(|(sym, c)| (sym, c, pn.predicate.residual_after_label(l)))
    });
    match indexed {
        Some((sym, class, None)) => {
            // membership is the whole condition
            debug_assert_eq!(class.capacity(), n);
            (class.clone(), Some(sym))
        }
        Some((_, class, Some(residual))) => {
            let compiled = residual.compile(g);
            let mut set = expfinder_graph::BitSet::new(n);
            for v in class.iter() {
                if compiled.eval(g.vertex(v)) {
                    set.insert(v);
                }
            }
            (set, None)
        }
        None => {
            let compiled = pn.predicate.compile(g);
            let mut set = expfinder_graph::BitSet::new(n);
            for v in g.ids() {
                if compiled.eval(g.vertex(v)) {
                    set.insert(v);
                }
            }
            (set, None)
        }
    }
}
