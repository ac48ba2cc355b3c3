//! The one evaluation entry point.
//!
//! [`evaluate`] runs a pattern under one [`Semantics`] with the context
//! named in an [`EvalRequest`]: how to execute (sequentially or with *n*
//! parallel workers), the refresh-order [`PlanMode`], and the optional
//! reusable [`EvalScratch`], per-snapshot [`ReachProvider`] and
//! [`CancelToken`]. Every request computes the same greatest fixpoint;
//! the context only changes cost and the [`EvalStats`] work counters.
//!
//! What runs per request:
//!
//! * sequential [`Semantics::Simulation`] — the counter fixpoint of
//!   [`crate::sim`] (the index is not consulted);
//! * sequential [`Semantics::Bounded`] / [`Semantics::Dual`] — the
//!   delta-aware frontier loop of [`crate::fixpoint`];
//! * [`Exec::Parallel`] — the round-based refinement of
//!   [`crate::parallel`], for every semantics.

use crate::fixpoint::{refine_constraints, Constraint, EvalScratch, IndexCtx};
use crate::matchrel::MatchRelation;
use crate::{candidate_sets, candidate_sets_classed, MatchError};
use expfinder_graph::bfs::Direction;
use expfinder_graph::{CancelToken, GraphView, ReachProvider};
use expfinder_pattern::Pattern;

/// Which matching semantics a request evaluates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Graph simulation: every bound must be one hop
    /// ([`MatchError::NotASimulationPattern`] otherwise).
    Simulation,
    /// Bounded simulation, the paper's semantics.
    #[default]
    Bounded,
    /// Bounded dual simulation: parents are constrained as well as
    /// children (see [`crate::dualsim`]).
    Dual,
}

/// How a request is executed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Exec {
    /// One thread, reusing the request's scratch.
    #[default]
    Sequential,
    /// Round-based refinement with up to this many workers (a lone
    /// worker runs inline, without spawning).
    Parallel(usize),
}

/// Refresh-order heuristic ("query plan").
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Process pattern edges with the smallest target candidate sets first.
    #[default]
    Selective,
    /// Process pattern edges in declaration order (baseline for E12).
    DeclarationOrder,
}

/// Counters describing how much work one evaluation did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of per-edge refreshes (reach-set computations).
    pub refreshes: usize,
    /// Total candidate removals across all pattern nodes.
    pub removals: usize,
    /// Queued refreshes skipped because the seed set had not shrunk since
    /// the constraint's last refresh (sequential frontier loop only).
    pub refreshes_skipped: usize,
    /// Nodes marked visited across all reach traversals — the traversal
    /// work the refresh memoization exists to cut.
    pub bfs_nodes_visited: usize,
    /// First refreshes served from a per-snapshot
    /// [`ReachIndex`](expfinder_graph::ReachIndex) entry instead of a BFS
    /// (indexed evaluations only — zero without a provider).
    pub index_hits: usize,
    /// First refreshes that consulted the provider but fell back to the
    /// BFS (the seed set was not a full label class, or the view has no
    /// class for the label). Zero without a provider.
    pub index_misses: usize,
}

/// One evaluation: the semantics plus the optional context it may use.
///
/// `scratch` is the sequential paths' reusable buffer set (a fresh one is
/// allocated when absent). `index` must be bound to the same snapshot as
/// the evaluated graph; results are bit-identical with or without it,
/// only the work counters change. A fired `cancel` token aborts with
/// [`MatchError::Cancelled`] carrying the partial [`EvalStats`], leaving
/// scratch and index sound for the next query.
#[derive(Default)]
pub struct EvalRequest<'a> {
    pub semantics: Semantics,
    pub exec: Exec,
    pub plan: PlanMode,
    pub scratch: Option<&'a mut EvalScratch>,
    pub index: Option<&'a dyn ReachProvider>,
    pub cancel: Option<&'a CancelToken>,
}

impl EvalRequest<'_> {
    /// A sequential request for `semantics` with no optional context.
    pub fn new(semantics: Semantics) -> Self {
        EvalRequest {
            semantics,
            ..EvalRequest::default()
        }
    }
}

/// Evaluate `q` over `g` as `req` asks, returning the maximum match
/// relation and the work counters.
pub fn evaluate<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    req: EvalRequest<'_>,
) -> Result<(MatchRelation, EvalStats), MatchError> {
    match req.exec {
        Exec::Sequential => evaluate_sequential(g, q, req),
        Exec::Parallel(threads) => {
            check_pattern(q, req.semantics)?;
            let constraints = constraints(q, req.semantics);
            Ok(crate::parallel::refine(
                g,
                q,
                &constraints,
                threads,
                req.index,
                req.cancel,
            )?)
        }
    }
}

/// The sequential half of [`evaluate`] (`req.exec` is ignored). Needs no
/// `Sync` view, so the paper-vocabulary shorthands run on any graph.
pub(crate) fn evaluate_sequential<G: GraphView>(
    g: &G,
    q: &Pattern,
    req: EvalRequest<'_>,
) -> Result<(MatchRelation, EvalStats), MatchError> {
    check_pattern(q, req.semantics)?;
    let n = g.node_count();
    let mut own = None;
    let scratch = match req.scratch {
        Some(s) => s,
        None => own.insert(EvalScratch::new()),
    };
    if req.semantics == Semantics::Simulation {
        let mut sim = candidate_sets(g, q);
        let (cnt, queue) = scratch.sim_buffers(q.edge_count(), n);
        let removals = crate::sim::refine_counters(g, q, &mut sim, cnt, queue, req.cancel)?;
        let stats = EvalStats {
            removals,
            ..EvalStats::default()
        };
        return Ok((MatchRelation::from_sets(sim, n), stats));
    }
    let (mut sim, classes) = candidate_sets_classed(g, q);
    let index = req.index.map(|provider| IndexCtx {
        provider,
        class_of: &classes,
    });
    // an early exit leaves one set empty, and `from_sets` then collapses
    // the relation to M(Q,G) = ∅
    let (_, stats) = refine_constraints(
        g,
        q.node_count(),
        &constraints(q, req.semantics),
        &mut sim,
        req.plan,
        true,
        scratch,
        index,
        req.cancel,
    )?;
    Ok((MatchRelation::from_sets(sim, n), stats))
}

fn check_pattern(q: &Pattern, semantics: Semantics) -> Result<(), MatchError> {
    if semantics == Semantics::Simulation && !q.is_simulation() {
        return Err(MatchError::NotASimulationPattern);
    }
    Ok(())
}

/// The refinement constraints of `semantics`: every pattern edge
/// `(u, u')` constrains `sim(u)` to what reaches `sim(u')` within the
/// bound; dual simulation adds the backward constraint on `sim(u')`.
pub(crate) fn constraints(q: &Pattern, semantics: Semantics) -> Vec<Constraint> {
    let dual = semantics == Semantics::Dual;
    let mut out = Vec::with_capacity(q.edge_count() * if dual { 2 } else { 1 });
    for e in q.edges() {
        out.push(Constraint {
            constrained: e.from,
            seeds: e.to,
            depth: e.bound.depth(),
            dir: Direction::Backward,
        });
        if dual {
            out.push(Constraint {
                constrained: e.to,
                seeds: e.from,
                depth: e.bound.depth(),
                dir: Direction::Forward,
            });
        }
    }
    out
}
