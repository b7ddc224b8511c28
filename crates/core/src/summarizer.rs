//! The common interface of the summarization algorithms.

use osa_solver::SolverError;

use crate::CoverageGraph;

/// A computed size-k summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Selected candidate indices (into the graph's candidate set), in
    /// selection order where the algorithm has one.
    pub selected: Vec<usize>,
    /// The Definition 2 cost `C(F, P)` of the selection.
    pub cost: u64,
}

/// A size-k summarization algorithm over a [`CoverageGraph`].
pub trait Summarizer {
    /// Select (up to) `k` candidates minimizing the coverage cost.
    ///
    /// Every implementation returns at most `min(k, |U|)` candidates and
    /// reports the exact cost of what it selected. Greedy-family
    /// implementations stop early when coverage saturates (the best
    /// marginal gain reaches 0), so they may return fewer.
    fn summarize(&self, graph: &CoverageGraph, k: usize) -> Summary;

    /// [`summarize`](Self::summarize) with an optional request-scoped
    /// [`osa_obs::Trace`]: implementations open child spans for their
    /// internal phases and attach their work counters (gain evaluations,
    /// B&B nodes, …) to the currently open trace span. The default
    /// ignores the trace; passing `None` must always be byte-identical
    /// to `summarize`.
    fn summarize_traced(
        &self,
        graph: &CoverageGraph,
        k: usize,
        trace: Option<&osa_obs::Trace>,
    ) -> Summary {
        let _ = trace;
        self.summarize(graph, k)
    }

    /// [`summarize_traced`](Self::summarize_traced) for a caller that
    /// reports a solver failure itself. The exact solvers return
    /// [`SolverError::ModelTooLarge`] for a model over the solver's
    /// dense-tableau cap, where `summarize` panics with that message;
    /// the default, for algorithms without a solver, always succeeds.
    fn try_summarize_traced(
        &self,
        graph: &CoverageGraph,
        k: usize,
        trace: Option<&osa_obs::Trace>,
    ) -> Result<Summary, SolverError> {
        Ok(self.summarize_traced(graph, k, trace))
    }

    /// Human-readable algorithm name (used by the benchmark harness).
    fn name(&self) -> &'static str;
}
