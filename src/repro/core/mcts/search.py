"""Monte Carlo Tree Search over EIR selections (paper section 4.3).

The search commits EIRs *group by group*: each tree level decides the
complete EIR group of one cache bank, so the tree depth equals the
number of CBs (the paper's optimisation over one-EIR-at-a-time, which
made the tree 24+ levels deep).

Per committed level the search runs a budget of iterations, each with
the classic four steps:

1. *Selection* — walk from the root by UCB1 until a not-fully-expanded
   node (or a terminal node) is reached.
2. *Expansion* — attach one untried child group.
3. *Simulation* — complete the remaining CBs' groups with a random
   rollout policy.
4. *Backpropagation* — evaluate the completed design with the
   four-metric function and accumulate the reward up the path.

After the budget, the level-``k`` child with the highest accumulated
value is committed and becomes part of the new root state, exactly as
described in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import evaluation
from ..eir import (
    MAX_EIR_DISTANCE,
    MIN_EIR_DISTANCE,
    EirDesign,
    EirGroup,
    candidate_positions,
    enumerate_groups,
    make_group,
)
from ..grid import Grid
from .node import DEFAULT_UCB_C, Node


@dataclass
class SearchConfig:
    """Tuning knobs of the EIR search."""

    iterations_per_level: int = 200
    ucb_c: float = DEFAULT_UCB_C
    min_distance: int = MIN_EIR_DISTANCE
    max_distance: int = MAX_EIR_DISTANCE
    require_full_groups: bool = True
    seed: int = 0
    weights: Optional[Dict[str, float]] = None


@dataclass
class SearchResult:
    """Outcome of a full MCTS run."""

    design: EirDesign
    evaluation: evaluation.EvalResult
    designs_evaluated: int
    nodes_expanded: int
    best_score_trace: Tuple[float, ...]
    # Evaluation-memoization telemetry: rollouts that reached an
    # already-scored design are cache hits and cost no re-evaluation.
    eval_cache_lookups: int = 0
    eval_cache_hits: int = 0

    @property
    def eval_cache_hit_rate(self) -> float:
        """Fraction of state evaluations served from the memo cache."""
        if not self.eval_cache_lookups:
            return 0.0
        return self.eval_cache_hits / self.eval_cache_lookups


class EirSearch:
    """MCTS-based EIR selector for a fixed grid and CB placement."""

    def __init__(
        self,
        grid: Grid,
        placement: Sequence[int],
        config: Optional[SearchConfig] = None,
    ) -> None:
        self.grid = grid
        self.placement = tuple(placement)
        self.config = config or SearchConfig()
        self._rng = random.Random(self.config.seed)
        self._eval_cache: Dict[Tuple[EirGroup, ...], evaluation.EvalResult] = {}
        self._cb_candidates: Dict[int, FrozenSet[int]] = {}
        self._actions: Dict[Tuple[int, FrozenSet[int]], Tuple[EirGroup, ...]] = {}
        self._evaluator = evaluation.IncrementalEvaluator(
            grid, self.placement, self.config.weights
        )
        self.designs_evaluated = 0
        self.nodes_expanded = 0
        self.eval_cache_lookups = 0
        self.eval_cache_hits = 0

    # ------------------------------------------------------------------
    # Action model
    # ------------------------------------------------------------------
    def _candidates(self, cb: int) -> FrozenSet[int]:
        """Every node ``enumerate_groups`` may place an EIR of ``cb`` on."""
        cands = self._cb_candidates.get(cb)
        if cands is None:
            per_dir = candidate_positions(
                self.grid, self.placement, cb,
                min_distance=self.config.min_distance,
                max_distance=self.config.max_distance,
            )
            cands = frozenset(n for nodes in per_dir.values() for n in nodes)
            self._cb_candidates[cb] = cands
        return cands

    def actions(self, state: Sequence[EirGroup]) -> Sequence[EirGroup]:
        """Legal EIR groups for the next undecided CB.

        ``enumerate_groups`` reads ``taken`` only through its own
        candidates, so the groups are memoised on ``(depth, taken &
        candidates)``: a few hundred distinct keys serve the thousands
        of calls rollouts make.  The memo lives as long as the search.
        """
        depth = len(state)
        if depth >= len(self.placement):
            return ()
        cb = self.placement[depth]
        cands = self._candidates(cb)
        taken = frozenset(n for g in state for n in g.nodes if n in cands)
        key = (depth, taken)
        groups = self._actions.get(key)
        if groups is None:
            groups = tuple(enumerate_groups(
                self.grid,
                self.placement,
                cb,
                taken=taken,
                min_distance=self.config.min_distance,
                max_distance=self.config.max_distance,
                require_full=self.config.require_full_groups,
            )) or (make_group(cb, {}),)
            self._actions[key] = groups
        return groups

    def is_terminal(self, state: Sequence[EirGroup]) -> bool:
        return len(state) == len(self.placement)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _design(self, state: Sequence[EirGroup]) -> EirDesign:
        return EirDesign(
            grid=self.grid, placement=self.placement, groups=tuple(state)
        )

    def evaluate_state(self, state: Sequence[EirGroup]) -> evaluation.EvalResult:
        """Score a complete design, memoized on the canonical group tuple.

        Misses are scored through the :class:`~repro.core.evaluation.
        IncrementalEvaluator`, which reuses per-CB traffic fragments
        across designs; both layers are bit-identical to a direct
        :func:`~repro.core.evaluation.evaluate` call.
        """
        key = tuple(state)
        self.eval_cache_lookups += 1
        cached = self._eval_cache.get(key)
        if cached is None:
            cached = self._evaluator.evaluate(key)
            self._eval_cache[key] = cached
            self.designs_evaluated += 1
        else:
            self.eval_cache_hits += 1
        return cached

    # ------------------------------------------------------------------
    # Rollout
    # ------------------------------------------------------------------
    def rollout(self, state: Sequence[EirGroup]) -> Tuple[EirGroup, ...]:
        """Randomly complete ``state`` into a full design."""
        groups = list(state)
        while not self.is_terminal(groups):
            options = self.actions(groups)
            groups.append(self._rng.choice(options))
        return tuple(groups)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run the level-by-level MCTS and return the committed design."""
        committed: List[EirGroup] = []
        trace: List[float] = []
        while not self.is_terminal(committed):
            best_child = self._search_level(committed)
            committed.append(best_child.action)  # type: ignore[arg-type]
            # Track how the best complete rollout from the committed
            # prefix scores, for convergence inspection.
            full = self.rollout(committed)
            trace.append(self.evaluate_state(full).score)
        result = self.evaluate_state(committed)
        return SearchResult(
            design=self._design(committed),
            evaluation=result,
            designs_evaluated=self.designs_evaluated,
            nodes_expanded=self.nodes_expanded,
            best_score_trace=tuple(trace),
            eval_cache_lookups=self.eval_cache_lookups,
            eval_cache_hits=self.eval_cache_hits,
        )

    def _search_level(self, committed: Sequence[EirGroup]) -> Node:
        """One MCTS budget deciding the next CB's group."""
        root = Node(action=None)
        root.untried = list(self.actions(committed))
        self._rng.shuffle(root.untried)
        for _ in range(self.config.iterations_per_level):
            self._iterate(root, committed)
        if not root.children:
            # Degenerate level (single forced action).
            child = root.add_child(self.actions(committed)[0])
            child.visits = 1
            return child
        return root.best_child_value()

    def _iterate(self, root: Node, committed: Sequence[EirGroup]) -> None:
        node = root
        state = list(committed)
        # 1. Selection.
        while node.is_fully_expanded() and node.children:
            node = node.best_child_ucb(self.config.ucb_c)
            state.append(node.action)  # type: ignore[arg-type]
        # 2. Expansion.
        if node.untried and not self.is_terminal(state):
            action = node.untried.pop()
            node = node.add_child(action)
            node.untried = list(self.actions(state + [action]))
            self._rng.shuffle(node.untried)
            state.append(action)
            self.nodes_expanded += 1
        # 3. Simulation.
        full = self.rollout(state)
        # 4. Backpropagation.
        value = evaluation.reward(self.evaluate_state(full))
        node.backpropagate(value)


def random_search(
    grid: Grid,
    placement: Sequence[int],
    samples: int,
    config: Optional[SearchConfig] = None,
) -> SearchResult:
    """Pure random sampling baseline with the same action model.

    Used by the search-efficiency ablation: MCTS should reach a better
    design than random search at an equal evaluation budget.
    """
    search = EirSearch(grid, placement, config)
    best_state: Optional[Tuple[EirGroup, ...]] = None
    best: Optional[evaluation.EvalResult] = None
    trace: List[float] = []
    for _ in range(samples):
        state = search.rollout(())
        result = search.evaluate_state(state)
        if best is None or result.score < best.score:
            best_state, best = state, result
        trace.append(best.score)
    assert best_state is not None and best is not None
    return SearchResult(
        design=search._design(best_state),
        evaluation=best,
        designs_evaluated=search.designs_evaluated,
        nodes_expanded=0,
        best_score_trace=tuple(trace),
        eval_cache_lookups=search.eval_cache_lookups,
        eval_cache_hits=search.eval_cache_hits,
    )
