"""Search-tree node and UCB1 selection for the EIR MCTS."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..eir import EirGroup

DEFAULT_UCB_C = math.sqrt(2.0)


@dataclass
class Node:
    """One node of the MCTS tree.

    The node's *state* is the sequence of EIR groups committed so far
    (one per CB, in CB order); ``action`` is the group whose addition
    created this node (``None`` at the root).
    """

    action: Optional[EirGroup]
    parent: Optional["Node"] = None
    children: List["Node"] = field(default_factory=list)
    untried: List[EirGroup] = field(default_factory=list)
    visits: int = 0
    total_reward: float = 0.0

    @property
    def depth(self) -> int:
        node, depth = self, 0
        while node.parent is not None:
            node, depth = node.parent, depth + 1
        return depth

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0

    def state(self) -> Tuple[EirGroup, ...]:
        """The groups committed along the path from the root to here."""
        groups: List[EirGroup] = []
        node: Optional[Node] = self
        while node is not None and node.action is not None:
            groups.append(node.action)
            node = node.parent
        return tuple(reversed(groups))

    # ------------------------------------------------------------------
    # UCB1
    # ------------------------------------------------------------------
    def ucb(self, child: "Node", c: float = DEFAULT_UCB_C) -> float:
        """Upper confidence bound of ``child`` as seen from this node.

        ``v_i + C * sqrt(ln N / n_i)`` per the paper's footnote 2, with
        unvisited children treated as infinitely attractive.
        """
        if child.visits == 0:
            return math.inf
        return child.mean_reward + c * math.sqrt(
            math.log(self.visits) / child.visits
        )

    def best_child_ucb(self, c: float = DEFAULT_UCB_C) -> "Node":
        """The child maximising UCB1 (exploration + exploitation)."""
        if not self.children:
            raise ValueError("node has no children")
        return max(self.children, key=lambda ch: self.ucb(ch, c))

    def best_child_value(self) -> "Node":
        """The child with the highest accumulated value (commit step)."""
        if not self.children:
            raise ValueError("node has no children")
        return max(
            self.children, key=lambda ch: (ch.mean_reward, ch.visits)
        )

    def add_child(self, action: EirGroup) -> "Node":
        child = Node(action=action, parent=self)
        self.children.append(child)
        return child

    def is_fully_expanded(self) -> bool:
        return not self.untried

    def backpropagate(self, value: float) -> None:
        """Accumulate ``value`` on the path from this node to the root."""
        node: Optional[Node] = self
        while node is not None:
            node.visits += 1
            node.total_reward += value
            node = node.parent
