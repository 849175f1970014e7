"""Monte Carlo Tree Search for EIR selection."""

from .node import UCB_C, Node
from .search import EirSearch, SearchConfig, SearchResult, random_search

__all__ = [
    "UCB_C",
    "Node",
    "EirSearch",
    "SearchConfig",
    "SearchResult",
    "random_search",
]
