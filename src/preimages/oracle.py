"""Exhaustive subset-space searches: desk-scale ground truth.

Both directions walk the power set breadth-first with
``automaton.subset_bfs``, the kernel every subset search shares, so they
are capped (by default at 20 states) and guarded by an explicit node limit.
Depths are exact shortest distances; the preimage direction prepends
letters while walking back from a subset, because
``(S . w^-1) . a^-1 == S . (aw)^-1``.  A search given a goal stops at the
first generated subset that meets it, which is a shortest witness because
generation order is breadth-first; the node limit counts the subsets
generated up to and including that one.
"""

from __future__ import annotations

from typing import Optional

from .automaton import (Automaton, Goal, StateSet, SubsetBfsResult, Word, problem_goal,
                        subset_bfs)
from .errors import BudgetExceededError, DEFAULT_NODE_BUDGET, DEFAULT_ORACLE_STATE_CAP


def _cut_fits(k: int, depth: int, cap: int) -> bool:
    """Whether a search cut at ``depth`` >= 0, which holds at most
    1 + k + ... + k^depth subsets, holds no more than 2^cap."""
    if k < 2:
        return depth * k + 1 <= 1 << cap
    depth = min(depth, cap + 1)  # k^(cap + 1) alone exceeds 2^cap
    return (k ** (depth + 1) - 1) // (k - 1) <= 1 << cap


def backward_subset_bfs(aut: Automaton, s: StateSet, node_limit: int = DEFAULT_NODE_BUDGET,
                        state_cap: int = DEFAULT_ORACLE_STATE_CAP,
                        stop: Optional[Goal] = None, max_depth: int = -1,
                        stats: Optional[dict] = None) -> SubsetBfsResult:
    """Subsets reachable from S by iterated single-letter preimages: all of
    them, or those generated up to the first that meets ``stop``, and none
    deeper than ``max_depth`` L >= 0.  Above ``state_cap`` states it is
    refused unless it is cut and its bound 1 + k + ... + k^L is no larger
    than the 2^state_cap subsets the cap admits uncut."""
    aut.check_set(s)
    if aut.n > state_cap and (max_depth < 0 or not _cut_fits(aut.k, max_depth, state_cap)):
        raise BudgetExceededError(f"power-set search refused: n={aut.n} exceeds cap {state_cap}")
    return subset_bfs(aut, [s.bits], "preimage", stop, node_limit, stats, max_depth)


def forward_subset_bfs(aut: Automaton, t0: Optional[StateSet] = None,
                       node_limit: int = DEFAULT_NODE_BUDGET,
                       state_cap: int = DEFAULT_ORACLE_STATE_CAP,
                       stop: Optional[Goal] = None) -> SubsetBfsResult:
    """Subsets reachable from T0 (default Q) by single-letter images: all of
    them, or those generated up to the first that meets ``stop``."""
    if t0 is None:
        t0 = StateSet.full(aut.n)
    aut.check_set(t0)
    if aut.n > state_cap:
        raise BudgetExceededError(f"power-set search refused: n={aut.n} exceeds cap {state_cap}")
    return subset_bfs(aut, [t0.bits], "image", stop, node_limit)


def oracle_shortest(aut: Automaton, s: StateSet, problem: str,
                    node_limit: int = DEFAULT_NODE_BUDGET,
                    state_cap: int = DEFAULT_ORACLE_STATE_CAP, max_len: Optional[int] = None,
                    stats: Optional[dict] = None) -> Optional[Word]:
    """A shortest word answering ``problem`` (one of ``PROBLEMS``) for S, or None.

    The search stops at the first subset that meets ``problem_goal``.  With
    ``max_len`` it is cut at that depth, so None means no word that short,
    and ``state_cap`` binds only when that cut may hold more than
    2^state_cap subsets.
    """
    return backward_subset_bfs(aut, s, node_limit, state_cap,
                               problem_goal(problem, aut.n, s.size),
                               -1 if max_len is None else max_len, stats).word


def oracle_shortest_reset(aut: Automaton, node_limit: int = DEFAULT_NODE_BUDGET,
                          state_cap: int = DEFAULT_ORACLE_STATE_CAP) -> Optional[Word]:
    """Exact shortest reset word via forward power-set BFS, stopping at the
    first singleton image."""
    return forward_subset_bfs(aut, None, node_limit, state_cap,
                              stop=lambda bits: bits.bit_count() == 1).word

