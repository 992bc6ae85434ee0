"""Extending and totally extending words for small subsets.

``shortest_extending_word_small`` searches the automaton whose nodes are the
subsets of at most |S| states.  A node A counts as *initial with letter a*
when the letter-preimage of A is larger than |S| (preimages of distinct
states are disjoint, so the size is a per-state table sum).  One multi-source
forward BFS from all initial nodes, stopped at the first node contained in
S, yields a shortest extending word: the initial letter followed by the path
word.  Restricting nodes to size at most |S| is sound because a shortest
extending word ``aw`` forces ``|S . w^-1| <= |S|``.

``totally_extending_word_small`` first drives Q to an incompressible image
via a minimal-rank word u, then searches the fixed-size image space for a
subset of S; the result ``u . path`` is correct but not necessarily
shortest.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional, Union

from .automaton import Automaton, StateSet, Word, apply_word, scc, subset_bfs
from .errors import BudgetExceededError, DEFAULT_NODE_BUDGET, NotSynchronizingError
from .pairs import greedy_reset_word, is_synchronizing, minimal_rank_word


def shortest_extending_word_small(aut: Automaton, s: StateSet,
                                  budget: int = DEFAULT_NODE_BUDGET,
                                  stats: Optional[dict] = None) -> Optional[Word]:
    """A shortest word w with |S . w^-1| > |S|, or None if S is not extensible.

    Cost grows like O(|Sigma| n^|S|); the node budget turns runaway searches
    into a BudgetExceededError rather than a wrong answer.
    """
    aut.check_set(s)
    n, k = aut.n, aut.k
    size = s.size
    if size == 0 or size == n:
        return None

    estimate = sum(comb(n, j) for j in range(1, size + 1))
    if estimate > budget:
        raise BudgetExceededError(
            f"subset space of {estimate} nodes exceeds budget {budget}", estimate)

    # c[a][q] = |{q} . a^-1|
    counts = [[aut.preimage_masks(a)[q].bit_count() for q in range(n)] for a in range(k)]

    def sources():
        for subset_size in range(1, size + 1):
            for states in combinations(range(n), subset_size):
                for a in range(k):
                    row = counts[a]
                    if sum(row[q] for q in states) > size:
                        yield sum(1 << q for q in states), a
                        break

    s_bits = s.bits
    return subset_bfs(sources(), aut.image_bits, k, lambda bits: bits & ~s_bits == 0,
                      budget, stats)


def totally_extending_word_small(aut: Automaton, s: StateSet,
                                 budget: int = DEFAULT_NODE_BUDGET,
                                 stats: Optional[dict] = None) -> Optional[Word]:
    """A word w with S . w^-1 = Q, or None; not guaranteed shortest.

    None is definitive: the minimal rank exceeding |S| rules a totally
    extending word out, and otherwise the search space (images of the
    incompressible minimal image, all of the same size) is explored fully.
    """
    aut.check_set(s)
    rank = minimal_rank_word(aut)
    if rank.rank > s.size:
        return None

    s_bits = s.bits
    r = rank.rank

    def is_goal(bits: int) -> bool:
        assert bits.bit_count() == r, "image of an incompressible set changed size"
        return bits & ~s_bits == 0

    path = subset_bfs([(rank.image.bits, -1)], aut.image_bits, aut.k, is_goal, budget, stats)
    return None if path is None else rank.word + path


def totally_extensible_synchronizing(aut: Automaton, s: StateSet, witness: bool = False
                                     ) -> Union[bool, tuple[bool, Optional[Word]]]:
    """Fast path for synchronizing automata: S is totally extensible iff it
    meets the unique sink component.

    Raises NotSynchronizingError otherwise.  The optional witness (reset
    word, then a path into S inside the sink component) is not shortest.
    """
    aut.check_set(s)
    if not is_synchronizing(aut):
        raise NotSynchronizingError("totally_extensible_synchronizing needs a synchronizing automaton")

    comps = scc(aut)
    sink_ids = comps.sink_components()
    assert len(sink_ids) == 1, "a synchronizing automaton has exactly one sink component"
    sink_members = comps.components[sink_ids[0]]
    decision = any(q in s for q in sink_members)
    if not witness:
        return decision
    if not decision:
        return False, None

    reset = greedy_reset_word(aut)
    p = next(iter(apply_word(aut, StateSet.full(aut.n), reset)))
    # BFS over singletons from p to the nearest state of S (all of S's sink
    # states qualify); there are at most n nodes.
    path = subset_bfs([(1 << p, -1)], aut.image_bits, aut.k, lambda bits: bits & s.bits != 0,
                      aut.n)
    assert path is not None, "sink component state must be reachable from the reset state"
    return True, reset + path
