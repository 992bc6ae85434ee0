"""Extending and totally extending words for small subsets.

Both run ``automaton.subset_bfs``, the kernel the power-set oracle runs.
``shortest_extending_word_small`` searches backward from S: a node is a
preimage ``S . v^-1`` and its children prepend one letter,
``(S . v^-1) . a^-1 == S . (av)^-1``.  The search stops at the first node
larger than S, and the word is the path's letters read from that node back
to S.  Every proper suffix v of a shortest extending word has
``|S . v^-1| <= |S|``, so no stored node is larger than S.  This is the
oracle's extend search itself, from the same subset with the same
stop, so it generates the same subsets and finds the same witness.

``totally_extending_word_small`` first drives Q to an incompressible image
via a minimal-rank word u, then searches forward over the fixed-size images
of Q.u for a subset of S; the result ``u . path`` is correct but not
necessarily shortest.  On a synchronizing automaton u is the greedy reset
word and the search walks singletons into S, so the same function gives
the witness of the synchronizing fast path.
"""

from __future__ import annotations

from typing import Optional

from .automaton import Automaton, StateSet, Word, problem_goal, scc, subset_bfs
from .errors import DEFAULT_NODE_BUDGET, NotSynchronizingError
from .pairs import is_synchronizing, minimal_rank_word


def shortest_extending_word_small(aut: Automaton, s: StateSet,
                                  budget: int = DEFAULT_NODE_BUDGET,
                                  stats: Optional[dict] = None,
                                  max_len: Optional[int] = None) -> Optional[Word]:
    """A shortest word w with |S . w^-1| > |S|, or None if S is not extensible
    (by a word of at most ``max_len`` letters, when given).

    Cost grows like O(|Sigma| n^|S|) in the worst case, but only preimages
    reachable from S are visited; the node budget turns runaway searches
    into a BudgetExceededError rather than a wrong answer.
    """
    aut.check_set(s)
    if s.size == 0 or s.size == aut.n:
        return None
    res = subset_bfs(aut, [s.bits], "preimage", problem_goal("extend", aut.n, s.size), budget,
                     stats, -1 if max_len is None else max_len)
    return None if res.hit is None else res.word_to(res.hit)


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

    res = subset_bfs(aut, [rank.image.bits], "image", is_goal, budget, stats)
    return None if res.hit is None else rank.word + res.word_to(res.hit)


def totally_extensible_synchronizing(aut: Automaton, s: StateSet) -> bool:
    """Fast path for synchronizing automata: S is totally extensible iff it
    meets the unique sink component.

    Raises NotSynchronizingError otherwise.  A witness, the reset word
    followed by a path into S inside the sink component, comes from
    ``totally_extending_word_small``.
    """
    aut.check_set(s)
    if not is_synchronizing(aut):
        raise NotSynchronizingError("totally_extensible_synchronizing needs a synchronizing automaton")

    comps = scc(aut)
    sink_ids = comps.sink_components()
    assert len(sink_ids) == 1, "a synchronizing automaton has exactly one sink component"
    return any(q in s for q in comps.components[sink_ids[0]])
