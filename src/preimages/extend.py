"""Extending and totally extending words for small subsets.

``shortest_extending_word_small`` runs ``search.subset_bfs``, the
kernel the power-set oracle runs, backward from S: a node is a
preimage ``S . v^-1`` and its children prepend one letter,
``(S . v^-1) . a^-1 == S . (av)^-1``.  The search stops at the first node
larger than S, and the word is the path's letters read from that node back
to S.  Every proper suffix v of a shortest extending word has
``|S . v^-1| <= |S|``, so no stored node is larger than S.  This is the
oracle's extend search itself, from the same subset with the same
stop, so it generates the same subsets and finds the same witness.

``totally_extending_word_small`` is avoid on Q minus S: S·w⁻¹ = Q exactly
when (Q∖S)·w⁻¹ = ∅, so ``avoid.avoiding_word`` gives its word, correct but
not necessarily shortest.
``totally_extensible_synchronizing`` decides the synchronizing case from
the sink component alone, without a word.  Only these two import ``avoid``
or ``pairs``, when called, so an extend search loads neither.
"""

from __future__ import annotations

from typing import Optional

from .automaton import Automaton, StateSet, Word, problem_goal, scc
from .errors import DEFAULT_NODE_BUDGET, NotSynchronizingError
from .search import subset_bfs


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
    return subset_bfs(aut, [s.bits], "preimage", problem_goal("extend", aut.n, s.size), budget,
                      stats, -1 if max_len is None else max_len).word


def totally_extending_word_small(aut: Automaton, s: StateSet,
                                 budget: int = DEFAULT_NODE_BUDGET,
                                 stats: Optional[dict] = None,
                                 max_len: Optional[int] = None) -> Optional[Word]:
    """A word w with S . w^-1 = Q, or None (by a word of at most ``max_len``
    letters, when given); not guaranteed shortest.

    It is ``avoid.avoiding_word`` on Q minus S, so None is definitive, and S
    = Q is totally extended by the empty word.
    """
    from .avoid import avoiding_word
    return avoiding_word(aut, s.complement(), budget, stats, max_len)


def totally_extensible_synchronizing(aut: Automaton, s: StateSet) -> bool:
    """Fast path for synchronizing automata: S is totally extensible iff it
    meets the unique sink component.

    Raises NotSynchronizingError otherwise.  A witness, the reset word
    followed by a path into S inside the sink component, comes from
    ``totally_extending_word_small``.
    """
    from .pairs import is_synchronizing
    aut.check_set(s)
    if not is_synchronizing(aut):
        raise NotSynchronizingError("totally_extensible_synchronizing needs a synchronizing automaton")

    comps = scc(aut)
    sink_ids = comps.sink_components()
    assert len(sink_ids) == 1, "a synchronizing automaton has exactly one sink component"
    return any(q in s for q in comps.components[sink_ids[0]])
