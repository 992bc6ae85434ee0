"""The one search for S·w⁻¹ = ∅ (a word whose image misses S), which
extend-total runs on Q∖S.

With u a minimal-rank word, every image has at least rank(u) states, so
if fewer lie outside S the answer is no.  Otherwise ``automaton.race``
runs these exact searches in lock-step under one node budget, since each
loses by orders of magnitude on inputs another wins:

- forward from Q·u alone, for an image that misses S: Q·u·v ⊆ Q·v, so
  u·v avoids S whenever any word v does;
- forward from every z-subset of Q·u, z the number of u's classes that
  meet S, for z states outside S: images of Q·u keep one state per class,
  so the other classes add none of S.  This bounds the search by about
  n^z, the paper's parameter |S|; at z = rank it is the first search;
- with a bound L, back from S to depth L for an empty preimage: its first
  hit is a shortest witness.

``race`` returns the first exact answer: a hit whose word has at most L
letters, or an exhausted search; a longer word drops only its search.
The words of the forward searches, u and then the path, need not be
shortest.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .automaton import Automaton, StateSet, Word, problem_goal, race, subset_search
from .errors import DEFAULT_NODE_BUDGET
from .pairs import minimal_rank_word


def avoiding_word(aut: Automaton, s: StateSet, budget: int = DEFAULT_NODE_BUDGET,
                  stats: Optional[dict] = None,
                  max_len: Optional[int] = None) -> Optional[Word]:
    """A word w with (Q . w) disjoint from S, or None iff S is unavoidable (by
    a word of at most ``max_len`` letters, when given).

    The empty subset is avoided by the empty word; S = Q is never avoidable
    because images are never empty.  All the searches together discover at
    most ``budget`` subsets, or BudgetExceededError is raised.
    """
    aut.check_set(s)
    if s.size == 0:
        return Word()
    rank = minimal_rank_word(aut)
    if rank.rank > aut.n - s.size:
        return None

    s_bits = s.bits
    touched = {rank.classes[q] for q in s}  # the image states of the classes meeting S
    z = len(touched)
    # States outside S whose class meets S; an image of a z-subset holds at
    # most one state per class, so it is a goal once z of its states lie here.
    good_mask = sum(1 << q for q, p in enumerate(rank.classes) if p in touched) & ~s_bits

    def is_goal(bits: int) -> bool:
        assert bits.bit_count() == z, "image of a subset of the minimal image changed size"
        return (bits & good_mask).bit_count() == z

    entries = [(rank.word, subset_search(aut, [rank.image.bits], "image",
                                         lambda bits: bits & s_bits == 0))]
    if z < rank.rank:
        sources = (sum(1 << q for q in states) for states in combinations(rank.image, z))
        entries.append((rank.word, subset_search(aut, sources, "image", is_goal)))
    if max_len is not None:
        entries.append((Word(), subset_search(aut, [s_bits], "preimage",
                                              problem_goal("avoid", aut.n, s.size), max_len)))
    return race(entries, budget, stats, max_len)[1]
