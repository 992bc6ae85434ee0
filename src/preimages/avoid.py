"""Finding a word whose image misses a given subset of states.

The search follows the minimal-rank characterization: with u a word of
minimal rank, group states into classes by their image under u.  A word
avoiding S exists iff some z-subset of Q.u (z = number of classes meeting S)
can be driven to hit every such class outside S.  Since subsets of the
incompressible image Q.u never change size under the action, one
multi-source BFS over exact-size-z subsets decides the question; on success
the answer is u followed by the path word.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from .automaton import Automaton, StateSet, Word, subset_bfs
from .errors import DEFAULT_NODE_BUDGET
from .pairs import minimal_rank_word


class RankPartition(NamedTuple):
    """Partition of Q by the action of a minimal-rank word u.

    Two states share a class iff u maps them to the same state; class i is
    exactly ``representatives[i] . u^-1``.  ``z`` counts the classes that
    intersect the query subset S.
    """

    word: Word
    image: StateSet
    classes: tuple[StateSet, ...]
    representatives: tuple[int, ...]
    z: int


def rank_partition(aut: Automaton, s: StateSet) -> RankPartition:
    aut.check_set(s)
    rank = minimal_rank_word(aut)
    reps = sorted(set(rank.classes))
    rep_index = {p: i for i, p in enumerate(reps)}
    class_bits = [0] * len(reps)
    for q, p in enumerate(rank.classes):
        class_bits[rep_index[p]] |= 1 << q

    z = sum(1 for bits in class_bits if bits & s.bits)
    assert len(reps) == rank.rank
    return RankPartition(
        word=rank.word,
        image=rank.image,
        classes=tuple(StateSet(aut.n, bits) for bits in class_bits),
        representatives=tuple(reps),
        z=z,
    )


def avoiding_word(aut: Automaton, s: StateSet, budget: int = DEFAULT_NODE_BUDGET,
                  stats: Optional[dict] = None) -> Optional[Word]:
    """A word w with (Q . w) disjoint from S, or None iff S is unavoidable.

    The empty subset is avoided by the empty word; S = Q is never avoidable
    because images are never empty.  A word is returned only after the goal
    test certifies one state per S-touching class, each outside S.
    """
    aut.check_set(s)
    if s.size == 0:
        return Word()
    if s.size == aut.n:
        return None

    part = rank_partition(aut, s)
    z = part.z
    s_bits = s.bits
    # States outside S whose class meets S; a node holds at most one state
    # per class, so it is a goal once z of its states lie here.
    good_mask = 0
    for c in part.classes:
        if c.bits & s_bits:
            good_mask |= c.bits & ~s_bits

    def is_goal(bits: int) -> bool:
        assert bits.bit_count() == z, "image of a subset of the minimal image changed size"
        return (bits & good_mask).bit_count() == z

    sources = (sum(1 << q for q in states) for states in combinations(sorted(part.image), z))
    res = subset_bfs(aut, sources, "image", is_goal, budget, stats)
    return None if res.hit is None else part.word + res.word_to(res.hit)
