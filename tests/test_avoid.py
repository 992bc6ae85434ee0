"""Subset avoidance through the rank partition."""

import random
import tracemalloc
from math import comb

from preimages import (StateSet, Word, apply_word, avoidable_state, avoiding_word,
                       backward_subset_bfs, minimal_rank_word, preimage_word,
                       random_automaton, rank_partition)
from preimages.automaton import problem_goal


def test_rank_partition_reference(c4, p3, ch2):
    part = rank_partition(p3, p3.state_set([0]))
    assert part.word == Word() and len(part.classes) == 3 and part.z == 1

    part = rank_partition(c4, c4.state_set([0]))
    assert len(part.classes) == 1 and part.classes[0] == StateSet.full(4) and part.z == 1

    part = rank_partition(ch2, ch2.state_set([1]))
    assert len(part.classes) == 1 and part.z == 1


def test_rank_partition_classes_are_preimages_of_image_states():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        part = rank_partition(aut, s)
        assert len(part.classes) == minimal_rank_word(aut).rank
        union = 0
        for cls, rep in zip(part.classes, part.representatives):
            # class = rep . u^-1 computed directly
            got = aut.state_set([q for q in range(n) if _act(aut, q, part.word) == rep])
            assert cls == got
            assert (union & cls.bits) == 0
            union |= cls.bits
        assert union == (1 << n) - 1
        assert part.z == sum(1 for cls in part.classes if cls.bits & s.bits)


def _act(aut, q, word):
    for a in word:
        q = aut.rows[q][a]
    return q


def test_avoiding_word_reference(c4, p3, ch2):
    w = avoiding_word(c4, c4.state_set([0]))
    assert w is not None and 0 not in apply_word(c4, StateSet.full(4), w)
    assert avoiding_word(p3, p3.state_set([0])) is None
    assert avoiding_word(ch2, ch2.state_set([1])) is None
    assert avoiding_word(ch2, ch2.state_set([0])) is not None


def test_avoiding_edge_subsets(c4):
    assert avoiding_word(c4, StateSet.empty(4)) == Word()
    assert avoiding_word(c4, StateSet.full(4)) is None


def test_avoiding_matches_oracle_and_verifies():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        bits = rng.randrange(1 << n)
        s = StateSet(n, bits)
        w = avoiding_word(aut, s)
        res = backward_subset_bfs(aut, s)
        oracle_says = any(map(problem_goal("avoid", aut.n, s.size), res.reached))
        assert (w is None) == (not oracle_says)
        if w is not None:
            assert apply_word(aut, StateSet.full(n), w).bits & bits == 0
            part = rank_partition(aut, s)
            assert len(w) <= len(part.word) + comb(n, part.z)


def test_avoiding_word_is_totally_extending_for_complement():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 6)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        bits = rng.randrange(1 << n)
        s = StateSet(n, bits)
        w = avoiding_word(aut, s)
        if w is not None:
            assert preimage_word(aut, s.complement(), w) == StateSet.full(n)


def test_single_state_agreement_with_avoidable_state():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        q = rng.randrange(n)
        assert (avoiding_word(aut, aut.state_set([q])) is not None) == avoidable_state(aut, q)


def test_permutation_avoid_memory():
    # Every letter of a permutation automaton is a bijection, so Q . w = Q
    # meets S for every word.  The rank partition is into singletons, so the
    # search starts from every 3-subset and stores all C(60, 3) of them; one
    # parent int per node keeps that below 100 bytes a node (2.8 MB).
    aut = random_automaton(60, 2, seed=0, constraint="permutation")
    stats = {}
    tracemalloc.start()
    try:
        w = avoiding_word(aut, aut.state_set([0, 1, 2]), stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is None and stats["nodes"] == comb(60, 3) == 34_220
    assert peak < 100 * stats["nodes"]
