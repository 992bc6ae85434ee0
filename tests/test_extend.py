"""Extending-word searches and the synchronizing fast path."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from preimages import (BudgetExceededError, NotSynchronizingError, StateSet, Word,
                       apply_word, backward_subset_bfs, greedy_reset_word,
                       is_strongly_connected, is_synchronizing, preimage_word, random_automaton,
                       shortest_extending_word_small, totally_extending_word_small,
                       totally_extensible_synchronizing)
from preimages.automaton import problem_goal


def test_extend_worked_example(c4):
    assert shortest_extending_word_small(c4, c4.state_set([1, 2])) == Word.from_text("ba")


def test_extend_trivial_cases(p3, ch2):
    assert shortest_extending_word_small(p3, p3.state_set([0])) is None
    assert shortest_extending_word_small(ch2, ch2.state_set([1])) == Word.from_text("a")


def test_extend_edge_subsets(c4):
    assert shortest_extending_word_small(c4, StateSet.empty(4)) is None
    assert shortest_extending_word_small(c4, StateSet.full(4)) is None


def test_extend_budget_is_an_error_not_an_answer(c4):
    with pytest.raises(BudgetExceededError):
        shortest_extending_word_small(c4, c4.state_set([1, 2]), budget=2)


def test_extend_permutation_sweep_memory():
    # No preimage of a 9-subset of a permutation automaton grows, so the
    # search reaches all C(18, 9) of them: 4 bytes per possible subset plus
    # 4 per reached one is about 1.2 MB.
    aut = random_automaton(18, 2, seed=0, constraint="permutation")
    stats = {}
    tracemalloc.start()
    try:
        assert shortest_extending_word_small(aut, StateSet(18, (1 << 9) - 1), stats=stats) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["nodes"] == math.comb(18, 9)
    assert peak < 2_000_000


def test_one_step_extend_allocates_no_flat_store():
    # The first level of the search runs on the dict store; the 4 MiB flat
    # store at n = 20 waits for a second level, which this search never needs.
    aut = random_automaton(20, 2, seed=5)
    stats = {}
    tracemalloc.start()
    try:
        word = shortest_extending_word_small(aut, aut.state_set([0, 1]), stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == Word.from_text("a") and stats["nodes"] == 2
    assert peak < 1 << 20


def test_extend_matches_oracle_decision_and_length():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        w = shortest_extending_word_small(aut, s)
        res = backward_subset_bfs(aut, s)
        hit = next(filter(problem_goal("extend", aut.n, s.size), res.reached), None)
        if hit is None:
            assert w is None
        else:
            assert w == res.word_to(hit)
            assert preimage_word(aut, s, w).size > s.size


def test_extend_deep_instances_match_oracle():
    """Cycle with one merging defect: the only extending route walks the
    whole cycle, so shortest extending words reach length n."""
    from preimages import Automaton

    for n in range(3, 13):
        aut = Automaton([[(q + 1) % n, 0 if q == 1 else q] for q in range(n)])
        s = StateSet.from_states(n, [n - 1])
        w = shortest_extending_word_small(aut, s)
        res = backward_subset_bfs(aut, s)
        hit = next(filter(problem_goal("extend", aut.n, s.size), res.reached))
        assert w is not None and len(w) == len(res.word_to(hit)) == n
        assert preimage_word(aut, s, w).size > 1


def test_totally_extending_examples(c4, p3, ch2):
    assert totally_extending_word_small(p3, p3.state_set([0, 1])) is None
    w = totally_extending_word_small(ch2, ch2.state_set([1]))
    assert w == Word.from_text("a")
    assert preimage_word(ch2, ch2.state_set([1]), w).size == 2
    w = totally_extending_word_small(c4, c4.state_set([0]))
    assert w is not None
    assert apply_word(c4, StateSet.full(4), w) == c4.state_set([0])


def test_totally_extending_matches_oracle_decision():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        w = totally_extending_word_small(aut, s)
        res = backward_subset_bfs(aut, s)
        oracle_says = any(map(problem_goal("extend-total", aut.n, s.size), res.reached))
        assert (w is None) == (not oracle_says)
        if w is not None:
            assert preimage_word(aut, s, w).size == n


def test_totally_extensible_synchronizing(c4, ch2, p3):
    assert totally_extensible_synchronizing(c4, c4.state_set([2]))
    assert not totally_extensible_synchronizing(ch2, ch2.state_set([0]))
    assert totally_extensible_synchronizing(ch2, ch2.state_set([1]))
    assert totally_extending_word_small(ch2, ch2.state_set([1])) == Word.from_text("a")
    with pytest.raises(NotSynchronizingError):
        totally_extensible_synchronizing(p3, p3.state_set([0]))


def _reset_then_nearest_state(aut, s):
    """The greedy reset word, then a shortest path (FIFO, letters ascending)
    from its single image state to the nearest state of S."""
    reset = greedy_reset_word(aut)
    start = next(iter(apply_word(aut, StateSet.full(aut.n), reset)))
    back, frontier = {start: None}, [start]
    while not any(q in s for q in frontier):
        nxt = []
        for q in frontier:
            for a in range(aut.k):
                p = aut.rows[q][a]
                if p not in back:
                    back[p] = (q, a)
                    nxt.append(p)
        frontier = nxt
    q, path = next(q for q in frontier if q in s), []
    while back[q] is not None:
        q, a = back[q]
        path.append(a)
    return reset + Word(reversed(path))


def test_totally_extensible_synchronizing_witnesses_verify():
    # On a synchronizing automaton the minimal-rank search is the greedy reset
    # word followed by a shortest walk from its image state into S.
    rng = random.Random(13)
    done = 0
    while done < 60:
        n = rng.randint(2, 7)
        aut = random_automaton(n, rng.randint(2, 3), seed=rng.randrange(10**9))
        if not is_synchronizing(aut):
            continue
        done += 1
        bits = rng.randrange(1, 1 << n)
        s = StateSet(n, bits)
        decision = totally_extensible_synchronizing(aut, s)
        w = totally_extending_word_small(aut, s)
        assert decision == (w is not None)
        if decision:
            assert preimage_word(aut, s, w).size == n
            assert w == _reset_then_nearest_state(aut, s)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6), st.data())
def test_strongly_connected_synchronizing_every_proper_subset_totally_extensible(seed, n, data):
    aut = random_automaton(n, 2, seed=seed)
    if not (is_synchronizing(aut) and is_strongly_connected(aut)):
        return
    bits = data.draw(st.integers(1, (1 << n) - 2))
    s = StateSet(n, bits)
    assert totally_extensible_synchronizing(aut, s)
    assert totally_extending_word_small(aut, s) is not None
