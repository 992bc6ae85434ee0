"""The power-set searches that everything else is validated against."""

import math
import random
import tracemalloc

import pytest

from preimages import (Automaton, BudgetExceededError, StateSet, Word, apply_word,
                       backward_subset_bfs, forward_subset_bfs, oracle_shortest,
                       oracle_shortest_reset, preimage_word, random_automaton,
                       serialize_automaton)
from preimages import oracle as oracle_mod
from preimages.cli import main
from preimages.automaton import _step_tables
from preimages.automaton import PROBLEMS, problem_goal


def test_backward_reachable_families(c4, p3, ch2):
    res = backward_subset_bfs(ch2, ch2.state_set([1]))
    assert set(res.reached) == {0b10, 0b11}

    res = backward_subset_bfs(c4, c4.state_set([1, 2]))
    target = c4.state_set([0, 1, 3]).bits
    assert res.word_to(target) == Word.from_text("ba")

    res = backward_subset_bfs(p3, p3.state_set([0]))
    assert all(bits.bit_count() == 1 for bits in res.reached)


def test_oracle_shortest_goals(c4, p3, ch2):
    assert oracle_shortest(c4, c4.state_set([1, 2]), "extend") == Word.from_text("ba")
    assert oracle_shortest(p3, p3.state_set([0, 1]), "resize") is None
    assert oracle_shortest(ch2, ch2.state_set([1]), "avoid") is None
    assert oracle_shortest(ch2, ch2.state_set([0]), "avoid") == Word.from_text("a")


def test_oracle_goal_validation(c4):
    with pytest.raises(ValueError):
        oracle_shortest(c4, c4.state_set([0]), "compressing")
    with pytest.raises(ValueError):
        oracle_shortest(c4, c4.state_set([0]), "extending")


def test_oracle_shortest_matches_the_full_search(c4):
    # The early-stopped search answers exactly what the first match on the
    # full power-set search answers, and never generates more subsets.
    rng = random.Random(17)
    singleton = lambda bits: bits.bit_count() == 1
    corpus = [(c4, c4.state_set([1, 2]))]
    for _ in range(300):
        n = rng.randint(1, 8)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        corpus.append((aut, StateSet(n, rng.randrange(1 << n))))
    for aut, s in corpus:
        full = backward_subset_bfs(aut, s)
        for problem in PROBLEMS:
            want = problem_goal(problem, aut.n, s.size)
            hit = next(filter(want, full.reached), None)
            assert oracle_shortest(aut, s, problem) == _word_to(full, hit)
            stopped = backward_subset_bfs(aut, s, stop=want)
            assert len(stopped.reached) <= len(full.reached)
            assert stopped.hit == hit
        full = forward_subset_bfs(aut)
        hit = next(filter(singleton, full.reached), None)
        assert oracle_shortest_reset(aut) == _word_to(full, hit)
        stopped = forward_subset_bfs(aut, stop=singleton)
        assert len(stopped.reached) <= len(full.reached)


def _word_to(res, bits):
    return None if bits is None else res.word_to(bits)


def _reference_step(aut, bits, a, direction):
    """One letter's step read off the transition table alone, independent of
    the kernel's masks: the image {q.a : q in T} or the preimage
    {p : p.a in T}."""
    rows = aut.rows
    if direction == "image":
        return sum({1 << rows[q][a] for q in range(aut.n) if bits >> q & 1})
    return sum(1 << p for p in range(aut.n) if bits >> rows[p][a] & 1)


def _reference_bfs(aut, start_bits, direction):
    """The power-set BFS of ``_reference_step``: every reached subset in
    generation order, with the word that reaches it."""
    reached = {start_bits: Word()}
    frontier = [start_bits]
    while frontier:
        next_frontier = []
        for bits in frontier:
            for a in range(aut.k):
                child = _reference_step(aut, bits, a, direction)
                if child not in reached:
                    word = reached[bits]
                    reached[child] = (Word([a]) + word if direction == "preimage"
                                      else word + Word([a]))
                    next_frontier.append(child)
        frontier = next_frontier
    return reached


def _assert_matches_reference(res, aut, start_bits):
    """The kernel's generation order, and the word to every reached subset,
    which fixes its depth, the letter of its step and its predecessor."""
    expected = _reference_bfs(aut, start_bits, res.direction)
    assert list(res.reached) == list(expected)
    assert {bits: res.word_to(bits) for bits in res.reached} == expected
    return expected


def _table_step(tables, bits, h):
    low, high = tables
    return low[bits & (1 << h) - 1] | high[bits >> h]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 20, 21, 24])
def test_chunk_table_step_matches_per_state_step(n):
    rng = random.Random(n)
    aut = random_automaton(n, 3, seed=500 + n)
    if n <= 9:
        patterns = range(1 << n)
    else:
        patterns = [0, (1 << n) - 1] + [1 << q for q in range(n)]
        patterns += [rng.randrange(1 << n) for _ in range(2000)]
    for direction in ("preimage", "image"):
        tables = _step_tables(aut.step_masks(direction), aut.n)
        assert len(tables) == aut.k
        h = (n + 1) // 2
        step = getattr(aut, f"{direction}_bits")
        for a, halves in enumerate(tables):
            # Two chunks, the states split at ceil(n/2): 2^ceil(n/2) and
            # 2^floor(n/2) entries.
            assert [len(table) for table in halves] == [1 << h, 1 << n // 2]
            for bits in patterns:
                want = _reference_step(aut, bits, a, direction)
                assert _table_step(halves, bits, h) == want and step(bits, a) == want

    cap = 25 if n > 20 else 20  # above 20 states the searches keep the dict store throughout
    for _ in range(3):
        s = StateSet(n, rng.randrange(1 << n))
        back = backward_subset_bfs(aut, s, state_cap=cap)
        _assert_matches_reference(back, aut, s.bits)
        fwd = forward_subset_bfs(aut, s, state_cap=cap)
        _assert_matches_reference(fwd, aut, s.bits)
        assert back.hit is None and fwd.hit is None


def test_oracle_searches_go_through_module_functions(c4, monkeypatch, tmp_path, capsys):
    # bench/spans.py counts the oracle's subsets by wrapping these two module
    # functions, so the oracle must look them up at call time.
    calls = []

    def counting(name):
        original = getattr(oracle_mod, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("backward_subset_bfs", "forward_subset_bfs"):
        monkeypatch.setattr(oracle_mod, name, counting(name))
    s = c4.state_set([1, 2])
    for problem in PROBLEMS:
        oracle_shortest(c4, s, problem)
    oracle_shortest_reset(c4)
    assert calls == ["backward_subset_bfs"] * len(PROBLEMS) + ["forward_subset_bfs"]

    path = tmp_path / "cerny4.aut"
    path.write_text(serialize_automaton(c4))
    del calls[:]
    assert main(["check", str(path), "--subset", "1,2", "--problem", "extend",
                 "--method", "oracle"]) == 0
    assert main(["reset", str(path), "--method", "oracle"]) == 0
    assert calls == ["backward_subset_bfs", "forward_subset_bfs"]
    capsys.readouterr()


def test_oracle_reset_and_min_rank(c4, p3, ch2):
    w = oracle_shortest_reset(c4)
    assert len(w) == 9 and apply_word(c4, StateSet.full(4), w).size == 1
    assert oracle_shortest_reset(ch2) == Word.from_text("a")
    assert oracle_shortest_reset(p3) is None
    # The minimal rank is the smallest image of Q over all words.
    assert min(bits.bit_count() for bits in forward_subset_bfs(p3).reached) == 3
    assert min(bits.bit_count() for bits in forward_subset_bfs(c4).reached) == 1


def test_word_reconstruction_reproduces_stored_subsets():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 6)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        back = backward_subset_bfs(aut, s)
        for bits, w in _assert_matches_reference(back, aut, s.bits).items():
            assert preimage_word(aut, s, w).bits == bits
        fwd = forward_subset_bfs(aut, s)
        for bits, w in _assert_matches_reference(fwd, aut, s.bits).items():
            assert apply_word(aut, s, w).bits == bits
        assert len(back.reached) <= 1 << n
        assert len(fwd.reached) <= 1 << n


def test_state_cap_and_node_limit():
    big = random_automaton(21, 2, seed=1)
    with pytest.raises(BudgetExceededError):
        backward_subset_bfs(big, StateSet.full(21))
    # explicit override allows it
    res = backward_subset_bfs(big, StateSet.full(21), state_cap=25)
    assert res.reached  # Q . a^-1 = Q, tiny family
    aut = random_automaton(10, 2, seed=2)
    with pytest.raises(BudgetExceededError):
        forward_subset_bfs(aut, node_limit=3)


def test_state_cap_admits_a_cut_only_within_two_to_the_cap_subsets():
    # A cut at depth L holds at most 1 + k + ... + k^L subsets; above the cap
    # it runs only when that bound is at most 2^cap.
    for k, fits in ((1, 7), (2, 2), (3, 1)):
        aut = random_automaton(5, k, seed=k)
        s = aut.state_set([0, 1])
        for depth in range(fits + 1):
            res = backward_subset_bfs(aut, s, state_cap=3, max_depth=depth)
            assert list(res.reached) == list(backward_subset_bfs(aut, s, max_depth=depth).reached)
        for depth in (-1, fits + 1, 10 ** 6):
            with pytest.raises(BudgetExceededError, match="n=5 exceeds cap 3"):
                backward_subset_bfs(aut, s, state_cap=3, max_depth=depth)


def test_identical_letters_resolve_to_the_smaller_one(c4):
    # Letters 1 and 2 act alike; the search records the smaller, so the
    # stored letters, words and witnesses are those without letter 2.
    doubled = Automaton([row + row[1:] for row in c4.rows])
    for s in (c4.state_set([1, 2]), c4.state_set([0])):
        plain, twin = backward_subset_bfs(c4, s), backward_subset_bfs(doubled, s)
        assert list(twin.reached) == list(plain.reached)
        assert all(twin.word_to(bits) == plain.word_to(bits) for bits in plain.reached)
        for problem in PROBLEMS:
            assert oracle_shortest(doubled, s, problem) == oracle_shortest(c4, s, problem)
    assert forward_subset_bfs(doubled).word_to(0b1000) == forward_subset_bfs(c4).word_to(0b1000)


@pytest.mark.parametrize("n, cap", [(6, 20), (21, 25)])  # flat store, dict store
def test_reached_view(n, cap):
    aut = random_automaton(n, 2, seed=1)
    start = (1 << n) - 1
    res = forward_subset_bfs(aut, state_cap=cap)
    reached = res.reached
    expected = _assert_matches_reference(res, aut, start)
    assert len(reached) == len(expected) < 1 << n
    unreached = next(bits for bits in range(1 << n) if bits not in expected)
    for bits in (unreached, -1, 1 << n):
        assert bits not in reached
        with pytest.raises(KeyError):
            res.word_to(bits)
    # the node limit counts reached subsets: exactly that many is enough
    assert len(forward_subset_bfs(aut, node_limit=len(reached), state_cap=cap).reached) \
        == len(reached)
    with pytest.raises(BudgetExceededError):
        forward_subset_bfs(aut, node_limit=len(reached) - 1, state_cap=cap)


@pytest.mark.parametrize("n, cap", [(6, 20), (21, 25)])
def test_budget_of_exactly_the_reached_subsets_answers(n, cap, tmp_path, capsys):
    aut = random_automaton(n, 2, seed=1)
    path = tmp_path / "a.aut"
    path.write_text(serialize_automaton(aut))
    # the budget counts the subsets generated up to and including the hit
    s = aut.state_set([0, 1])
    stop = problem_goal("avoid", aut.n, s.size)
    nodes = len(backward_subset_bfs(aut, s, state_cap=cap, stop=stop).reached)
    argv = ["check", str(path), "--subset", "0,1", "--problem", "avoid",
            "--method", "oracle", "--oracle-cap", str(cap), "--json"]
    assert main(argv + ["--budget", str(nodes)]) == 0
    assert main(argv + ["--budget", str(nodes - 1)]) == 2
    capsys.readouterr()


def test_permutation_sweep_memory():
    # The full backward sweep of a permutation automaton reaches every
    # 9-subset of 18 states, and holds 4 bytes per possible subset plus
    # 4 per reached one: about 1.2 MB.
    aut = random_automaton(18, 2, seed=0, constraint="permutation")
    tracemalloc.start()
    try:
        res = backward_subset_bfs(aut, StateSet(18, (1 << 9) - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.reached) == math.comb(18, 9)
    assert peak < 4_000_000


@pytest.mark.parametrize("search", [
    lambda aut: forward_subset_bfs(aut, state_cap=4),
    lambda aut: backward_subset_bfs(aut, StateSet(5, 1), state_cap=4),
], ids=["forward", "backward"])
def test_uncut_searches_above_the_state_cap_are_refused(search):
    with pytest.raises(BudgetExceededError) as exc:
        search(random_automaton(5, 2, seed=1))
    assert str(exc.value) == "power-set search refused: n=5 exceeds cap 4"
