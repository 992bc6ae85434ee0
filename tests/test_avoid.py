"""Subset avoidance: the one search for S·w⁻¹ = ∅, which extend-total runs on Q∖S."""

import io
import json
import random
import tracemalloc
from contextlib import redirect_stdout
from itertools import combinations
from math import comb

import pytest

from preimages import (Automaton, StateSet, Word, apply_word, avoidable_state, avoiding_word,
                       backward_subset_bfs, cerny_automaton, minimal_rank_word,
                       oracle_shortest, preimage_word, random_automaton, serialize_automaton)
from preimages.automaton import problem_goal
from preimages.search import subset_bfs
from preimages.cli import main


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
            rank = minimal_rank_word(aut)
            z = len({rank.classes[q] for q in s})
            assert len(w) <= len(rank.word) + comb(n, z)


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
    # meets S for every word.  Its minimal-rank classes are singletons, so
    # the z-subset search starts from every 3-subset and stores all C(60, 3)
    # of them; one parent int per node keeps that below 100 bytes a node
    # (2.8 MB).  No state outside S shares a class with S, so no image is a
    # goal.  (avoiding_word answers this query with no search: every image
    # has 60 states, too many to miss S.)
    aut = random_automaton(60, 2, seed=0, constraint="permutation")
    sources = (sum(1 << q for q in states) for states in combinations(range(60), 3))
    stats = {}
    tracemalloc.start()
    try:
        res = subset_bfs(aut, sources, "image", lambda bits: False, 10**6, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.hit is None and stats["nodes"] == comb(60, 3) == 34_220
    assert peak < 100 * stats["nodes"]
    stats = {}
    assert avoiding_word(aut, aut.state_set([0, 1, 2]), stats=stats) is None
    assert stats == {}


def _check(path, problem, s, *options):
    """``preimages check --json --witness``: (exit code, report)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", str(path), "--subset", ",".join(map(str, sorted(s))), "--problem",
                     problem, "--witness", "--json", *options])
    return code, json.loads(out.getvalue())


def test_router_avoid_and_extend_total_match_the_oracle(tmp_path):
    # Both problems through the CLI router, unbounded and under --max-len
    # 0..3, against the power-set oracle's shortest word: the same answer,
    # every witness re-verified here and no longer than the bound.
    rng = random.Random(20261019)
    checked = 0
    for i in range(200):
        n, k = rng.randint(1, 8), rng.randint(1, 3)
        constraint = ("none", "strongly-connected", "synchronizing", "permutation", "none")[i % 5]
        aut = random_automaton(n, k, seed=rng.randrange(10**9), constraint=constraint)
        path = tmp_path / f"r{i}.aut"
        path.write_text(serialize_automaton(aut))
        for _ in range(2):
            s = StateSet(n, rng.randrange(1 << n))
            for problem in ("avoid", "extend-total"):
                shortest = oracle_shortest(aut, s, problem)
                for max_len in (None, 0, 1, 2, 3):
                    bound = () if max_len is None else ("--max-len", str(max_len))
                    code, report = _check(path, problem, s, *bound)
                    where = (i, aut.rows, s, problem, max_len, report)
                    yes = shortest is not None and (max_len is None or len(shortest) <= max_len)
                    assert (code, report["answer"]) == ((0, "yes") if yes else (1, "no")), where
                    if yes:
                        w = Word.from_text(report["witness"])
                        assert max_len is None or len(w) <= max_len, where
                        assert len(w) >= len(shortest), where
                        if problem == "avoid":
                            assert apply_word(aut, StateSet.full(n), w).bits & s.bits == 0, where
                        else:
                            assert preimage_word(aut, s, w) == StateSet.full(n), where
                    checked += 1
    assert checked == 200 * 2 * 2 * 5


def _union(a, b):
    return Automaton([list(r) for r in a.rows] + [[q + a.n for q in r] for r in b.rows])


def _two_state_pairs(m):
    """2m states, 2m letters: letter 2i sends 2i+1 to 2i, letter 2i+1 sends 2i
    to 2i+1, and every other entry is a fixed point."""
    rows = [[q] * (2 * m) for q in range(2 * m)]
    for i in range(m):
        rows[2 * i + 1][2 * i] = 2 * i
        rows[2 * i][2 * i + 1] = 2 * i + 1
    return Automaton(rows)


@pytest.mark.parametrize("family", ("permutation+cerny", "twins", "pairs"))
def test_raced_strategies_stay_cheap_where_one_alone_is_not(tmp_path, family):
    # Each strategy alone loses by orders of magnitude on one of these:
    # from the z-subsets of Q.u, avoid takes 25,480 subsets on P(40) + Cerny(20)
    # and 184,756 on 20 twin states; from Q.u alone, extend-total takes 4,096
    # on 12 disjoint two-state pairs.  Raced, no query takes more than 100.
    # Only the twins' extend-total answers "yes": one letter maps Q into the
    # first 20 states.  Elsewhere some part of the automaton (the permutation,
    # the twins' image, the first pair) keeps a state of S in every image.
    if family == "permutation+cerny":
        aut = _union(random_automaton(40, 2, seed=1, constraint="permutation"),
                     cerny_automaton(20))
        avoid, total, codes = {0, 1, 2}, set(range(60)) - {0, 1, 2}, (1, 1)
    elif family == "twins":
        perm = random_automaton(20, 2, seed=1, constraint="permutation")
        aut = Automaton([list(r) for r in perm.rows] * 2)
        avoid, total, codes = set(range(0, 20, 2)), set(range(20)) | {21}, (1, 0)
    else:
        aut = _two_state_pairs(12)
        avoid, total, codes = {0, 1}, set(range(24)) - {0, 1}, (1, 1)
    path = tmp_path / "family.aut"
    path.write_text(serialize_automaton(aut))
    for problem, s, expect in (("avoid", avoid, codes[0]), ("extend-total", total, codes[1])):
        code, report = _check(path, problem, s)
        assert code == expect and report["stats"]["nodes"] <= 100, (problem, report)
