"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-4, 6 and 7 share two corpora built once per session:
  * every binary 3-state automaton (all 729 transition tables) with every
    subset of its states,
  * ten thousand seeded random automata with up to 7 states and 3 letters,
    each with a random subset.
The exhaustive power-set oracle is the reference on every instance; all
comparisons demand zero mismatches.  Run with ``pytest -s`` (or ``-rA``) to
see the per-criterion lines.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from preimages import (StateSet, Word, apply_word, avoidable_state, avoiding_word,
                       backward_subset_bfs, forward_subset_bfs,
                       greedy_reset_word, is_synchronizing, oracle_shortest_reset,
                       pair_table, preimage_word, random_automaton, scc, sink_state,
                       shortest_extending_word_small, shortest_resizing_word,
                       totally_extending_word_small, totally_extensible_synchronizing,
                       resizable_decision_fast, is_strongly_connected, Automaton,
                       DfaWithAcceptance, NotSynchronizingError, binarize, intersection_gadget,
                       languages_intersect, large_extend_gadget, sink_binarize)
from preimages.gadgets import trim_reachable
from preimages.automaton import PROBLEMS, problem_goal


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@dataclass
class SweepResult:
    instances: int = 0
    automata: int = 0
    synchronizing_instances: int = 0
    mismatches: list = field(default_factory=list)
    fastpath_mismatches: list = field(default_factory=list)
    avoidable_mismatches: list = field(default_factory=list)
    characterization_mismatches: list = field(default_factory=list)
    greedy_failures: list = field(default_factory=list)
    resize_bound_violations: list = field(default_factory=list)
    max_resize_length: int = -1


def _run_instance(aut, bits, result: SweepResult):
    """Cross-validate the four preimage problems on (automaton, subset)."""
    n = aut.n
    s = StateSet(n, bits)
    back = backward_subset_bfs(aut, s)
    truth = {}
    for problem in PROBLEMS:
        hit = next(filter(problem_goal(problem, n, s.size), back.reached), None)
        truth[problem] = None if hit is None else len(back.word_to(hit))

    key = (aut.rows, bits)
    result.instances += 1

    w = shortest_extending_word_small(aut, s)
    if (w is None) != (truth["extend"] is None):
        result.mismatches.append(("extend-decision",) + key)
    elif w is not None:
        if len(w) != truth["extend"]:
            result.mismatches.append(("extend-length",) + key)
        if preimage_word(aut, s, w).size <= s.size:
            result.mismatches.append(("extend-verify",) + key)

    w = totally_extending_word_small(aut, s)
    if (w is None) != (truth["extend-total"] is None):
        result.mismatches.append(("totally-extend-decision",) + key)
    elif w is not None and preimage_word(aut, s, w).size != n:
        result.mismatches.append(("totally-extend-verify",) + key)

    w = avoiding_word(aut, s)
    if (w is None) != (truth["avoid"] is None):
        result.mismatches.append(("avoid-decision",) + key)
    elif w is not None and apply_word(aut, StateSet.full(n), w).bits & bits:
        result.mismatches.append(("avoid-verify",) + key)

    w = shortest_resizing_word(aut, s)
    if (w is None) != (truth["resize"] is None):
        result.mismatches.append(("resize-decision",) + key)
    elif w is not None:
        if len(w) != truth["resize"]:
            result.mismatches.append(("resize-length",) + key)
        if preimage_word(aut, s, w).size == s.size:
            result.mismatches.append(("resize-verify",) + key)
        result.max_resize_length = max(result.max_resize_length, len(w))
        if len(w) > n - 1:
            result.resize_bound_violations.append(key)

    return truth


def _run_sync_checks(aut, bits, truth, sync: bool, result: SweepResult):
    """Fast-path equivalences on a synchronizing automaton; on any other,
    both fast paths must refuse with NotSynchronizingError."""
    n = aut.n
    s = StateSet(n, bits)
    key = (aut.rows, bits)
    if not sync:
        for name, fast in (("totally-extend", totally_extensible_synchronizing),
                           ("resize", resizable_decision_fast)):
            try:
                fast(aut, s)
            except NotSynchronizingError:
                continue
            result.fastpath_mismatches.append((name + " on non-synchronizing",) + key)
        return
    result.synchronizing_instances += 1

    sink_ids = scc(aut).sink_components()
    sink_members = set(scc(aut).components[sink_ids[0]]) if len(sink_ids) == 1 else set()
    meets_sink = any(((bits >> q) & 1) for q in sink_members)
    fast_tot = totally_extensible_synchronizing(aut, s)
    if fast_tot != (truth["extend-total"] is not None) or fast_tot != meets_sink:
        result.fastpath_mismatches.append(("totally-extend",) + key)

    fast_resize = resizable_decision_fast(aut, s)
    if fast_resize != (truth["resize"] is not None) or fast_resize != (0 < s.size < n):
        result.fastpath_mismatches.append(("resize",) + key)


def _run_avoidable_checks(aut, fwd_reached, result: SweepResult, characterization: bool):
    """avoidable_state against the forward oracle, and in strongly connected
    automata the compressible-pair characterization against it too."""
    n = aut.n
    for q in range(n):
        oracle_says = any(not (b >> q) & 1 for b in fwd_reached)
        if avoidable_state(aut, q) != oracle_says:
            result.avoidable_mismatches.append((aut.rows, q))
    if characterization and is_strongly_connected(aut):
        table = pair_table(aut)
        for q in range(n):
            in_pair = any(table.compressible(q, p) for p in range(n) if p != q)
            oracle_says = any(not (b >> q) & 1 for b in fwd_reached)
            if in_pair != oracle_says:
                result.characterization_mismatches.append((aut.rows, q))


def _run_greedy_check(aut, result: SweepResult):
    w = greedy_reset_word(aut)
    if w is None or apply_word(aut, StateSet.full(aut.n), w).size != 1:
        result.greedy_failures.append(aut.rows)


@pytest.fixture(scope="module")
def sweep_exhaustive():
    """All 729 binary 3-state automata, all 8 subsets each."""
    result = SweepResult()
    for fa in itertools.product(range(3), repeat=3):
        for fb in itertools.product(range(3), repeat=3):
            aut = Automaton([[fa[q], fb[q]] for q in range(3)])
            result.automata += 1
            fwd = forward_subset_bfs(aut)
            _run_avoidable_checks(aut, fwd.reached, result, characterization=False)
            sync = is_synchronizing(aut)
            if sync:
                _run_greedy_check(aut, result)
            for bits in range(8):
                truth = _run_instance(aut, bits, result)
                _run_sync_checks(aut, bits, truth, sync, result)
    return result


@pytest.fixture(scope="module")
def sweep_random():
    """10^4 seeded random automata, n <= 7, k <= 3, one random subset each."""
    result = SweepResult()
    rng = random.Random(0xC0FFEE)
    for _ in range(10_000):
        n = rng.randint(1, 7)
        k = rng.randint(1, 3)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        result.automata += 1
        fwd = forward_subset_bfs(aut)
        _run_avoidable_checks(aut, fwd.reached, result, characterization=True)
        sync = is_synchronizing(aut)
        if sync:
            _run_greedy_check(aut, result)
        bits = rng.randrange(1 << n)
        truth = _run_instance(aut, bits, result)
        _run_sync_checks(aut, bits, truth, sync, result)
    return result


def test_criterion_1_figure_regression(c4):
    t0 = time.perf_counter()
    s23 = c4.state_set([1, 2])
    ok = apply_word(c4, s23, Word.from_text("aab")) == c4.state_set([0])
    w = shortest_extending_word_small(c4, s23)
    ok &= w is not None and len(w) == 2
    ok &= preimage_word(c4, s23, Word.from_text("ba")) == c4.state_set([0, 1, 3])
    ok &= preimage_word(c4, c4.state_set([0, 1]), Word.from_text("b")) == c4.state_set([0, 1, 3])
    # corrected shrinking example, oracle-confirmed in place of the excluded one
    ok &= preimage_word(c4, c4.state_set([1, 3]), Word.from_text("b")) == c4.state_set([1])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, "figure worked examples", ok, f"{elapsed*1000:.0f} ms")


def test_criterion_2_exhaustive_oracle_cross_validation(sweep_exhaustive):
    r = sweep_exhaustive
    detail = (f"{r.automata} automata, {r.instances} instances, "
              f"{len(r.mismatches)} mismatches")
    _report(2, "exhaustive n=3 binary sweep", r.automata == 729 and r.instances == 729 * 8
            and not r.mismatches, detail + (f" e.g. {r.mismatches[:3]}" if r.mismatches else ""))


def test_criterion_3_randomized_oracle_cross_validation(sweep_random):
    r = sweep_random
    bad = (r.mismatches + r.avoidable_mismatches + r.characterization_mismatches)
    detail = (f"{r.automata} automata, {len(r.mismatches)} problem mismatches, "
              f"{len(r.avoidable_mismatches)} avoidable mismatches, "
              f"{len(r.characterization_mismatches)} characterization mismatches")
    _report(3, "randomized sweep (10^4)", r.automata == 10_000 and not bad,
            detail + (f" e.g. {bad[:3]}" if bad else ""))


def test_criterion_4_resizing_bound_and_exact_arithmetic(sweep_exhaustive, sweep_random):
    violations = sweep_exhaustive.resize_bound_violations + sweep_random.resize_bound_violations
    # Every run above asserts, inside RationalBasis.insert, that each new
    # row's support (its nonzero columns mod p) is disjoint from every
    # earlier pivot (pytest keeps assertions enabled).  The full F_p
    # invariant over all rows after every insertion, the subset patterns a
    # real search inserts, and equal witnesses to the exact basis over Q
    # are checked in tests/test_resize.py.
    detail = (f"max resize length seen: "
              f"{max(sweep_exhaustive.max_resize_length, sweep_random.max_resize_length)}, "
              f"{len(violations)} bound violations")
    _report(4, "resizing length <= n-1, exact arithmetic", not violations, detail)


def test_criterion_5_gadget_equivalences():
    rng = random.Random(0xBADC0DE)
    failures = []

    def trimmed_dfa(k):
        while True:
            n = rng.randint(1, 3)
            aut = random_automaton(n, k, seed=rng.randrange(10**9))
            d = DfaWithAcceptance(aut, rng.randrange(n), StateSet(n, rng.randrange(1, 1 << n)))
            d = trim_reachable(d)
            if d.accepting.size:
                return d

    def ext_tot(aut, s, cap=64):
        res = backward_subset_bfs(aut, s, node_limit=5_000_000, state_cap=cap)
        return (any(map(problem_goal("extend", aut.n, s.size), res.reached)),
                any(map(problem_goal("extend-total", aut.n, s.size), res.reached)))

    cases = 0
    for _ in range(200):
        k = rng.randint(1, 2)
        dfas = [trimmed_dfa(k) for _ in range(rng.choice([1, 2]))]
        out = intersection_gadget(dfas)
        ext, tot = ext_tot(out.automaton, out.subset)
        want = languages_intersect(dfas)
        if not is_strongly_connected(out.automaton) or ext != want or tot != want:
            failures.append(("intersection", [d.automaton.rows for d in dfas]))
        cases += 1

    for _ in range(200):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        out = binarize(aut, s)
        if is_strongly_connected(aut) != is_strongly_connected(out.automaton) \
                or ext_tot(aut, s, cap=20) != ext_tot(out.automaton, out.subset, cap=20):
            failures.append(("binarize", aut.rows, s.bits))
        cases += 1

    for _ in range(200):
        n = rng.randint(1, 3)
        aut = random_automaton(n, 2, seed=rng.randrange(10**9))
        out = sink_binarize(aut)
        bits = rng.randrange(1 << n)
        ext_in, _ = ext_tot(aut, StateSet(n, bits), cap=20)
        ext_out, _ = ext_tot(out.automaton, StateSet(3 * n + 1, bits), cap=20)
        if not is_synchronizing(out.automaton) or ext_in != ext_out:
            failures.append(("sink", aut.rows, bits))
        cases += 1

    for _ in range(200):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        out = large_extend_gadget(aut, s, rng.randrange(n))
        _, tot_in = ext_tot(aut, s, cap=20)
        ext_out, _ = ext_tot(out.automaton, out.subset, cap=20)
        if ext_out != tot_in:
            failures.append(("large-extend", aut.rows, s.bits))
        cases += 1

    _report(5, "gadget equivalences", not failures,
            f"{cases} cases" + (f", failures: {failures[:3]}" if failures else ""))


def test_criterion_6_synchronizing_fast_paths(sweep_exhaustive, sweep_random):
    fails = sweep_exhaustive.fastpath_mismatches + sweep_random.fastpath_mismatches

    # avoidable <=> not the sink state, validated against the forward oracle
    # on synchronizing instances drawn the same way as the sweeps.
    rng = random.Random(0x5EED)
    done = 0
    while done < 500:
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        if not is_synchronizing(aut):
            continue
        done += 1
        z = sink_state(aut)
        reached = forward_subset_bfs(aut).reached
        for q in range(n):
            oracle_avoidable = any(not (b >> q) & 1 for b in reached)
            if oracle_avoidable != (q != z) or avoidable_state(aut, q) != oracle_avoidable:
                fails.append(("avoidable-sink-rule", aut.rows, q))

    sync_count = sweep_exhaustive.synchronizing_instances + sweep_random.synchronizing_instances
    _report(6, "synchronizing fast paths", not fails,
            f"{sync_count} sweep instances + 500 sampled automata"
            + (f", failures: {fails[:3]}" if fails else ""))


def test_criterion_7_reset_sanity(c4, sweep_exhaustive, sweep_random):
    word = oracle_shortest_reset(c4)
    ok = word is not None and len(word) == 9 == (4 - 1) ** 2
    greedy_bad = sweep_exhaustive.greedy_failures + sweep_random.greedy_failures
    _report(7, "reset sanity", ok and not greedy_bad,
            f"oracle shortest reset length {None if word is None else len(word)}, "
            f"{len(greedy_bad)} greedy failures")


def test_criterion_8_performance_smoke():
    worst_resize = 0.0
    for seed, constraint in ((1, "none"), (2, "none"), (11, "permutation")):
        aut = random_automaton(200, 2, seed=seed, constraint=constraint)
        rng = random.Random(seed)
        s = StateSet.from_states(200, rng.sample(range(200), 100))
        t0 = time.perf_counter()
        w = shortest_resizing_word(aut, s)
        dt = time.perf_counter() - t0
        worst_resize = max(worst_resize, dt)
        if w is not None:
            assert preimage_word(aut, s, w).size != s.size

    worst_extend = 0.0
    for seed, constraint in ((1, "none"), (11, "permutation")):
        aut = random_automaton(500, 2, seed=seed, constraint=constraint)
        rng = random.Random(seed)
        s = StateSet.from_states(500, rng.sample(range(500), 2))
        t0 = time.perf_counter()
        shortest_extending_word_small(aut, s)
        dt = time.perf_counter() - t0
        worst_extend = max(worst_extend, dt)

    ok = worst_resize < 10.0 and worst_extend < 10.0
    _report(8, "performance smoke", ok,
            f"resize n=200 worst {worst_resize:.2f}s, extend n=500 |S|=2 worst {worst_extend:.2f}s")
