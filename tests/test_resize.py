"""Fraction-free echelon basis and the shortest-resizing-word search."""

import random
from fractions import Fraction
from math import gcd

import pytest

from preimages import (Automaton, AugVector, BudgetExceededError, RationalBasis, StateSet, Word,
                       backward_subset_bfs, is_synchronizing, preimage_word, random_automaton,
                       resizable_decision_fast, shortest_resizing_word)
from preimages.oracle import goal_predicate


def _rank(vectors):
    """Rank over Q by Gaussian elimination on Fractions (the reference)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _assert_echelon(basis, accepted):
    """The full invariant, every row: a primitive integer list, first nonzero
    at its own pivot, zero at every earlier row's pivot; and the rows span
    exactly the accepted input vectors."""
    assert len(basis.vectors) == len(basis.pivots) == len(accepted)
    for j, (row, piv) in enumerate(zip(basis.vectors, basis.pivots)):
        assert len(row) == basis.dim
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1
        assert row[piv] != 0 and all(x == 0 for x in row[:piv])
        for earlier in basis.pivots[:j]:
            assert row[earlier] == 0
    # Echelon rows are independent, so equal ranks mean equal spans.
    assert _rank(accepted) == _rank(basis.vectors + accepted) == len(basis)


def test_basis_insert_examples():
    basis = RationalBasis(3)
    assert basis.insert(AugVector([1, 0, 1])) == 0
    assert basis.insert(AugVector([1, 0, 1])) is None          # duplicate is dependent
    assert basis.insert(AugVector([1, 1, 1])) == 1             # residual (0,1,0)
    assert basis.vectors[1] == [0, 1, 0]


def test_basis_first_vector_normalization():
    basis = RationalBasis(4)
    assert basis.insert(AugVector([0, 2, 4, 2])) == 1
    assert basis.vectors[0] == [0, 1, 2, 1]


def test_basis_rational_entries_stay_exact():
    basis = RationalBasis(3)
    basis.insert(AugVector([3, 1, 0]))
    basis.insert(AugVector([1, 3, 0]))
    # 3*(1,3,0) - (3,1,0) = (0,8,0), stored primitive; the older row is untouched
    assert basis.vectors == [[3, 1, 0], [0, 1, 0]] and basis.pivots == [0, 1]
    _assert_echelon(basis, [[3, 1, 0], [1, 3, 0]])
    # rational input: only the direction matters, so 1/2 * (2, 6, 0) is dependent
    assert basis.insert(AugVector.from_rationals([Fraction(1, 2), Fraction(3, 2), 0])) is None
    assert basis.insert(AugVector.from_rationals([0, 0, Fraction(-2, 3)])) == 2
    assert basis.vectors[2] in ([0, 0, 1], [0, 0, -1])


def test_basis_invariant_after_every_insertion_random_sweep():
    rng = random.Random(34)
    for _ in range(200):
        dim = rng.randint(1, 8)
        basis = RationalBasis(dim)
        accepted = []
        for _ in range(rng.randint(1, 14)):
            spread = rng.choice((1, 3, 50))
            v = [rng.randint(-spread, spread) for _ in range(dim)]
            if accepted and rng.random() < 0.3:       # a combination of earlier inputs
                v = [sum(rng.randint(-2, 2) * a[i] for a in accepted) for i in range(dim)]
            if basis.insert(AugVector(v)) is not None:
                accepted.append(v)
            _assert_echelon(basis, accepted)


def test_basis_invariant_on_vectors_a_real_search_inserts(monkeypatch):
    accepted = []
    original = RationalBasis.insert

    def checked_insert(self, g):
        assert g.is_zero_one_affine()
        if not self.vectors:
            accepted.clear()
        pivot = original(self, g)
        if pivot is not None:
            accepted.append(list(g.nums))
        _assert_echelon(self, accepted)
        return pivot

    monkeypatch.setattr(RationalBasis, "insert", checked_insert)
    rng = random.Random(35)
    for _ in range(150):
        n = rng.randint(1, 9)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        shortest_resizing_word(aut, StateSet(n, rng.randrange(1 << n)))
    n = 14
    assert len(shortest_resizing_word(_defect_cycle(n), StateSet.from_states(n, [n - 1]))) == n - 1
    assert shortest_resizing_word(_symmetric_group(n), StateSet.from_states(n, [0, 3, 5])) is None


def test_basis_dependence_detection_is_exact():
    rng = random.Random(31)
    for _ in range(50):
        dim = rng.randint(2, 6)
        basis = RationalBasis(dim)
        inserted = []
        for _ in range(10):
            v = [rng.randint(-3, 3) for _ in range(dim)]
            got = basis.insert(AugVector(v))
            if got is not None:
                inserted.append(v)
        # rank of inserted vectors equals basis size, by brute Gaussian elim over Fractions
        rows = [[Fraction(x) for x in v] for v in inserted]
        rank = 0
        for col in range(dim):
            pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i][col] != 0:
                    f = rows[i][col] / rows[rank][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        assert rank == len(basis.vectors) == len(inserted)


def test_resize_worked_example(c4):
    s = c4.state_set([1, 2])
    assert shortest_resizing_word(c4, s) == Word.from_text("ba")
    # no single letter resizes
    for a in range(2):
        assert preimage_word(c4, s, Word([a])).size == 2


def test_resize_trivial_cases(p3, ch2):
    for bits in range(1, 7):
        assert shortest_resizing_word(p3, StateSet(3, bits)) is None
    assert shortest_resizing_word(ch2, ch2.state_set([1])) == Word.from_text("a")


def test_resize_empty_and_full_never_resizable(c4):
    assert shortest_resizing_word(c4, StateSet.empty(4)) is None
    assert shortest_resizing_word(c4, StateSet.full(4)) is None


def test_resize_matches_oracle_with_length_bound():
    rng = random.Random(32)
    for _ in range(400):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        bits = rng.randrange(1 << n)
        s = StateSet(n, bits)
        w = shortest_resizing_word(aut, s)
        hit = backward_subset_bfs(aut, s).first_match(goal_predicate("resizing", aut, s))
        if hit is None:
            assert w is None
        else:
            assert w is not None and len(w) == hit[1]
            assert len(w) <= n - 1
            assert preimage_word(aut, s, w).size != s.size
            assert len(w) >= 1


def _defect_cycle(n):
    """Cycle plus one merging defect: the only size change reachable from
    {n-1} sits a full cycle walk away, so the shortest resizing word has
    length exactly n-1 (the bound is tight at every n)."""
    from preimages import Automaton

    return Automaton([[(q + 1) % n, 0 if q == 1 else q] for q in range(n)])


def test_resize_length_bound_is_tight():
    for n in range(3, 13):
        aut = _defect_cycle(n)
        s = StateSet.from_states(n, [n - 1])
        w = shortest_resizing_word(aut, s)
        hit = backward_subset_bfs(aut, s).first_match(goal_predicate("resizing", aut, s))
        assert w is not None and len(w) == hit[1] == n - 1
    for n in (60, 150):
        aut = _defect_cycle(n)
        s = StateSet.from_states(n, [n - 1])
        w = shortest_resizing_word(aut, s)
        assert len(w) == n - 1
        assert preimage_word(aut, s, w).size == 0


def _symmetric_group(n):
    """Permutation automaton: a cyclic shift and a transposition generate the
    symmetric group, which is 2-transitive, so the basis fills all n
    dimensions for any 0 < |S| < n."""
    return Automaton([[(q + 1) % n, {0: 1, 1: 0}.get(q, q)] for q in range(n)])


def test_full_rank_stop_on_two_transitive_permutation_automaton(monkeypatch):
    n = 40
    aut = _symmetric_group(n)
    original = RationalBasis.insert

    def insert_below_full_rank(self, g):
        assert len(self) < n, "insert called after the basis reached rank n"
        return original(self, g)

    monkeypatch.setattr(RationalBasis, "insert", insert_below_full_rank)
    for members in ([0], [0, 7, 19], list(range(0, n, 2))):
        stats = {}
        assert shortest_resizing_word(aut, StateSet.from_states(n, members), stats=stats) is None
        assert stats["basis_size"] == n


def test_resize_budget_is_honoured():
    n = 20
    aut, s = _defect_cycle(n), StateSet.from_states(n, [n - 1])
    with pytest.raises(BudgetExceededError):
        shortest_resizing_word(aut, s, budget=5)
    assert len(shortest_resizing_word(aut, s, budget=n - 1)) == n - 1


def test_resize_stats_report_basis_size(p3):
    stats = {}
    assert shortest_resizing_word(p3, p3.state_set([0]), stats=stats) is None
    assert stats["basis_size"] >= 1 and stats["nodes"] >= 1


def test_fast_decision_requires_cached_flag(c4, p3):
    fresh = random_automaton(4, 2, seed=999)
    assert resizable_decision_fast(fresh, StateSet.full(4)) is None  # nothing cached yet
    assert is_synchronizing(c4)
    assert resizable_decision_fast(c4, c4.state_set([1, 2])) is True
    assert resizable_decision_fast(c4, StateSet.full(4)) is False
    assert resizable_decision_fast(c4, StateSet.empty(4)) is False
    assert is_synchronizing(p3) is False
    assert resizable_decision_fast(p3, p3.state_set([0])) is None


def test_fast_decision_agrees_with_algorithm_on_synchronizing():
    rng = random.Random(33)
    done = 0
    while done < 80:
        n = rng.randint(1, 6)
        aut = random_automaton(n, 2, seed=rng.randrange(10**9))
        if not is_synchronizing(aut):
            continue
        done += 1
        bits = rng.randrange(1 << n)
        s = StateSet(n, bits)
        assert resizable_decision_fast(aut, s) == (shortest_resizing_word(aut, s) is not None)


def test_augvector_validation():
    with pytest.raises(ValueError):
        AugVector([1, 2], 0)
    v = AugVector([1, -2], -2)
    assert v.entries() == [Fraction(-1, 2), Fraction(1)]
    assert AugVector.from_rationals([Fraction(1, 2), 1]).entries() == [Fraction(1, 2), Fraction(1)]
    assert AugVector.from_subset_bits(3, 0b101).is_zero_one_affine()
    basis = RationalBasis(3)
    with pytest.raises(ValueError):
        basis.insert(AugVector([1, 2, 3, 4]))
