"""Echelon basis over F_p and the shortest-resizing-word search."""

import itertools
import json
import random
from fractions import Fraction
from math import gcd, isqrt
from types import SimpleNamespace

import pytest

from preimages import (Automaton, BudgetExceededError, NotSynchronizingError, RationalBasis,
                       StateSet, Word, backward_subset_bfs, cerny_automaton, is_synchronizing,
                       oracle_shortest, preimage_word, random_automaton, resizable_decision_fast,
                       serialize_automaton, shortest_resizing_word)
from preimages import resize as resize_mod
from preimages.automaton import problem_goal
from preimages.cli import main


def _rank(vectors, p=None):
    """Rank over Q by Gaussian elimination on Fractions (the reference), or
    over F_p when a prime p is given."""
    if p is None:
        rows = [[Fraction(x) for x in v] for v in vectors]
    else:
        rows = [[x % p for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                if p is None:
                    f = rows[i][col] / rows[rank][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                else:
                    f = rows[i][col] * pow(rows[rank][col], -1, p) % p
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _vector(n, bits):
    """The augmented vector (chi(bits), 1) that ``insert(bits)`` stands for."""
    return [(bits >> q) & 1 for q in range(n)] + [1]


def _unpacked(negrows, w, dim):
    """Packed rows of ``dim`` slots of ``w`` bits each, as lists of slots."""
    for negrow in negrows:
        assert 0 <= negrow < 1 << (w * dim)
    return [[(negrow >> (i * w)) & ((1 << w) - 1) for i in range(dim)] for negrow in negrows]


def _slots(basis):
    """Every stored row, in insertion order, unpacked into its n + 1 slots,
    read independently of the class: slot i of a row holds (-row[i]) mod p."""
    return _unpacked([negrow for negrow, _ in basis.rows_at.values()], basis.width, basis.n + 1)


def _assert_echelon(basis, accepted):
    """The full invariant, every row: each slot below p; the row is -1 at its
    own pivot, 0 before it and 0 at every earlier row's pivot; its support
    mask names its nonzero slots; and the rows span over F_p what the
    accepted vectors span over Q."""
    p, slots, pivots = basis.p, _slots(basis), list(basis.rows_at)
    assert len(slots) == len(pivots) == len(accepted) == len(basis)
    for j, (row, piv, (_, support)) in enumerate(zip(slots, pivots, basis.rows_at.values())):
        assert all(x < p for x in row)
        assert row[piv] == p - 1 and all(x == 0 for x in row[:piv])
        for earlier in pivots[:j]:
            assert row[earlier] == 0
        assert support == sum(1 << i for i, x in enumerate(row) if x)
    assert basis.pivot_mask == sum(1 << piv for piv in pivots)
    rows = [[-x % p for x in row] for row in slots]
    # Echelon rows are independent, so equal ranks mean equal spans; the Q
    # rank of the accepted vectors pins that nothing was lost mod p.
    assert _rank(accepted) == _rank(accepted, p) == _rank(rows + accepted, p) == len(basis)


def test_basis_field_is_the_smallest_prime_above_n():
    limit = 5100                                      # the first prime above 5000 is 5003
    prime = [False, False] + [True] * (limit - 2)
    for d in range(2, isqrt(limit) + 1):
        if prime[d]:
            prime[d * d::d] = [False] * len(range(d * d, limit, d))
    for n in range(5001):
        basis = RationalBasis(n)
        assert basis.p == next(q for q in range(n + 1, limit) if prime[q]), n
        # The largest entry a reduction can reach: n + 1 steps of at most
        # (p - 1)**2 each, plus the pattern bit.  No slot may carry.
        assert (n + 1) * (basis.p - 1) ** 2 + 1 < 1 << basis.width, n


def test_basis_insert_examples():
    basis = RationalBasis(2)
    p = basis.p
    assert p == 3
    assert basis.insert(0b01) == 0                     # (1, 0, 1)
    assert basis.insert(0b01) is None                  # duplicate is dependent
    assert basis.insert(0b11) == 1                     # (1, 1, 1): residual (0, 1, 0)
    assert _slots(basis) == [[p - 1, 0, p - 1], [0, p - 1, 0]]
    assert basis.insert(0b10) == 2                     # (0, 1, 1): residual (0, 0, 1)
    assert basis.insert(0b00) is None and len(basis) == 3  # the rows span all of F_p^3
    _assert_echelon(basis, [_vector(2, b) for b in (0b01, 0b11, 0b10)])


def test_basis_first_vector_normalization():
    basis = RationalBasis(3)
    p = basis.p
    assert p == 5
    assert basis.insert(0b110) == 1
    assert _slots(basis) == [[0, p - 1, p - 1, p - 1]]
    assert [support for _, support in basis.rows_at.values()] == [0b1110]
    # A residual that is -1 at its pivot is scaled to +1 there: (1, 1, 1)
    # clears (1, 0, 1) to (0, -1, 0) modulo p.
    basis = RationalBasis(2)
    basis.insert(0b11)
    assert basis.insert(0b01) == 1
    assert _slots(basis)[1] == [0, basis.p - 1, 0]


def test_basis_invariant_after_every_insertion_random_sweep():
    rng = random.Random(34)
    for _ in range(200):
        n = rng.randint(0, 8)
        basis = RationalBasis(n)
        accepted, seen = [], []
        for _ in range(rng.randint(1, 14)):
            if seen and rng.random() < 0.2:           # a repeat is always dependent
                bits = rng.choice(seen)
            elif rng.random() < 0.5:                  # sparser patterns
                bits = rng.randrange(1 << n) & rng.randrange(1 << n)
            else:
                bits = rng.randrange(1 << n)
            seen.append(bits)
            if basis.insert(bits) is not None:
                accepted.append(_vector(n, bits))
            _assert_echelon(basis, accepted)


def _insertion_order_basis(n):
    """Test-local lists for ``_insertion_order_insert``, over the field of
    ``RationalBasis(n)``, with slots of whole hex digits for the parse."""
    p = RationalBasis(n).p
    return SimpleNamespace(n=n, p=p, width=4 * -(-((n + 2) * p * p).bit_length() // 4),
                           negrows=[], pivots=[], supports=[], pivot_mask=0)


def _insertion_order_insert(basis, bits):
    """The insert that reduced against every row in insertion order and built
    r by one base-16 parse, on ``_insertion_order_basis`` lists: the
    reference the sparse insert must match row for row."""
    n, w, p = basis.n, basis.width, basis.p
    support = bits | 1 << n
    r = int(("0" * (w // 4 - 1)).join(format(support, "b")), 16)
    mask = (1 << w) - 1
    for negrow, piv, row_support in zip(basis.negrows, basis.pivots, basis.supports):
        if support >> piv & 1:
            c = (r >> piv * w & mask) % p
            if c:
                r += c * negrow
                support |= row_support
            support ^= 1 << piv
    negrow = row_support = 0
    while support:
        low = support & -support
        q = low.bit_length() - 1
        v = (r >> q * w & mask) % p
        if v:
            if not row_support:
                pivot, inv = q, pow(v, -1, p)
            negrow |= (p - v * inv % p) << q * w
            row_support |= low
        support ^= low
    if not row_support:
        return None
    basis.negrows.append(negrow)
    basis.pivots.append(pivot)
    basis.supports.append(row_support)
    basis.pivot_mask |= 1 << pivot
    return pivot


def test_sparse_insert_matches_the_insertion_order_reference():
    # Patterns of 0 to n members, so rows are reached from sparse and dense
    # vectors alike.
    rng = random.Random(39)
    for trial in range(20):
        n = rng.randint(9, 40) if trial else 40
        basis, reference, accepted = RationalBasis(n), _insertion_order_basis(n), []
        for _ in range(rng.randint(n // 2, n + 4)):
            members = rng.choice((1, 2, 3, 7, n // 2, n))
            bits = sum(1 << q for q in rng.sample(range(n), rng.randint(0, members)))
            pivot = basis.insert(bits)
            assert pivot == _insertion_order_insert(reference, bits)
            assert list(basis.rows_at) == reference.pivots
            assert [support for _, support in basis.rows_at.values()] == reference.supports
            assert basis.pivot_mask == reference.pivot_mask
            assert _slots(basis) == _unpacked(reference.negrows, reference.width, n + 1)
            if pivot is not None:
                accepted.append(_vector(n, bits))
            _assert_echelon(basis, accepted)


def test_basis_invariant_on_vectors_a_real_search_inserts(monkeypatch):
    accepted = []
    original = RationalBasis.insert

    def checked_insert(self, bits):
        assert type(bits) is int and 0 <= bits < 1 << self.n
        if not self.rows_at:
            accepted.clear()
        pivot = original(self, bits)
        if pivot is not None:
            accepted.append(_vector(self.n, bits))
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
    # Independence over F_p implies independence over Q, so each accepted
    # vector raises the Q rank.  Dependence over F_p is dependence over Q
    # unless p divides a minor of the (chi(T), 1) vectors.  The largest such
    # minor is 3 at n = 4 (p = 5) and 5 at n = 5 (p = 7), so below n = 6
    # each rejected vector leaves the Q rank; at n = 6 a minor of 7 exists,
    # which this seeded sample does not meet.  Either way, the search's
    # answers and lengths are exact (see the oracle comparisons below).
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 6)
        basis = RationalBasis(n)
        inserted = []
        for _ in range(10):
            bits = rng.randrange(1 << n)
            v = _vector(n, bits)
            before = _rank(inserted)
            if basis.insert(bits) is not None:
                inserted.append(v)
                assert _rank(inserted) == before + 1
            else:
                assert _rank(inserted + [v]) == before
        assert _rank(inserted) == len(basis) == len(inserted)


def test_basis_rejects_a_subset_outside_its_states():
    basis = RationalBasis(3)
    for bits in (0b1000, 1 << 40, -1):
        with pytest.raises(ValueError):
            basis.insert(bits)
    assert len(basis) == 0 and basis.insert(0b111) == 0
    assert RationalBasis(0).insert(0) == 0           # the affine coordinate alone


class _IntegerBasis:
    """The exact fraction-free basis over Q that the F_p basis replaced
    (Bareiss-style rows of primitive integers), kept as the reference for
    which nodes the search expands."""

    def __init__(self, n):
        self.n = n
        self.vectors, self.pivots = [], []

    def __len__(self):
        return len(self.vectors)

    def insert(self, bits):
        r = _vector(self.n, bits)
        for row, piv in zip(self.vectors, self.pivots):
            c = r[piv]
            if c:
                d = row[piv]
                r = [d * x - c * y for x, y in zip(r, row)]
                content = gcd(*r)
                if content == 0:
                    return None
                if content > 1:
                    r = [x // content for x in r]
        content = gcd(*r)
        if content == 0:
            return None
        r = [x // content for x in r]
        pivot = next(i for i, x in enumerate(r) if x)
        self.vectors.append(r)
        self.pivots.append(pivot)
        return pivot


def test_search_gives_the_witnesses_of_the_exact_rational_basis(monkeypatch):
    def both(aut, s):
        got_stats, want_stats = {}, {}
        got = shortest_resizing_word(aut, s, stats=got_stats)
        with monkeypatch.context() as m:
            m.setattr(resize_mod, "RationalBasis", _IntegerBasis)
            want = shortest_resizing_word(aut, s, stats=want_stats)
        assert (got, got_stats) == (want, want_stats), (aut.rows, s)
        return got

    rng = random.Random(36)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        found += both(aut, StateSet(n, rng.randrange(1 << n))) is not None
    assert 50 < found < 300
    n = 60
    assert len(both(_defect_cycle(n), StateSet.from_states(n, [n - 1]))) == n - 1
    n = 40
    for members in ([0], [0, 7, 19], list(range(0, n, 2))):
        assert both(_symmetric_group(n), StateSet.from_states(n, members)) is None
    # Random permutations give dense rows with arbitrary residues mod p, so
    # slots take the largest sums the slot width must hold.
    n = 60
    aut = random_automaton(n, 2, seed=37, constraint="permutation")
    assert both(aut, StateSet.from_states(n, range(0, n, 2))) is None


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


def test_resize_is_exact_where_p_is_smallest():
    # p is 2, 3, 5, 5 at n = 1..4: every binary automaton with n <= 3 and
    # every subset of it, then a seeded sample at n = 4..6.
    def agree(aut, s):
        w = shortest_resizing_word(aut, s)
        want = oracle_shortest(aut, s, "resize")
        assert (w is None, len(w or ())) == (want is None, len(want or ())), (aut.rows, s)
        assert w is None or preimage_word(aut, s, w).size != s.size

    queries = 0
    for n in (1, 2, 3):
        for images in itertools.product(range(n), repeat=2 * n):
            aut = Automaton([images[2 * q:2 * q + 2] for q in range(n)])
            for bits in range(1 << n):
                agree(aut, StateSet(n, bits))
                queries += 1
    assert queries == 2 + 16 * 4 + 729 * 8
    rng = random.Random(38)
    for _ in range(600):
        n = rng.randint(4, 6)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        agree(aut, StateSet(n, rng.randrange(1 << n)))


@pytest.mark.parametrize("m, seed", ((40, 1), (116, 2)))
def test_check_fills_the_dense_basis_beside_a_cerny_component(tmp_path, capsys, m, seed):
    # P(m) + Cerny(20) is no permutation automaton and does not synchronize,
    # so `check` runs the basis search; S = the even states of P keeps its
    # size under every word, and the basis fills P's m dimensions first.
    perm = random_automaton(m, 2, seed=seed, constraint="permutation")
    aut = Automaton([list(r) for r in perm.rows]
                    + [[q + m for q in r] for r in cerny_automaton(20).rows])
    path = tmp_path / "perm_cerny.aut"
    path.write_text(serialize_automaton(aut))
    code = main(["check", str(path), "--subset", ",".join(map(str, range(0, m, 2))),
                 "--problem", "resize", "--witness", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["answer"], report["method"]) == (1, "no", "poly")
    assert report["stats"] == {"basis_size": m, "nodes": m}


def test_check_walks_the_sparse_basis_around_a_defect_cycle(tmp_path, capsys):
    # Each preimage of {n - 1} is one state, so each insert meets at most one
    # earlier pivot, and the basis fills before the empty preimage is found.
    n = 270
    path = tmp_path / "defect.aut"
    path.write_text(serialize_automaton(_defect_cycle(n)))
    code = main(["check", str(path), "--subset", str(n - 1), "--problem", "resize",
                 "--witness", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["answer"], report["witness_length"]) == (0, "yes", n - 1)
    assert report["stats"] == {"basis_size": n, "nodes": n + 1}


def test_resize_matches_oracle_with_length_bound():
    rng = random.Random(32)
    for _ in range(400):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        bits = rng.randrange(1 << n)
        s = StateSet(n, bits)
        w = shortest_resizing_word(aut, s)
        res = backward_subset_bfs(aut, s)
        hit = next(filter(problem_goal("resize", aut.n, s.size), res.reached), None)
        if hit is None:
            assert w is None
        else:
            assert w is not None and len(w) == len(res.word_to(hit))
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
        res = backward_subset_bfs(aut, s)
        hit = next(filter(problem_goal("resize", aut.n, s.size), res.reached))
        assert w is not None and len(w) == len(res.word_to(hit)) == n - 1
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
    # The search discovers the n singletons, S first, then the empty preimage.
    with pytest.raises(BudgetExceededError):
        shortest_resizing_word(aut, s, budget=n)
    stats = {}
    assert len(shortest_resizing_word(aut, s, budget=n + 1, stats=stats)) == n - 1
    assert stats["nodes"] == n + 1


def test_resize_stats_report_basis_size(p3):
    stats = {}
    assert shortest_resizing_word(p3, p3.state_set([0]), stats=stats) is None
    assert stats["basis_size"] >= 1 and stats["nodes"] >= 1


def test_fast_decision_requires_synchronizing(c4, p3):
    # No cached flag is needed: the decision proves synchronization itself,
    # and refuses a non-synchronizing automaton as the extend-total fast path does.
    fresh = random_automaton(4, 2, seed=999)
    assert resizable_decision_fast(fresh, StateSet.full(4)) is False
    assert resizable_decision_fast(c4, c4.state_set([1, 2])) is True
    assert resizable_decision_fast(c4, StateSet.full(4)) is False
    assert resizable_decision_fast(c4, StateSet.empty(4)) is False
    with pytest.raises(NotSynchronizingError):
        resizable_decision_fast(p3, p3.state_set([0]))
    assert is_synchronizing(p3) is False


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
