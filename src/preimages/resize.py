"""Shortest resizing words via exact span checking.

A word resizes S when the preimage of S under it has a different size.  The
search walks words by *prepended* letters, so each step is a single-letter
preimage of the previous subset; the characteristic vector of each subset is
augmented with a constant-1 affine coordinate (standing in for a fixed
reference acceptor with exactly |S| accepting runs per word).  A subset
whose augmented vector already lies in the span of earlier ones can never
contribute a new size discrepancy, because the discrepancy functional
h(z) = sum(z[0..n-1]) - |S| * z[n] is linear and vanishes on everything
inserted so far.  The basis therefore closes after at most n insertions (the
kernel of h has dimension n), and the first vector with h != 0, taken in BFS
order, belongs to a shortest resizing word.

All arithmetic is exact and stays in integers: the span check keeps a
fraction-free echelon basis (Bareiss 1968) of primitive integer rows, so no
rational number is ever formed on the search path.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .automaton import Automaton, StateSet, Word
from .errors import BudgetExceededError, DEFAULT_NODE_BUDGET
from .pairs import known_synchronizing


class AugVector:
    """An exact rational vector of n+1 entries (n states + affine coordinate).

    Stored as integer numerators over one positive denominator; ``entry(i)``
    and ``entries()`` expose the values as Fractions.  Vectors generated by
    the resizing search are 0/1 with affine coordinate 1.  Span membership
    does not depend on the denominator, so the basis reads only ``nums``.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int = 1):
        if den == 0:
            raise ValueError("zero denominator")
        nums = list(nums)
        if den < 0:
            den = -den
            nums = [-x for x in nums]
        self.nums = nums
        self.den = den

    @classmethod
    def from_rationals(cls, values: Iterable) -> "AugVector":
        fracs = [Fraction(v) for v in values]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return cls([int(f * den) for f in fracs], den)

    @classmethod
    def from_subset_bits(cls, n: int, bits: int) -> "AugVector":
        nums = [(bits >> q) & 1 for q in range(n)]
        nums.append(1)
        return cls(nums, 1)

    def __len__(self) -> int:
        return len(self.nums)

    def entry(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def entries(self) -> list[Fraction]:
        return [Fraction(x, self.den) for x in self.nums]

    def is_zero_one_affine(self) -> bool:
        return (self.den == 1 and self.nums[-1] == 1
                and all(x in (0, 1) for x in self.nums[:-1]))

    def __repr__(self) -> str:
        return f"AugVector({[str(f) for f in self.entries()]})"


class RationalBasis:
    """Fraction-free echelon basis of a subspace of Q^dim.

    ``vectors[j]`` is a primitive integer list (entries with gcd 1) that is
    nonzero at its pivot ``pivots[j]`` and zero at the pivot of every earlier
    row.  An incoming vector r is reduced against the rows in insertion order
    by ``r = d*r - c*row``, where d is the row's pivot entry and c is r's
    entry there: this clears r at that pivot and keeps every pivot cleared
    before it at zero.  r is divided by its content after each step, which
    stops the entries from growing.  A zero residual means the vector lies in
    the span; a nonzero one is appended as a new row, and no older row
    changes.
    """

    __slots__ = ("dim", "vectors", "pivots")

    def __init__(self, dim: int):
        self.dim = dim
        self.vectors: list[list[int]] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.vectors)

    def insert(self, g: AugVector) -> Optional[int]:
        """Insert g if independent; returns the new row's pivot, else None."""
        if len(g) != self.dim:
            raise ValueError(f"vector has {len(g)} entries, basis dimension is {self.dim}")
        r = g.nums
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
        assert r[pivot] and all(r[p] == 0 for p in self.pivots), "echelon invariant broken"
        self.vectors.append(r)
        self.pivots.append(pivot)
        return pivot


def shortest_resizing_word(aut: Automaton, s: StateSet, budget: int = DEFAULT_NODE_BUDGET,
                           stats: Optional[dict] = None) -> Optional[Word]:
    """A shortest word w with |S . w^-1| != |S|, or None when impossible.

    Always terminates: at most n vectors can be inserted before the basis
    closes, at which point every reachable preimage provably has size |S|.
    The empty and full subsets are never resizable (their preimages are
    themselves).  Raises BudgetExceededError once more than ``budget``
    nodes have been expanded.
    """
    aut.check_set(s)
    n, k = aut.n, aut.k
    target = s.size

    basis = RationalBasis(n + 1)
    basis.insert(AugVector.from_subset_bits(n, s.bits))
    queue: deque[tuple[int, tuple[int, ...]]] = deque([(s.bits, ())])
    expanded = 0

    while queue:
        bits, letters = queue.popleft()
        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(f"resize search exceeded budget {budget}", expanded)
        for a in range(k):
            child_bits = aut.preimage_bits(bits, a)
            child_letters = (a,) + letters
            if child_bits.bit_count() != target:
                if stats is not None:
                    stats["nodes"] = expanded
                    stats["basis_size"] = len(basis)
                return Word(child_letters)
            # Every vector inserted so far lies in the n-dimensional kernel of
            # h, so a basis of n rows already spans every size-keeping child.
            if (len(basis) < n
                    and basis.insert(AugVector.from_subset_bits(n, child_bits)) is not None):
                queue.append((child_bits, child_letters))

    if stats is not None:
        stats["nodes"] = expanded
        stats["basis_size"] = len(basis)
    return None


def resizable_decision_fast(aut: Automaton, s: StateSet) -> Optional[bool]:
    """Decision shortcut when the automaton is already known synchronizing.

    A reset word pulls S to either Q or the empty set, so S is resizable iff
    it is neither; returns None ("unknown") unless a positive synchronization
    flag has been cached, in which case callers fall back to
    ``shortest_resizing_word``.
    """
    aut.check_set(s)
    if known_synchronizing(aut):
        return 0 < s.size < aut.n
    return None
