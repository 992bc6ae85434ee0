"""Shortest resizing words via span checking over a prime field.

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
order, belongs to a shortest resizing word.  The search is
``automaton.subset_bfs`` back from S with the basis as its ``admit`` test:
a size-keeping child is kept, expanded and counted only if it enlarges the
basis, so the search holds at most n + 1 subsets.

The span is taken over F_p, p the smallest prime above n, not over Q.  Each
child's size is tested on its integer bit count, so the basis only decides
which nodes are expanded.  The preimage map is linear over F_p too, so the
closure argument (Tzeng 1992) holds there unchanged.  And on a 0/1 vector
with affine coordinate 1, h equals |T| - |S|, whose absolute value is at
most n < p, so h vanishes mod p exactly when it vanishes.  Hence, for any
prime p > n, the answer and the shortest length are those of the search
over Q.  The returned word could differ from that search's only if p
divides an integer minor that decides independence; it is still a shortest
word.

The basis keeps each row once, packed in one int, and reads an incoming
vector as the reductions it has collected plus the subset's own bits.

Only ``resizable_decision_fast`` imports ``pairs``, when called, so the
search loads none of it.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from .automaton import Automaton, StateSet, Word, problem_goal, subset_bfs
from .errors import DEFAULT_NODE_BUDGET, NotSynchronizingError


class RationalBasis:
    """Echelon basis over F_p of the vectors (chi(T), 1), T a subset of n states,
    where p, stored as ``p``, is the smallest prime above n.

    ``rows_at`` maps each row's pivot, its lowest nonzero column, to the row,
    in insertion order.  Row j is 1 at its pivot and 0 at the pivot of every
    earlier row.  It is stored as ``(negrow, support)``: ``negrow`` is one int
    of ``n + 1`` slots of ``width`` bits, slot i holding (-row[i]) mod p, and
    ``support`` is the bitmask of its nonzero columns.  An incoming vector
    is reduced by ``r += c * negrow`` with c = r[pivot] mod p, which clears r
    at that pivot modulo p, only against the rows whose pivots lie in r's
    running support (its own columns and those of the rows added so far),
    lowest pivot first.  As a row's pivot is its lowest nonzero column,
    adding it changes r only at columns from its pivot on, so a pivot once
    cleared stays clear, and an insert costs what the pivots that r touches
    cost.  The residual is zero at every pivot whatever the order, and the
    rows restricted to their pivots form a triangular matrix with unit
    diagonal, so it is the same residual as reducing in insertion order.

    No vector is built from the pattern: r is one int that collects only
    the reductions, and entry i of the vector is slot i of r plus bit i of
    the pattern, whose bit n is the affine 1.  Slots are not reduced during
    the loop: each of at most n + 1 steps adds at most (p - 1)**2 to a
    slot, so an entry stays at most (n + 1) * (p - 1)**2 + 1, below
    2**``width`` with ``width`` the bit length of (n + 2) * p**2, and no slot
    carries into the next.  The residual is read on its support
    columns: all zero mod p means r lies in the span; otherwise it is scaled
    to 1 at its first nonzero column and added, and no older row changes.

    The name predates the move from Q to F_p; trace spans refer to it.
    """

    __slots__ = ("n", "p", "width", "pivot_mask", "rows_at")

    def __init__(self, n: int):
        self.n = n
        p = max(n + 1, 2)
        while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            p += 1
        self.p = p
        self.width = ((n + 2) * p * p).bit_length()
        self.pivot_mask = 0
        self.rows_at: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self.rows_at)

    def insert(self, bits: int) -> Optional[int]:
        """Insert (chi(bits), 1) if independent; returns the new row's pivot, else None."""
        n, w, p = self.n, self.width, self.p
        if bits < 0 or bits >> n:
            raise ValueError(f"subset pattern {bits:#x} has a state outside 0..{n - 1}")
        pattern = support = bits | 1 << n
        r, mask, pivot_mask, rows_at = 0, (1 << w) - 1, self.pivot_mask, self.rows_at
        todo = support & pivot_mask
        while todo:
            low = todo & -todo
            piv = low.bit_length() - 1
            c = ((r >> piv * w & mask) + (pattern & low > 0)) % p
            if c:
                negrow, row_support = rows_at[piv]
                r += c * negrow
                support |= row_support
            support ^= low  # rows with higher pivots are 0 here, so r stays 0 mod p
            todo = support & pivot_mask
        negrow = row_support = 0
        while support:
            low = support & -support
            q = low.bit_length() - 1
            v = ((r >> q * w & mask) + (pattern & low > 0)) % p
            if v:
                if not row_support:
                    pivot, inv = q, pow(v, -1, p)
                negrow |= (p - v * inv % p) << q * w
                row_support |= low
            support ^= low
        if not row_support:
            return None
        assert not row_support & pivot_mask, "echelon invariant broken"
        self.pivot_mask |= 1 << pivot
        rows_at[pivot] = negrow, row_support
        return pivot


def shortest_resizing_word(aut: Automaton, s: StateSet, budget: int = DEFAULT_NODE_BUDGET,
                           stats: Optional[dict] = None,
                           max_len: Optional[int] = None) -> Optional[Word]:
    """A shortest word w with |S . w^-1| != |S|, or None when impossible (by a
    word of at most ``max_len`` letters, when given).

    Always terminates: at most n vectors can be inserted before the basis
    closes, at which point every reachable preimage provably has size |S|.
    The empty and full subsets are never resizable (their preimages are
    themselves).  Raises BudgetExceededError once more than ``budget``
    subsets have been discovered, S and the resized preimage included.
    """
    aut.check_set(s)
    n = aut.n
    basis = RationalBasis(n)
    basis.insert(s.bits)
    # Every vector inserted so far lies in the n-dimensional kernel of h, so
    # a basis of n rows already spans every size-keeping child.
    word = subset_bfs(aut, [s.bits], "preimage", problem_goal("resize", n, s.size), budget,
                      stats, -1 if max_len is None else max_len,
                      admit=lambda bits: len(basis) < n and basis.insert(bits) is not None).word
    if stats is not None:
        stats["basis_size"] = len(basis)
    return word


def resizable_decision_fast(aut: Automaton, s: StateSet) -> bool:
    """Decision for a synchronizing automaton: a reset word pulls S to Q or
    to the empty set, so S is resizable iff it is neither.

    Raises NotSynchronizingError otherwise.
    """
    from .pairs import is_synchronizing
    aut.check_set(s)
    if not is_synchronizing(aut):
        raise NotSynchronizingError("resizable_decision_fast needs a synchronizing automaton")
    return 0 < s.size < aut.n
