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

The span is taken over F_p, p = 2**31 - 1, not over Q, and the answer stays
exact because p > n.  Each child's size is tested on its integer bit
count, so the basis only decides which nodes are expanded.  The preimage map
is linear over F_p too, so the closure argument (Tzeng 1992) holds there
unchanged.  And on a 0/1 vector with affine coordinate 1, h equals |T| - |S|,
whose absolute value is at most n < p, so h vanishes mod p exactly when it
vanishes.  Hence the answer and the shortest length are those of the search
over Q.  The returned word could differ from that search's only if p divides
an integer minor that decides independence; it is still a shortest word.

Only ``resizable_decision_fast`` imports ``pairs``, when called, so the
search loads none of it.
"""

from __future__ import annotations

from typing import Optional

from .automaton import Automaton, StateSet, Word, problem_goal, subset_bfs
from .errors import DEFAULT_NODE_BUDGET, NotSynchronizingError

P = (1 << 31) - 1


class RationalBasis:
    """Echelon basis over F_p of the vectors (chi(T), 1), T a subset of n states.

    Rows stay in insertion order.  Row j is 1 at its pivot ``pivots[j]`` and 0
    at the pivot of every earlier row.  It is stored as one int,
    ``negrows[j]``, of ``n + 1`` slots of ``width`` bits, slot i holding
    (-row[i]) mod p, and ``supports[j]`` is the bitmask of its nonzero
    columns.  An incoming vector r is reduced against the rows in order by
    ``r += c * negrow`` with c = r[pivot] mod p, which clears r at that pivot
    modulo p and keeps every earlier pivot clear.  Slots are not reduced
    during the loop: r starts with 0/1 entries and each of at most n + 1
    steps adds less than p**2 to a slot, so ``width`` is the bit length of
    (n + 2) * p**2, rounded up to whole bytes so that r unpacks by byte
    slices.  r's running support holds its own columns and those of the
    rows added so far, less the pivots already passed; a row whose pivot
    lies outside it is skipped.  The residual is unpacked once, on its
    support columns: all zero mod p means r lies in the span; otherwise it
    is scaled to 1 at its first nonzero column and appended, and no older
    row changes.

    The name predates the move from Q to F_p; trace spans refer to it.
    """

    __slots__ = ("n", "width", "negrows", "pivots", "supports", "pivot_mask")

    def __init__(self, n: int):
        self.n = n
        self.width = 8 * -(-((n + 2) * P * P).bit_length() // 8)
        self.negrows: list[int] = []
        self.pivots: list[int] = []
        self.supports: list[int] = []
        self.pivot_mask = 0

    def __len__(self) -> int:
        return len(self.pivots)

    def insert(self, bits: int) -> Optional[int]:
        """Insert (chi(bits), 1) if independent; returns the new row's pivot, else None."""
        n, w = self.n, self.width
        if bits < 0 or bits >> n:
            raise ValueError(f"subset pattern {bits:#x} has a state outside 0..{n - 1}")
        wb = w // 8
        support = bits | 1 << n
        buf = bytearray((n + 1) * wb)
        rest = support
        while rest:
            low = rest & -rest
            buf[(low.bit_length() - 1) * wb] = 1
            rest ^= low
        r = int.from_bytes(buf, "little")
        mask = (1 << w) - 1
        for negrow, piv, row_support in zip(self.negrows, self.pivots, self.supports):
            if support >> piv & 1:
                c = (r >> piv * w & mask) % P
                if c:
                    r += c * negrow
                    support |= row_support
                support ^= 1 << piv  # later rows are 0 here, so r stays 0 mod p
        data = r.to_bytes(len(buf), "little")
        entries = []
        while support:
            low = support & -support
            q = low.bit_length() - 1
            v = int.from_bytes(data[q * wb:(q + 1) * wb], "little") % P
            if v:
                entries.append((q, v))
            support ^= low
        if not entries:
            return None
        pivot = entries[0][0]
        inv = pow(entries[0][1], -1, P)
        buf = bytearray(len(data))
        row_support = 0
        for q, v in entries:
            buf[q * wb:(q + 1) * wb] = (P - v * inv % P).to_bytes(wb, "little")
            row_support |= 1 << q
        assert not row_support & self.pivot_mask, "echelon invariant broken"
        self.negrows.append(int.from_bytes(buf, "little"))
        self.pivots.append(pivot)
        self.supports.append(row_support)
        self.pivot_mask |= 1 << pivot
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
    res = subset_bfs(aut, [s.bits], "preimage", problem_goal("resize", n, s.size), budget, stats,
                     -1 if max_len is None else max_len,
                     admit=lambda bits: len(basis) < n and basis.insert(bits) is not None)
    if stats is not None:
        stats["basis_size"] = len(basis)
    return None if res.hit is None else res.word_to(res.hit)


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
