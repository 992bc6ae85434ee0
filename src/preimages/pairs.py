"""Pair-automaton machinery: compressible pairs and what they buy us.

The backward breadth-first search over the pair automaton yields, for every
unordered pair of states, the exact length of a shortest word merging the
pair (infinite when the pair can never be merged).  On top of the table sit
the minimal-rank word (iterated pair compression from Q, which on a
synchronizing automaton is also the greedy reset word), the avoidability
decision for single states, and the "no" of the synchronization check.  A
"yes" needs no table: a fixed pseudo-random word that maps Q to one state
proves it, and random automata synchronize fast under random words
(Nicaud 2016).

The table keeps, per pair, its distance as an int32 and the first letter
of its shortest merging word as one byte (an int32 above 256 letters).
That letter leads the pair {p, q} to {p·a, q·a}, one step closer to a
merge, so a word is read off by walking the successor rows.  The search
runs level by level over arrays of pair indices and boxes nothing per pair.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional

from .automaton import Automaton, StateSet, Word, apply_word, is_permutation_automaton, scc


class PairTable:
    """Shortest compressing-word lengths for all unordered state pairs.

    ``dist`` is an int32 array indexed by ``p * n + q`` with ``p < q``; -1
    encodes "not compressible".  ``_via``, indexed the same way, holds the
    first letter of a shortest merging word, and ``word`` follows it through
    the automaton's successor rows ``_rows``.
    """

    __slots__ = ("n", "k", "dist", "_via", "_rows")

    def __init__(self, n: int, k: int, dist: array, via: array, rows):
        self.n = n
        self.k = k
        self.dist = dist
        self._via = via
        self._rows = rows

    def _idx(self, p: int, q: int) -> int:
        if p == q:
            raise ValueError("a pair consists of two distinct states")
        if not (0 <= p < self.n and 0 <= q < self.n):
            raise ValueError("state out of range")
        if p > q:
            p, q = q, p
        return p * self.n + q

    def length(self, p: int, q: int) -> Optional[int]:
        """Length of a shortest word merging {p, q}, or None."""
        d = self.dist[self._idx(p, q)]
        return None if d < 0 else d

    def compressible(self, p: int, q: int) -> bool:
        return self.dist[self._idx(p, q)] >= 0

    def word(self, p: int, q: int) -> Optional[Word]:
        """A shortest word merging {p, q}; its length equals ``length(p, q)``."""
        if self.dist[self._idx(p, q)] < 0:
            return None
        n, via, rows, letters = self.n, self._via, self._rows, []
        while p != q:
            a = via[p * n + q if p < q else q * n + p]
            letters.append(a)
            p, q = rows[p][a], rows[q][a]
        return Word(letters)

    def all_compressible(self) -> bool:
        n = self.n
        return self.dist.count(-1) == n * (n + 1) // 2  # only the pairs p >= q


def pair_table(aut: Automaton) -> PairTable:
    """Multi-source backward BFS from all directly merged pairs, level by level."""
    cached = aut._derived.get("pair_table")
    if cached is not None:
        return cached

    n, k = aut.n, aut.k
    dist = array("i", [-1]) * (n * n)
    via = array("B" if k <= 256 else "i", [0]) * (n * n)
    # inv[q][a] = states mapped to q by letter a, in increasing order
    inv: list[list[list[int]]] = [[[] for _ in range(k)] for _ in range(n)]
    for a in range(k):
        for p, q in enumerate(aut.by_letter[a]):
            inv[q][a].append(p)

    # Directly merged pairs share a predecessor list; the smallest letter wins.
    first = []
    for a in range(k):
        for q in range(n):
            xs = inv[q][a]
            for i, x in enumerate(xs):
                base = x * n
                for y in xs[i + 1:]:
                    if dist[base + y] < 0:
                        dist[base + y] = 1
                        via[base + y] = a
                        first.append(base + y)
    frontier = array("i", sorted(first))

    # pre[q] = the (letter, predecessors) entries of q that are non-empty
    pre = [[(a, xs) for a, xs in enumerate(row) if xs] for row in inv]
    d = 1
    while frontier:
        d += 1
        nxt = array("i")
        for i in frontier:
            p, q = divmod(i, n)
            inv_q = inv[q]
            for a, xs in pre[p]:
                ys = inv_q[a]
                if not ys:
                    continue
                for x in xs:
                    xn = x * n
                    for y in ys:  # x != y: a state has one successor under a
                        j = xn + y if x < y else y * n + x
                        if dist[j] < 0:
                            dist[j] = d
                            via[j] = a
                            nxt.append(j)
        frontier = nxt

    table = PairTable(n, k, dist, via, aut.rows)
    aut._derived["pair_table"] = table
    return table


def _reset_certificate(aut: Automaton) -> bool:
    """True when a fixed pseudo-random word maps Q to one state, which proves
    synchronization; False proves nothing.  The word stops after 8n letters,
    once its work (the sum of the image sizes) passes k·n(n−1)/2, or once 16n
    work passes without the image shrinking.  Its letters come from a
    private LCG, so no caller's random state is used."""
    n, k, succ = aut.n, aut.k, aut.by_letter
    image, x, work, stall, cap = set(range(n)), 1, 0, 0, k * n * (n - 1) // 2
    for _ in range(8 * n):
        size = len(image)
        if size == 1 or work > cap or stall > 16 * n:
            break
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        row = succ[(x >> 33) % k]
        image = {row[q] for q in image}
        work += size
        stall = 0 if len(image) < size else stall + size
    return len(image) == 1


def is_synchronizing(aut: Automaton) -> bool:
    """True iff some word maps Q to one state.  A permutation automaton with
    n > 1 answers "no" in O(nk), since no word merges two states.  Otherwise,
    unless the pair table is already built, a reset-word certificate is tried
    first and builds no table; any other "no" comes from the table: the
    automaton synchronizes iff every pair of states is compressible
    (Eppstein 1990)."""
    cached = aut._derived.get("synchronizing")
    if cached is None:
        if aut.n > 1 and is_permutation_automaton(aut):
            cached = False
        else:
            proved = "pair_table" not in aut._derived and _reset_certificate(aut)
            cached = proved or pair_table(aut).all_compressible()
        aut._derived["synchronizing"] = cached
    return cached


def known_synchronizing(aut: Automaton) -> Optional[bool]:
    """The cached synchronization flag, or None when not yet computed."""
    return aut._derived.get("synchronizing")


def _best_pair_in(bits: int, table: PairTable) -> Optional[tuple[int, int]]:
    """Compressible pair inside the given image with the shortest merging
    word; ties broken by smallest (p, q)."""
    n, dist = table.n, table.dist
    states = list(StateSet(n, bits))
    best, best_d = None, -1
    for i, p in enumerate(states):
        base = p * n
        for q in states[i + 1:]:
            d = dist[base + q]
            if d >= 0 and (best is None or d < best_d):
                best, best_d = (p, q), d
                if d == 1:  # no later pair can be shorter
                    return best
    return best


class RankResult(NamedTuple):
    """A word of minimal rank together with its (incompressible) image."""

    word: Word
    image: StateSet
    rank: int


def minimal_rank_word(aut: Automaton) -> RankResult:
    """Iterated pair compression from Q until the image is incompressible.

    The resulting image size equals the minimal rank over all words: any
    word's image contains an image of the incompressible set, which no word
    can shrink.
    """
    cached = aut._derived.get("min_rank")
    if cached is None:
        table = pair_table(aut)
        bits = (1 << aut.n) - 1
        letters: list[int] = []
        while bits.bit_count() > 1:
            pair = _best_pair_in(bits, table)
            if pair is None:
                break
            w = table.word(*pair)
            letters.extend(w)
            bits = apply_word(aut, StateSet(aut.n, bits), w).bits
            if len(letters) > aut.n ** 3:
                raise AssertionError("pair compression exceeded its length guard")
        cached = RankResult(Word(letters), StateSet(aut.n, bits), bits.bit_count())
        aut._derived["min_rank"] = cached
    return cached


def greedy_reset_word(aut: Automaton) -> Optional[Word]:
    """A reset word built by repeated pair compression (not the shortest): the
    minimal-rank word, or None when the automaton is not synchronizing."""
    return minimal_rank_word(aut).word if is_synchronizing(aut) else None


def avoidable_state(aut: Automaton, q: int) -> bool:
    """Is there a word whose image misses state ``q``?

    States outside every sink component are avoidable, and a state inside a
    sink component is avoidable iff it belongs to a compressible pair of that
    component's sub-automaton, which its own (smaller) pair table decides.
    The sub-automaton, and with it the table, is kept per component in
    ``aut._derived``.  A witness comes from ``avoid.avoiding_word`` on ``{q}``.
    """
    if not 0 <= q < aut.n:
        raise ValueError(f"state {q} out of range [0, {aut.n})")

    comps = scc(aut)
    cid = comps.component_of[q]
    if not comps.sink_flags[cid]:
        return True
    component = comps.components[cid]
    if len(component) == 1:
        return False
    index = {p: i for i, p in enumerate(component)}  # a sink component is closed
    sub = aut._derived.get(("sink_component", cid))
    if sub is None:
        sub = Automaton([[index[p] for p in aut.rows[r]] for r in component])
        aut._derived[("sink_component", cid)] = sub
    table = pair_table(sub)
    sub_q = index[q]
    return any(table.compressible(sub_q, i) for i in range(len(component)) if i != sub_q)
