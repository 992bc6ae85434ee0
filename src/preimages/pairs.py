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

The table keeps, per pair, only its distance, as an int32.  A pair's
merging word is its lexicographically smallest shortest one, read off the
distances: from {p, q} at distance d, the smallest letter a that leads to
{p·a, q·a} at distance d − 1.  The search runs level by level over arrays
of pair indices and boxes nothing per pair.

The minimal-rank word builds the table only when a greedy step cannot be
found lazily, by one letter that merges a pair of the image or, while the
image is small, by one BFS from its pairs that returns the step's word.  On
random automata every step is found that way and no table is built; on
Černý automata it is built.  With the table, a step reads each image
state's partners in (distance, state) order, sorted once per state, so a
run costs about n² pair reads instead of n³/6.  Every step moves only the
image (``automaton.move_states``), and the map q ↦ q·u of the whole word u
is kept per step as the result's ``classes``, which avoid reads.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import NamedTuple, Optional

from .automaton import Automaton, StateSet, Word, is_permutation_automaton, move_states, scc


class PairTable:
    """Shortest compressing-word lengths for all unordered state pairs.

    ``dist`` is an int32 array indexed by ``p * n + q`` with ``p < q``; -1
    encodes "not compressible".  ``word`` reads a merging word off ``dist``
    through the automaton's per-letter successor lists ``_succ``.
    """

    __slots__ = ("n", "k", "dist", "_succ")

    def __init__(self, n: int, k: int, dist: array, succ):
        self.n = n
        self.k = k
        self.dist = dist
        self._succ = succ

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
        """The lexicographically smallest shortest word merging {p, q}: each
        letter is the smallest that leads the pair one step closer to a merge."""
        d = self.dist[self._idx(p, q)]
        if d < 0:
            return None
        n, dist, letters = self.n, self.dist, []
        succ = tuple(enumerate(self._succ))
        while d > 1:
            d -= 1
            for a, row in succ:
                x, y = row[p], row[q]
                if dist[x * n + y if x < y else y * n + x] == d:  # never x == y: dist 1 < d
                    break
            letters.append(a)
            p, q = x, y
        letters.append(next(a for a, row in succ if row[p] == row[q]))
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
    # inv[q][a] = states mapped to q by letter a, in increasing order
    inv: list[list[list[int]]] = [[[] for _ in range(k)] for _ in range(n)]
    for a in range(k):
        for p, q in enumerate(aut.by_letter[a]):
            inv[q][a].append(p)

    # Directly merged pairs share a predecessor list.
    first = []
    for a in range(k):
        for q in range(n):
            xs = inv[q][a]
            for i, x in enumerate(xs):
                base = x * n
                for y in xs[i + 1:]:
                    if dist[base + y] < 0:
                        dist[base + y] = 1
                        first.append(base + y)
    frontier = array("i", first)

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
                            nxt.append(j)
        frontier = nxt

    table = PairTable(n, k, dist, aut.by_letter)
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


def _closest_pair_in(image: list[int], table: PairTable,
                     partners: dict) -> Optional[tuple[int, int]]:
    """Compressible pair of the ascending ``image`` with the shortest merging
    word, ties broken by smallest (p, q), or None.

    ``partners[p]`` holds the states compressible with p, sorted by
    (distance, state), with p's distance row; it is built when p is first
    scanned.  Each p walks its order to the first member of the image, or
    stops once the distance reaches the best so far.  The smallest p that
    attains the minimum is the pair's smaller state, and its first partner in
    the image is the larger one."""
    n, dist, members = table.n, table.dist, set(image)
    best, best_d = None, n * n
    for p in image:
        entry = partners.get(p)
        if entry is None:
            row = dist[p:p * n:n] + dist[p * n + p:(p + 1) * n]  # row[q]: distance of {p, q}
            order = array("i", sorted(range(n), key=row.__getitem__))
            entry = partners[p] = (order[row.count(-1):], row)
        order, row = entry
        for q in order:
            d = row[q]
            if d >= best_d:
                break
            if q in members:
                best, best_d = (p, q), d
                break
        if best_d == 1:  # no later p can do better
            break
    return best


def _one_letter_word(succ, image: list[int]) -> Optional[list[int]]:
    """The smallest letter merging the smallest pair of the ascending
    ``image`` that one letter merges, or None; O(k·|image|)."""
    best = None
    for a, row in enumerate(succ):
        first: dict[int, int] = {}
        for q in image:
            p = first.setdefault(row[q], q)
            if p != q and (best is None or (p, q) < best[:2]):
                best = (p, q, a)
    return None if best is None else [best[2]]


def _merging_step(succ, n: int, image: list[int],
                  limit: int) -> tuple[list[int] | int | None, int]:
    """A FIFO BFS over pairs ``p * n + q``, from every pair of the ascending
    ``image`` in ascending order, letters ascending; each pair is stored the
    first time it is reached, with its parent and letter.  The queue runs in
    (depth, source, word) order, so the first merge met is the smallest pair
    with the shortest merging word, by that pair's lexicographically smallest
    shortest word.  Returns (word, pairs visited): word -1 when no pair of
    the image merges, None once more than ``limit`` pairs are visited."""
    parent = dict.fromkeys(p * n + q for i, p in enumerate(image) for q in image[i + 1:])
    queue = list(parent)
    for node in queue:
        if len(parent) > limit:
            return None, len(parent)
        p, q = divmod(node, n)
        for a, row in enumerate(succ):
            x, y = row[p], row[q]
            if x == y:
                letters = [a]
                while parent[node] is not None:
                    node, a = parent[node]
                    letters.append(a)
                return letters[::-1], len(parent)
            j = x * n + y if x < y else y * n + x
            if j not in parent:
                parent[j] = (node, a)
                queue.append(j)
    return -1, len(parent)


class RankResult(NamedTuple):
    """A word u of minimal rank, its (incompressible) image, and the map
    ``classes[q] == q . u`` of every state."""

    word: Word
    image: StateSet
    rank: int
    classes: tuple[int, ...]


def minimal_rank_word(aut: Automaton) -> RankResult:
    """Iterated pair compression from Q until the image is incompressible.

    Each step merges the pair of the image with the shortest merging word,
    ties going to the smallest (p, q), by its lexicographically smallest
    shortest merging word.  A step is found lazily: one letter first, then,
    while |image|² ≤ 4n, ``_merging_step``'s BFS from the image's pairs.
    The pair table is built only when neither finishes, or once the searches
    have visited as many pairs as it holds; Černý automata take that route.
    Once the table is built, every later step reads it alone: each image
    state's partners, sorted by (distance, state) when the state is first
    scanned, are walked to the first one in the image, which costs about n²
    pair reads over the run.

    A step's word moves the image only, by ``automaton.move_states``: per
    letter one ``bytes.translate`` of |image| bytes on at most 256 states,
    one gather over |image| states above that.  The image's moves update the
    classes ``q ↦ q·u`` of all n states once per step.

    The resulting image size equals the minimal rank over all words: any
    word's image contains an image of the incompressible set, which no word
    can shrink.
    """
    cached = aut._derived.get("min_rank")
    if cached is None:
        n, succ = aut.n, aut.by_letter
        table, left = aut._derived.get("pair_table"), n * (n - 1) // 2
        image, letters, partners = list(range(n)), [], {}
        classes, step = tuple(range(n)), list(range(n))
        while len(image) > 1:
            word = None if table is not None else _one_letter_word(succ, image)
            if word is None and table is None and len(image) ** 2 <= 4 * n:
                word, seen = _merging_step(succ, n, image, left)
                left -= seen
                if word == -1:
                    break
            if word is None:
                if table is None:
                    table = pair_table(aut)
                pair = _closest_pair_in(image, table, partners)
                if pair is None:
                    break
                word = table.word(*pair).letters
            letters.extend(word)
            moved = move_states(aut, image, word)
            for p, q in zip(image, moved):
                step[p] = q
            classes = itemgetter(*classes)(step)
            image = sorted(set(moved))
            if len(letters) > n ** 3:
                raise AssertionError("pair compression exceeded its length guard")
        bits = sum(1 << q for q in image)
        cached = RankResult(Word(letters), StateSet(n, bits), len(image), classes)
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
