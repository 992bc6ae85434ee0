"""Complete deterministic automata, state sets, words, and their actions.

States are 0-based integers ``0..n-1`` and letters 0-based integers
``0..k-1``; letter ``i`` is pretty-printed as the ``(i+1)``-th lowercase
letter whenever the alphabet has at most 26 letters.  Words act on states
left to right: ``q . uv == (q . u) . v``, which fixes the composition order
of preimages as ``S . (uv)^-1 == (S . v^-1) . u^-1`` everywhere.

A whole word acts through its transformation ``word_map``, read left to
right one letter at a time (``move_states``): on at most 256 states the map
is an n-byte string and a letter is one ``bytes.translate``; above that a
block of letters moves only the image so far, one gather per letter.
``apply_word`` and ``preimage_word`` read the image and the preimage off
it.  ``subset_search`` is the one breadth-first search over subsets: extend
and resize walk back from S by the single-letter steps ``preimage_bits``,
avoid walks forward by ``image_bits`` and back, and the power-set oracle
does both.  ``race`` runs such searches in lock-step under one node
budget.  ``problem_goal`` states each of the four problems as one test on
the preimage S·w⁻¹.

All values here are immutable after construction, so they can be shared
freely between threads; derived analyses are memoized on the automaton
(idempotent, hence harmless under concurrent recomputation).
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, DEFAULT_ORACLE_STATE_CAP

# The classes random_automaton draws from, kept here so the CLI need not import gadgets.
CONSTRAINTS = ("none", "strongly-connected", "synchronizing", "permutation")


def letter_name(a: int, k: int) -> str:
    """Display name of letter ``a`` in a ``k``-letter alphabet."""
    if k <= 26:
        return chr(ord("a") + a)
    return str(a)


# bytes.translate table from letter indices 0-25 to their names a-z.
_LETTER_NAMES = bytes(range(ord("a"), ord("a") + 26)).ljust(256, b"\0")


class Word:
    """An immutable sequence of letter indices."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self.letters: tuple[int, ...] = tuple(letters)

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse ``"ba"`` into letter indices (``a`` = 0, ``b`` = 1, ...).

        Also accepts whitespace-separated decimal indices for big alphabets.
        Letters outside ``a``-``z`` and negative indices raise ValueError.
        """
        text = text.strip()
        if text == "":
            return cls()
        if any(ch.isspace() or ch.isdigit() for ch in text):
            word = cls(int(tok) for tok in text.split())
            if any(a < 0 for a in word):
                raise ValueError(f"negative letter index in word {text!r}")
            return word
        bad = next((ch for ch in text if not "a" <= ch <= "z"), None)
        if bad is not None:
            raise ValueError(f"bad letter {bad!r} in word {text!r}: expected a-z")
        return cls(ord(ch) - ord("a") for ch in text)

    def text(self, k: Optional[int] = None) -> str:
        """Render with letter names for alphabets of at most 26 letters.
        Every letter must lie in the alphabet."""
        letters = self.letters
        if k is None:
            k = (max(letters) + 1) if letters else 1
        if k <= 26:
            return bytes(letters).translate(_LETTER_NAMES).decode()
        return " ".join(map(str, letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + tuple(other))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


class StateSet:
    """A subset of the states of an ``n``-state automaton.

    Backed by a bit vector (``bits`` has bit ``q`` set iff state ``q`` is a
    member); cardinality is computed once at construction.  Instances are
    immutable; ``complement`` returns a fresh value, and ``issubset`` insists
    that both operands are bound to the same ``n``.
    """

    __slots__ = ("n", "bits", "size")

    def __init__(self, n: int, bits: int):
        if n < 0:
            raise ValueError("state count must be non-negative")
        if bits < 0 or bits >> n:
            raise ValueError(f"bit pattern {bits:#x} out of range for n={n}")
        self.n = n
        self.bits = bits
        self.size = bits.bit_count()

    @classmethod
    def from_states(cls, n: int, states: Iterable[int]) -> "StateSet":
        bits = 0
        for q in states:
            if not 0 <= q < n:
                raise ValueError(f"state {q} out of range [0, {n})")
            bits |= 1 << q
        return cls(n, bits)

    @classmethod
    def empty(cls, n: int) -> "StateSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "StateSet":
        return cls(n, (1 << n) - 1)

    def _check_peer(self, other: "StateSet") -> None:
        if self.n != other.n:
            raise ValueError(f"state sets bound to different automata sizes ({self.n} vs {other.n})")

    def __contains__(self, q: int) -> bool:
        return 0 <= q < self.n and (self.bits >> q) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.bits != 0

    def complement(self) -> "StateSet":
        return StateSet(self.n, ((1 << self.n) - 1) ^ self.bits)

    def issubset(self, other: "StateSet") -> bool:
        self._check_peer(other)
        return self.bits & ~other.bits == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, StateSet) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return "{%s}" % ",".join(str(q) for q in self)


class Automaton:
    """A complete DFA given by its transition table.

    ``rows[q][a]`` is the successor of state ``q`` under letter ``a``; the
    table is total and every entry must lie in ``[0, n)``.  The instance is
    immutable; expensive derived analyses (preimage masks, SCCs, the pair
    table, ...) are memoized in ``_derived``.
    """

    __slots__ = ("n", "k", "rows", "by_letter", "_derived")

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if n < 1:
            raise ValueError("automaton needs at least one state")
        k = len(rows[0])
        if k < 1:
            raise ValueError("automaton needs at least one letter")
        table = []
        for q, row in enumerate(rows):
            row = tuple(row)
            if len(row) != k:
                raise ValueError(f"row {q} has {len(row)} entries, expected {k}")
            for a, p in enumerate(row):
                if not 0 <= p < n:
                    raise ValueError(f"transition ({q},{a}) -> {p} out of range [0, {n})")
            table.append(row)
        self.n = n
        self.k = k
        self.rows = tuple(table)
        self.by_letter = tuple(tuple(table[q][a] for q in range(n)) for a in range(k))
        self._derived: dict = {}

    def preimage_masks(self, a: int) -> tuple[int, ...]:
        """For letter ``a``: bit mask of ``{p : p.a == q}`` per target state ``q``."""
        masks = self._derived.get("pre_masks")
        if masks is None:
            masks = []
            for letter in range(self.k):
                row = [0] * self.n
                for p, q in enumerate(self.by_letter[letter]):
                    row[q] |= 1 << p
                masks.append(tuple(row))
            masks = tuple(masks)
            self._derived["pre_masks"] = masks
        return masks[a]

    def check_word(self, w: Word) -> None:
        distinct = set(w.letters)  # at most k letters when the word is valid
        if distinct and (min(distinct) < 0 or max(distinct) >= self.k):
            bad = next(a for a in w.letters if not 0 <= a < self.k)
            raise ValueError(f"letter {bad} out of range [0, {self.k})")

    def check_set(self, s: StateSet) -> None:
        if s.n != self.n:
            raise ValueError(f"state set bound to n={s.n}, automaton has n={self.n}")

    def image_bits(self, bits: int, a: int) -> int:
        out = 0
        succ = self.by_letter[a]
        while bits:
            low = bits & -bits
            out |= 1 << succ[low.bit_length() - 1]
            bits ^= low
        return out

    def preimage_bits(self, bits: int, a: int) -> int:
        out = 0
        masks = self.preimage_masks(a)
        while bits:
            low = bits & -bits
            out |= masks[low.bit_length() - 1]
            bits ^= low
        return out

    def state_set(self, states: Iterable[int]) -> StateSet:
        return StateSet.from_states(self.n, states)

    def __eq__(self, other) -> bool:
        return isinstance(other, Automaton) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Automaton(n={self.n}, k={self.k})"


Goal = Callable[[int], bool]  # subset bits -> met

PROBLEMS = ("extend", "extend-total", "avoid", "resize")


def problem_goal(problem: str, n: int, size: int) -> Goal:
    """When the preimage S·w⁻¹ answers ``problem`` for a set S of ``size`` of
    ``n`` states: it is larger than S (extend), Q (extend-total), empty
    (avoid: Q·w misses S) or of another size (resize)."""
    if problem == "extend":
        return lambda bits: bits.bit_count() > size
    if problem == "extend-total":
        full = (1 << n) - 1
        return lambda bits: bits == full
    if problem == "avoid":
        return lambda bits: bits == 0
    if problem == "resize":
        return lambda bits: bits.bit_count() != size
    raise ValueError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")


class _Sparse(dict):
    """The predecessor store above the flat-array limit."""

    def __missing__(self, bits: int) -> int:
        return -1


class SubsetBfsResult:
    """The subsets a search reached, and the one that stopped it.

    ``direction`` is "preimage" or "image".  ``reached`` holds the reached
    subsets in generation order (FIFO, letters ascending), sources first.  A
    search without a goal reaches every subset; one with a goal ends at the
    first subset that meets it, stored in ``hit`` (None if no reachable
    subset does).
    """

    __slots__ = ("direction", "reached", "hit", "_pred", "_step", "_k")

    def __init__(self, direction: str, reached: Sequence[int], hit: Optional[int], pred,
                 step: Callable[[int, int], int], k: int):
        self.direction, self.reached, self.hit = direction, reached, hit
        self._pred = pred  # bits -> predecessor bits, a source's own bits, or -1
        self._step, self._k = step, k  # (bits, letter) -> child bits; letter count

    def word_to(self, bits: int) -> Word:
        """The word whose action takes a source to the given subset, each
        letter the smallest that makes its step, which is the one the search
        recorded.  KeyError if the search did not reach the subset."""
        pred, letters = self._pred, []
        try:
            parent = pred[bits] if bits >= 0 else -1
        except IndexError:  # past the end of a flat store
            parent = -1
        if parent < 0:
            raise KeyError(bits)
        while parent != bits:
            letters.append(next(a for a in range(self._k) if self._step(parent, a) == bits))
            bits, parent = parent, pred[parent]
        if self.direction == "image":
            letters.reverse()
        return Word(letters)


def _step_tables(aut: Automaton, direction: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per letter, the two half tables of one preimage or image step.  With
    the states split at h = ceil(n/2), entry x of the low table is the union
    of the one-letter preimages (or images) of the states among 0..h-1 that
    x selects, and entry x of the high table that of the states h + i for
    the bits i of x: 2^h and 2^(n-h) entries."""
    if direction == "preimage":
        per_letter = [aut.preimage_masks(a) for a in range(aut.k)]
    else:
        per_letter = [[1 << q for q in succ] for succ in aut.by_letter]
    h = (aut.n + 1) // 2
    steps = []
    for per_state in per_letter:
        halves = []
        for masks in (per_state[:h], per_state[h:]):
            table = [0]
            for mask in masks:
                table += [entry | mask for entry in table]
            halves.append(tuple(table))
        steps.append(tuple(halves))
    return tuple(steps)


def _search_by_halves(step_tables, pred, order, lo: int, depth: int, goal: Optional[Goal],
                      allowance: int, max_depth: int):
    """Continue the search from the subsets ``order[lo:]`` at ``depth`` to ``max_depth``
    (-1: no cut), a step costing two lookups in ``_step_tables``' halves; the
    first child that meets ``goal``, or None.  It pauses as ``subset_search`` does."""
    mask = len(step_tables[0][0]) - 1  # the low half's 2^h entries
    h = mask.bit_length()
    while lo < len(order) and depth != max_depth:
        depth += 1
        frontier, lo = order[lo:], len(order)
        for bits in frontier:
            low_bits, high_bits = bits & mask, bits >> h
            for low, high in step_tables:
                child = low[low_bits] | high[high_bits]
                if pred[child] < 0:
                    pred[child] = bits
                    order.append(child)
                    if len(order) > allowance:
                        allowance = yield len(order)
                    if goal is not None and goal(child):
                        return child
    return None


def _search_by_members(step, k: int, pred, order, goal: Optional[Goal], allowance: int,
                       levels: int, admit: Optional[Goal]):
    """``_search_by_halves`` from the sources, a step ORing one mask per member
    state, for at most ``levels`` levels (-1: all), keeping only the children
    that meet ``goal`` or pass ``admit``; returns the hit or None, where the
    next level starts, and the allowance in force."""
    depth = lo = 0
    while lo < len(order) and depth != levels:
        depth += 1
        frontier, lo = order[lo:], len(order)
        for bits in frontier:
            for a in range(k):
                child = step(bits, a)
                if pred[child] < 0:
                    met = goal is not None and goal(child)
                    if met or admit is None or admit(child):
                        pred[child] = bits
                        order.append(child)
                        if len(order) > allowance:
                            allowance = yield len(order)
                        if met:
                            return child, lo, allowance
    return None, lo, allowance


def subset_search(aut: Automaton, sources: Iterable[int], direction: str, goal: Optional[Goal],
                  max_depth: int = -1, admit: Optional[Goal] = None):
    """Multi-source FIFO BFS over subsets held as bit patterns, as a generator
    that ``race`` drives.

    ``sources`` yields distinct bit patterns.  ``direction`` "preimage" steps
    a subset T to ``T . a^-1`` and "image" to ``T . a``, letters ascending.
    Every discovered subset, sources first and in order, is tested by
    ``goal(bits)``; the first that meets it is ``hit``.  Without a
    goal the search is exhaustive; ``max_depth`` L >= 0 cuts it after depth
    L.  ``admit(bits)``, if given, is asked about each unstored child that
    does not meet the goal; one it rejects is neither stored, expanded nor
    counted, and is asked about again if it recurs.  The search yields 0,
    then, whenever it holds more subsets than the allowance sent to it, how
    many it holds, before it tests the last; it returns the
    ``SubsetBfsResult``.

    A subset stores only its predecessor, and a source is its own.  The
    sources and the first level sit in a dict, and a step ORs one mask per
    member state.  Once a second level is needed, up to
    ``DEFAULT_ORACLE_STATE_CAP`` states the predecessors move to an int
    array indexed by subset bits (4 MiB at n = 20, whatever the budget) and
    a step is two half-table lookups, one per half of the states (two
    tables of at most 2^10 entries per letter); above it, or with
    ``admit``, the dict keeps them, bounded by the budget.
    """
    pred, order = _Sparse(), []
    step = aut.preimage_bits if direction == "preimage" else aut.image_bits
    allowance = yield 0  # the first allowance comes before any subset is stored
    for bits in sources:
        pred[bits] = bits
        order.append(bits)
        if len(order) > allowance:
            allowance = yield len(order)
        if goal is not None and goal(bits):
            hit = bits
            break
    else:  # no source is a goal: only now is a step needed
        flat = aut.n <= DEFAULT_ORACLE_STATE_CAP and max_depth not in (0, 1) and admit is None
        hit, lo, allowance = yield from _search_by_members(
            step, aut.k, pred, order, goal, allowance, 1 if flat else max_depth, admit)
        if flat and hit is None and lo < len(order):  # a second level is needed
            sparse, pred, order = pred, array("i", [-1]) * (1 << aut.n), array("I", order)
            for bits in order:
                pred[bits] = sparse[bits]
            hit = yield from _search_by_halves(_step_tables(aut, direction), pred, order, lo, 1,
                                               goal, allowance, max_depth)
    return SubsetBfsResult(direction, order, hit, pred, step, aut.k)


def race(searches: Iterable, budget: int,
         stats: Optional[dict] = None) -> Iterator[tuple[int, SubsetBfsResult]]:
    """Run ``subset_search`` generators in lock-step, yielding ``(index,
    result)`` for each as it finishes.  Round r allows each 2^r subsets, so
    one that finishes with N has let no other hold more than about 2N.  All
    the subsets they hold count against ``budget``; more raise
    BudgetExceededError.  At each yield ``stats["nodes"]`` counts them."""
    searches = list(searches)
    for search in searches:
        next(search)  # to where it waits for its first allowance
    counts, live, allowance = [0] * len(searches), list(range(len(searches))), 1
    base = 0 if stats is None else stats.get("nodes", 0)
    while live:
        for i in live[:]:
            others = sum(counts) - counts[i]
            try:
                counts[i] = searches[i].send(min(allowance, budget - others))
            except StopIteration as done:
                counts[i] = len(done.value.reached)
                live.remove(i)
                if stats is not None:
                    stats["nodes"] = base + sum(counts)
                yield i, done.value
                continue
            if others + counts[i] > budget:
                raise BudgetExceededError(f"subset BFS exceeded node limit {budget}",
                                          others + counts[i])
        allowance *= 2


def subset_bfs(aut: Automaton, sources: Iterable[int], direction: str, goal: Optional[Goal],
               budget: int, stats: Optional[dict] = None, max_depth: int = -1,
               admit: Optional[Goal] = None) -> SubsetBfsResult:
    """One ``subset_search`` run to its end: more than ``budget`` discovered
    subsets raise BudgetExceededError, and ``stats["nodes"]`` adds them up
    when the search returns."""
    search = subset_search(aut, sources, direction, goal, max_depth, admit)
    return next(race([search], budget, stats))[1]


def _byte_tables(aut: Automaton) -> tuple[bytes, ...]:
    """Per letter, the ``bytes.translate`` table of its action: byte q holds
    q.a (only for automata of at most 256 states)."""
    tables = aut._derived.get("byte_tables")
    if tables is None:
        tables = tuple(bytes(succ).ljust(256, b"\0") for succ in aut.by_letter)
        aut._derived["byte_tables"] = tables
    return tables


def move_states(aut: Automaton, states: Sequence[int], letters: Iterable[int]) -> Sequence[int]:
    """``states[i] . letters`` for each of at least two states (itemgetter
    returns a scalar for one index).  On at most 256 states the states move
    as bytes, one ``bytes.translate`` per letter; above that, one C-level
    gather per letter."""
    if aut.n <= 256:
        tables, states = _byte_tables(aut), bytes(states)
        for a in letters:
            states = states.translate(tables[a])
        return states
    for a in letters:
        states = itemgetter(*states)(aut.by_letter[a])
    return states


def word_map(aut: Automaton, w: Word) -> tuple[int, ...]:
    """The transformation of ``w``: ``f[q] == q . w`` for every state ``q``.

    Read left to right.  On at most 256 states all n states move together,
    one ``bytes.translate`` of the n-byte map per letter.  Above that, 32
    letters at a time: a block moves only the distinct states of the image
    Q.u of the prefix u so far, then the n-wide map is composed once; along
    a merging word the image shrinks fast.  The letters are not
    range-checked here.  The map of the last word is kept on the automaton,
    so checking a witness and then measuring its preimage walks the word
    once.
    """
    last = aut._derived.get("word_map")
    if last is not None and last[0] is w.letters:
        return last[1]
    if aut.n <= 256:
        f = tuple(move_states(aut, range(aut.n), w.letters))
    else:
        f = image = tuple(range(aut.n))
        step = list(f)  # step[p] == p . block for p in the image
        for i in range(0, len(w.letters), 32):
            moved = move_states(aut, image, w.letters[i:i + 32])
            for p, q in zip(image, moved):
                step[p] = q
            f, image = itemgetter(*f)(step), (*set(moved), moved[0])  # a repeat keeps two states
    aut._derived["word_map"] = (w.letters, f)
    return f


def apply_word(aut: Automaton, s: StateSet, w: Word) -> StateSet:
    """Image ``S . w`` of a set under a word (never grows the set)."""
    aut.check_set(s)
    aut.check_word(w)
    f = word_map(aut, w)
    bits = 0
    for q in s:
        bits |= 1 << f[q]
    return StateSet(aut.n, bits)


def preimage_word(aut: Automaton, s: StateSet, w: Word) -> StateSet:
    """Preimage ``S . w^-1``, i.e. all states that ``w`` maps into ``S``."""
    aut.check_set(s)
    aut.check_word(w)
    f, target = word_map(aut, w), s.bits
    return StateSet(aut.n, sum(1 << q for q, p in enumerate(f) if target >> p & 1))


class SccDecomposition(NamedTuple):
    """Strongly connected components of the transition digraph.

    Components are numbered by their smallest member state; ``component_of``
    maps each state to its component id, and ``sink_flags[c]`` is true when
    no transition leaves component ``c``.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    sink_flags: tuple[bool, ...]

    def sink_components(self) -> list[int]:
        return [c for c, is_sink in enumerate(self.sink_flags) if is_sink]


def scc(aut: Automaton) -> SccDecomposition:
    """Kosaraju's algorithm, iterative: a depth-first pass along the
    transitions records the finishing order, then searches along predecessor
    lists, started in reverse finishing order, each collect one component."""
    cached = aut._derived.get("scc")
    if cached is not None:
        return cached

    n, rows = aut.n, aut.rows
    seen = [False] * n
    order: list[int] = []  # states by finishing time
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(rows[root]))]  # explicit DFS stack: (state, successors left)
        while work:
            v, succ = work[-1]
            for w in succ:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(rows[w])))
                    break
            else:
                work.pop()
                order.append(v)

    pred: list[list[int]] = [[] for _ in range(n)]
    for q, row in enumerate(rows):
        for p in row:
            pred[p].append(q)
    raw_components: list[list[int]] = []
    for root in reversed(order):  # the second pass clears ``seen`` as it collects
        if not seen[root]:
            continue
        seen[root] = False
        comp, i = [root], 0
        while i < len(comp):
            for p in pred[comp[i]]:
                if seen[p]:
                    seen[p] = False
                    comp.append(p)
            i += 1
        comp.sort()
        raw_components.append(comp)

    raw_components.sort(key=lambda comp: comp[0])
    component_of = [0] * n
    for cid, comp in enumerate(raw_components):
        for q in comp:
            component_of[q] = cid
    result = SccDecomposition(
        component_of=tuple(component_of),
        components=tuple(tuple(c) for c in raw_components),
        sink_flags=tuple(all(component_of[p] == cid for q in comp for p in rows[q])
                         for cid, comp in enumerate(raw_components)),
    )
    aut._derived["scc"] = result
    return result


def is_strongly_connected(aut: Automaton) -> bool:
    return len(scc(aut).components) == 1


def is_permutation_automaton(aut: Automaton) -> bool:
    """True iff every letter acts as a bijection on the states."""
    return all(len(set(images)) == aut.n for images in aut.by_letter)


def known_synchronizing(aut: Automaton) -> Optional[bool]:
    """The synchronization flag ``pairs.is_synchronizing`` cached, or None
    when it has not run."""
    return aut._derived.get("synchronizing")


def sink_state(aut: Automaton) -> Optional[int]:
    """The smallest state fixed by every letter, or None.

    Several such states can only coexist in a non-synchronizing automaton;
    returning the smallest keeps the output deterministic.
    """
    for q in range(aut.n):
        if all(aut.rows[q][a] == q for a in range(aut.k)):
            return q
    return None
