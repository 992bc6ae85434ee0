"""Complete deterministic automata, state sets, words, and their actions.

States are 0-based integers ``0..n-1`` and letters 0-based integers
``0..k-1``; letter ``i`` is pretty-printed as the ``(i+1)``-th lowercase
letter whenever the alphabet has at most 26 letters.  A ``Word`` is the
tuple of its letter indices.  Words act on states left to right:
``q . uv == (q . u) . v``, which fixes the composition order of preimages
as ``S . (uv)^-1 == (S . v^-1) . u^-1`` everywhere.

A whole word acts through its transformation ``word_map``, read left to
right one letter at a time (``move_states``): on at most 256 states the map
is an n-byte string and a letter is one ``bytes.translate``; above that a
block of letters moves only the image so far, one gather per letter.
``apply_word`` and ``preimage_word`` read the image and the preimage off
it.  A step of a subset by a letter is the union of one mask per member
state, from a table per letter and direction (``Automaton.step_masks``)
built once per automaton; ``search.subset_search``, the one breadth-first
search over subsets, takes its steps so.  ``problem_goal`` states each of
the four problems as one test on the preimage S·w⁻¹.

All values here are immutable after construction, so they can be shared
freely between threads; derived analyses are memoized on the automaton
(idempotent, hence harmless under concurrent recomputation).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

# The classes random_automaton draws from, kept here so the CLI need not import gadgets.
CONSTRAINTS = ("none", "strongly-connected", "synchronizing", "permutation")


def decimal(token: str) -> int:
    """``int(token)`` for a token ``-?[0-9]+``; ValueError for any other spelling."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


# bytes.translate table from letter indices 0-25 to their names a-z.
_LETTER_NAMES = bytes(range(ord("a"), ord("a") + 26)).ljust(256, b"\0")


class Word(tuple):
    """An immutable sequence of letter indices: the tuple of its letters."""

    __slots__ = ()

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse ``"ba"`` into letter indices (``a`` = 0, ``b`` = 1, ...).

        Also accepts whitespace-separated ASCII decimal indices for big
        alphabets.  Letters outside ``a``-``z``, other spellings of an index
        and negative indices raise ValueError.
        """
        text = text.strip()
        if text == "":
            return cls()
        if any(ch.isspace() or ch.isdigit() for ch in text):
            word = cls(map(decimal, text.split()))
            if any(a < 0 for a in word):
                raise ValueError(f"negative letter index in word {text!r}")
            return word
        bad = next((ch for ch in text if not "a" <= ch <= "z"), None)
        if bad is not None:
            raise ValueError(f"bad letter {bad!r} in word {text!r}: expected a-z")
        return cls(ord(ch) - ord("a") for ch in text)

    @property
    def letters(self) -> "Word":
        """The word itself: it is the tuple of its letters."""
        return self

    def text(self, k: Optional[int] = None) -> str:
        """Render with letter names a-z for alphabets of at most 26 letters
        when every letter lies in 0-25, with decimal indices otherwise."""
        if k is None:
            k = (max(self) + 1) if self else 1
        if k <= 26:
            try:
                names = bytes(self).translate(_LETTER_NAMES)  # 0 for letters 26-255
            except ValueError:  # a letter outside 0-255
                names = b"\0"
            if b"\0" not in names:
                return names.decode()
        return " ".join(map(str, self))

    def __add__(self, other: Iterable[int]) -> "Word":
        return Word((*self, *other))

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

    def complement(self) -> "StateSet":
        return StateSet(self.n, ((1 << self.n) - 1) ^ self.bits)

    def issubset(self, other: "StateSet") -> bool:
        if self.n != other.n:
            raise ValueError(f"state sets bound to different automata sizes ({self.n} vs {other.n})")
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
    immutable; expensive derived analyses (the step masks of each
    direction, SCCs, the pair table, ...) are memoized in ``_derived``.
    """

    __slots__ = ("n", "k", "rows", "by_letter", "_derived")

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if n < 1:
            raise ValueError("automaton needs at least one state")
        k = len(rows[0])
        if k < 1:
            raise ValueError("automaton needs at least one letter")
        table = tuple(map(tuple, rows))
        by_letter = tuple(zip(*table))
        if ({k} != set(map(len, table)) or min(map(min, by_letter)) < 0
                or max(map(max, by_letter)) >= n):
            for q, row in enumerate(table):  # the first fault in reading order
                if len(row) != k:
                    raise ValueError(f"row {q} has {len(row)} entries, expected {k}")
                for a, p in enumerate(row):
                    if not 0 <= p < n:
                        raise ValueError(f"transition ({q},{a}) -> {p} out of range [0, {n})")
        self.n = n
        self.k = k
        self.rows = table
        self.by_letter = by_letter
        self._derived: dict = {}

    def step_masks(self, direction: str) -> tuple[tuple[int, ...], ...]:
        """Per letter ``a``, the mask each state ``q`` adds to a one-letter
        step: ``{p : p.a == q}`` for "preimage", ``{q.a}`` for "image"."""
        masks = self._derived.get(("step_masks", direction))
        if masks is None:
            if direction == "preimage":
                masks = [[0] * self.n for _ in self.by_letter]
                for row, succ in zip(masks, self.by_letter):
                    for p, q in enumerate(succ):
                        row[q] |= 1 << p
            else:
                masks = [[1 << q for q in succ] for succ in self.by_letter]
            masks = self._derived["step_masks", direction] = tuple(map(tuple, masks))
        return masks

    def check_word(self, w: Word) -> None:
        distinct = set(w)  # at most k letters when the word is valid
        if distinct and (min(distinct) < 0 or max(distinct) >= self.k):
            bad = next(a for a in w if not 0 <= a < self.k)
            raise ValueError(f"letter {bad} out of range [0, {self.k})")

    def check_set(self, s: StateSet) -> None:
        if s.n != self.n:
            raise ValueError(f"state set bound to n={s.n}, automaton has n={self.n}")

    def image_bits(self, bits: int, a: int) -> int:
        return _step(self.step_masks("image")[a], bits)

    def preimage_bits(self, bits: int, a: int) -> int:
        return _step(self.step_masks("preimage")[a], bits)

    def state_set(self, states: Iterable[int]) -> StateSet:
        return StateSet.from_states(self.n, states)

    def __eq__(self, other) -> bool:
        return isinstance(other, Automaton) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Automaton(n={self.n}, k={self.k})"


def _step(masks: Sequence[int], bits: int) -> int:
    """The union of the masks of the member states of ``bits``: one letter's
    step in the direction of ``masks`` (``Automaton.step_masks``)."""
    out = 0
    while bits:
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


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
    if last is not None and last[0] is w:
        return last[1]
    if aut.n <= 256:
        f = tuple(move_states(aut, range(aut.n), w))
    else:
        f = image = tuple(range(aut.n))
        step = list(f)  # step[p] == p . block for p in the image
        for i in range(0, len(w), 32):
            moved = move_states(aut, image, w[i:i + 32])
            for p, q in zip(image, moved):
                step[p] = q
            f, image = itemgetter(*f)(step), (*set(moved), moved[0])  # a repeat keeps two states
    aut._derived["word_map"] = (w, f)
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


def sink_state(aut: Automaton) -> Optional[int]:
    """The smallest state fixed by every letter, or None.

    Several such states can only coexist in a non-synchronizing automaton;
    returning the smallest keeps the output deterministic.
    """
    return next((q for q, row in enumerate(aut.rows) if row.count(q) == aut.k), None)


def _classification(aut: Automaton, want_sync: bool) -> dict:
    """The flags of a report and of ``classify``.  Synchronization is the flag
    ``pairs.is_synchronizing`` cached, or None when it has not run and
    ``want_sync`` does not ask for it."""
    sync = aut._derived.get("synchronizing")
    if sync is None and want_sync:
        from .pairs import is_synchronizing
        sync = is_synchronizing(aut)
    return {
        "strongly_connected": is_strongly_connected(aut),
        "synchronizing": sync,
        "permutation": is_permutation_automaton(aut),
        "sink_state": sink_state(aut),
    }
