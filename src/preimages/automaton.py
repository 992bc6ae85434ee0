"""Complete deterministic automata, state sets, words, and their actions.

States are 0-based integers ``0..n-1`` and letters 0-based integers
``0..k-1``; letter ``i`` is pretty-printed as the ``(i+1)``-th lowercase
letter whenever the alphabet has at most 26 letters.  Words act on states
left to right: ``q . uv == (q . u) . v``, which fixes the composition order
of preimages as ``S . (uv)^-1 == (S . v^-1) . u^-1`` everywhere.

A whole word acts through its transformation ``word_map``, composed right to
left with one C-level gather per letter; ``apply_word`` and ``preimage_word``
read the image and the preimage off it.  The single-letter steps
``image_bits`` and ``preimage_bits`` drive the subset searches.

All values here are immutable after construction, so they can be shared
freely between threads; derived analyses are memoized on the automaton
(idempotent, hence harmless under concurrent recomputation).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError

# The classes random_automaton draws from, kept here so the CLI need not import gadgets.
CONSTRAINTS = ("none", "strongly-connected", "synchronizing", "permutation")


def letter_name(a: int, k: int) -> str:
    """Display name of letter ``a`` in a ``k``-letter alphabet."""
    if k <= 26:
        return chr(ord("a") + a)
    return str(a)


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
        """Render with letter names for alphabets of at most 26 letters."""
        if k is None:
            k = (max(self.letters) + 1) if self.letters else 1
        if k <= 26:
            return "".join(chr(ord("a") + a) for a in self.letters)
        return " ".join(str(a) for a in self.letters)

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
    immutable; set operations return fresh values and insist that both
    operands are bound to the same ``n``.
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

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check_peer(other)
        return StateSet(self.n, self.bits | other.bits)

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check_peer(other)
        return StateSet(self.n, self.bits & other.bits)

    def __sub__(self, other: "StateSet") -> "StateSet":
        self._check_peer(other)
        return StateSet(self.n, self.bits & ~other.bits)

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
        for a in w:
            if not 0 <= a < self.k:
                raise ValueError(f"letter {a} out of range [0, {self.k})")

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


def subset_bfs(sources: Iterable[int], step: Callable[[int, int], int], k: int,
               is_goal: Callable[[int], bool], budget: int,
               stats: Optional[dict] = None) -> Optional[Word]:
    """Multi-source FIFO BFS over subsets held as bit patterns.

    ``sources`` yields distinct bit patterns.  Children are ``step(bits, a)``
    for ``a`` in ``0..k-1``, tried in ascending order.  Every discovered
    node, sources included, is tested by ``is_goal``; the first hit returns
    the letters of its path from a source, exhaustion returns None.  More
    than ``budget`` discovered nodes raise BudgetExceededError;
    ``stats["nodes"]`` counts them otherwise.

    A node stores only its parent, and a source is its own parent.  A path's
    letters are recovered afterwards: the smallest letter that steps the
    parent to the child is the one the search recorded.
    """
    parent: dict[int, int] = {}
    queue: deque[int] = deque()

    def discover(bits: int, par: int) -> bool:
        """Record a new node; True if it is a goal."""
        parent[bits] = par
        if len(parent) > budget:
            raise BudgetExceededError(f"subset search exceeded budget {budget}", len(parent))
        if is_goal(bits):
            return True
        queue.append(bits)
        return False

    goal = next((bits for bits in sources if discover(bits, bits)), None)
    while goal is None and queue:
        bits = queue.popleft()
        for a in range(k):
            child = step(bits, a)
            if child not in parent and discover(child, bits):
                goal = child
                break
    if stats is not None:
        stats["nodes"] = len(parent)
    if goal is None:
        return None
    letters = []
    par = parent[goal]
    while par != goal:
        letters.append(next(a for a in range(k) if step(par, a) == goal))
        goal, par = par, parent[par]
    return Word(reversed(letters))


def word_map(aut: Automaton, w: Word) -> tuple[int, ...]:
    """The transformation of ``w``: ``f[q] == q . w`` for every state ``q``.

    Built right to left, since ``q . (av) == (q . a) . v``: each letter is one
    cached ``itemgetter`` gather over the map of the rest of the word.  The
    letters are not range-checked here.  The map of the last word is kept on
    the automaton, so checking a witness and then measuring its preimage
    walks the word once.
    """
    last = aut._derived.get("word_map")
    if last is not None and last[0] is w.letters:
        return last[1]
    f = tuple(range(aut.n))
    if aut.n > 1:  # itemgetter with one index returns a scalar, not a tuple
        gathers = aut._derived.get("gathers")
        if gathers is None:
            gathers = aut._derived["gathers"] = tuple(itemgetter(*succ) for succ in aut.by_letter)
        for a in reversed(w.letters):
            f = gathers[a](f)
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


def sink_state(aut: Automaton) -> Optional[int]:
    """The smallest state fixed by every letter, or None.

    Several such states can only coexist in a non-synchronizing automaton;
    returning the smallest keeps the output deterministic.
    """
    for q in range(aut.n):
        if all(aut.rows[q][a] == q for a in range(aut.k)):
            return q
    return None
