"""Exhaustive subset-space searches: desk-scale ground truth.

Both directions walk the power set breadth-first, so they are capped (by
default at 20 states) and guarded by an explicit node limit.  Depths are
exact shortest distances; the preimage direction prepends letters while
walking back from a subset, because ``(S . w^-1) . a^-1 == S . (aw)^-1``.

One step looks a subset up 8 states at a time: for each letter and each
8-bit chunk of the state range a table holds, at index x, the union of the
one-letter preimages (or images) of the states x selects.  A step costs
ceil(n/8) lookups, and the tables stay linear in n.  A search given a goal
stops at the first generated subset that meets it, which is a shortest
witness because generation order is breadth-first; the node limit counts
the subsets generated up to and including that one.

Up to 20 states the search boxes nothing per subset: predecessors sit in
an int array indexed by subset bits (4 MiB at n = 20, whatever the node
limit) and the generation order in another.  Above that, under a raised
cap, a dict holds the reached subsets' predecessors, bounded by the node
limit.  Letters and depths are recovered from the predecessors.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .automaton import Automaton, StateSet, Word
from .errors import BudgetExceededError, DEFAULT_NODE_BUDGET, DEFAULT_ORACLE_STATE_CAP

GOALS = ("extending", "totally-extending", "avoiding", "resizing")

Goal = Callable[[int, int], bool]  # (subset bits, depth) -> met


class _Reached(Mapping):
    """Read-only map of the reached subsets in generation order (FIFO,
    letters ascending): bits -> ``(depth, letter, predecessor bits)``, and
    the start -> ``(0, -1, -1)``.  Its first match is what an early-stopping
    search returns.  The letter is the smallest that maps the predecessor
    to the subset, which is the one the search recorded."""

    __slots__ = ("_pred", "_order", "_step", "_k")

    def __init__(self, pred, order, step: Callable[[int, int], int], k: int):
        self._pred = pred  # bits -> predecessor bits, the start's own bits, or -1
        self._order = order  # reached subsets in generation order
        self._step, self._k = step, k  # (bits, letter) -> child bits; letter count

    def _parent(self, bits: int) -> int:
        try:
            parent = self._pred[bits] if bits >= 0 else -1
        except IndexError:  # past the end of a flat store
            parent = -1
        if parent < 0:
            raise KeyError(bits)
        return parent

    def _letter(self, parent: int, bits: int) -> int:
        return next(a for a in range(self._k) if self._step(parent, a) == bits)

    def __getitem__(self, bits: int) -> tuple[int, int, int]:
        parent = self._parent(bits)
        if parent == bits:
            return 0, -1, -1
        depth, p = 1, parent
        while self._pred[p] != p:
            depth, p = depth + 1, self._pred[p]
        return depth, self._letter(parent, bits), parent

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)


class _Sparse(dict):
    """The predecessor store above the flat-array limit."""

    def __missing__(self, bits: int) -> int:
        return -1


@dataclass
class SubsetBfsResult:
    """The subsets a search reached, and the one that stopped it.

    A search without a stop predicate reaches every subset; one with a stop
    predicate ends at the first subset that meets it, stored in ``hit``
    (None if no reachable subset does).
    """

    direction: str  # "preimage" | "image"
    reached: _Reached
    hit: Optional[int] = None

    def word_to(self, bits: int) -> Word:
        """Reconstruct the word whose action produced the given subset."""
        reached, letters = self.reached, []
        parent = reached._parent(bits)
        while parent != bits:
            letters.append(reached._letter(parent, bits))
            bits, parent = parent, reached._pred[parent]
        if self.direction == "image":
            letters.reverse()
        return Word(letters)

    def first_match(self, want: Goal) -> Optional[tuple[Word, int, int]]:
        """First generated subset with ``want(bits, depth)``: (word, length, bits)."""
        for bits, (depth, _, _) in self.reached.items():
            if want(bits, depth):
                return self.word_to(bits), depth, bits
        return None


def _chunk_tables(per_state: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """One letter's step tables: for each 8-bit chunk of the state range,
    entry x is the OR of ``per_state[q]`` over the states q that x selects.

    The last chunk's table has 2^r entries for its r states.
    """
    tables = []
    for base in range(0, len(per_state), 8):
        table = [0]
        for mask in per_state[base:base + 8]:
            table += [entry | mask for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


def _step_tables(aut: Automaton, direction: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per letter, the chunk tables of one preimage or image step."""
    if direction == "preimage":
        per_letter = [aut.preimage_masks(a) for a in range(aut.k)]
    else:
        per_letter = [[1 << q for q in succ] for succ in aut.by_letter]
    return tuple(_chunk_tables(masks) for masks in per_letter)


def _subset_bfs(aut: Automaton, start_bits: int, direction: str, node_limit: int,
                state_cap: int, stop: Optional[Goal]) -> SubsetBfsResult:
    if aut.n > state_cap:
        raise BudgetExceededError(
            f"power-set search refused: n={aut.n} exceeds cap {state_cap}")
    if aut.n <= DEFAULT_ORACLE_STATE_CAP:  # flat: at most 4 MiB of predecessors
        pred, order = array("i", [-1]) * (1 << aut.n), array("I", [start_bits])
    else:
        pred, order = _Sparse(), [start_bits]
    pred[start_bits] = start_bits
    result = SubsetBfsResult(direction, _Reached(
        pred, order, aut.preimage_bits if direction == "preimage" else aut.image_bits, aut.k))
    if stop is not None and stop(start_bits, 0):
        result.hit = start_bits
        return result
    step_tables = _step_tables(aut, direction)
    depth = lo = 0
    while lo < len(order):
        depth += 1
        frontier, lo = order[lo:], len(order)
        for bits in frontier:
            for tables in step_tables:
                child, rest = 0, bits
                for table in tables:
                    child |= table[rest & 0xFF]
                    rest >>= 8
                if pred[child] < 0:
                    pred[child] = bits
                    order.append(child)
                    if len(order) > node_limit:
                        raise BudgetExceededError(
                            f"subset BFS exceeded node limit {node_limit}", len(order))
                    if stop is not None and stop(child, depth):
                        result.hit = child
                        return result
    return result


def backward_subset_bfs(aut: Automaton, s: StateSet, node_limit: int = DEFAULT_NODE_BUDGET,
                        state_cap: int = DEFAULT_ORACLE_STATE_CAP,
                        stop: Optional[Goal] = None) -> SubsetBfsResult:
    """Subsets reachable from S by iterated single-letter preimages: all of
    them, or those generated up to the first that meets ``stop``."""
    aut.check_set(s)
    return _subset_bfs(aut, s.bits, "preimage", node_limit, state_cap, stop)


def forward_subset_bfs(aut: Automaton, t0: Optional[StateSet] = None,
                       node_limit: int = DEFAULT_NODE_BUDGET,
                       state_cap: int = DEFAULT_ORACLE_STATE_CAP,
                       stop: Optional[Goal] = None) -> SubsetBfsResult:
    """Subsets reachable from T0 (default Q) by single-letter images: all of
    them, or those generated up to the first that meets ``stop``."""
    if t0 is None:
        t0 = StateSet.full(aut.n)
    aut.check_set(t0)
    return _subset_bfs(aut, t0.bits, "image", node_limit, state_cap, stop)


def goal_predicate(goal: str, aut: Automaton, s: StateSet) -> Goal:
    size = s.size
    full = (1 << aut.n) - 1
    if goal == "extending":
        return lambda bits, depth: bits.bit_count() > size
    if goal == "totally-extending":
        return lambda bits, depth: bits == full
    if goal == "avoiding":
        return lambda bits, depth: bits == 0
    if goal == "resizing":
        return lambda bits, depth: depth > 0 and bits.bit_count() != size
    raise ValueError(f"unknown goal {goal!r}; expected one of {GOALS}")


def _word_and_length(result: SubsetBfsResult) -> Optional[tuple[Word, int]]:
    if result.hit is None:
        return None
    return result.word_to(result.hit), result.reached[result.hit][0]


def oracle_shortest(aut: Automaton, s: StateSet, goal: str,
                    node_limit: int = DEFAULT_NODE_BUDGET,
                    state_cap: int = DEFAULT_ORACLE_STATE_CAP) -> Optional[tuple[Word, int]]:
    """Shortest word for one of the preimage goals, or None.

    goal: "extending" (first preimage larger than S), "totally-extending"
    (preimage Q), "avoiding" (preimage of S shrinks to the empty set), or
    "resizing" (first preimage of a different size).  The search stops at
    the first subset that meets the goal.
    """
    aut.check_set(s)
    want = goal_predicate(goal, aut, s)
    return _word_and_length(backward_subset_bfs(aut, s, node_limit, state_cap, stop=want))


def oracle_shortest_reset(aut: Automaton, node_limit: int = DEFAULT_NODE_BUDGET,
                          state_cap: int = DEFAULT_ORACLE_STATE_CAP) -> Optional[tuple[Word, int]]:
    """Exact shortest reset word via forward power-set BFS, stopping at the
    first singleton image."""
    return _word_and_length(forward_subset_bfs(
        aut, None, node_limit, state_cap, stop=lambda bits, depth: bits.bit_count() == 1))


def oracle_min_rank(aut: Automaton, node_limit: int = DEFAULT_NODE_BUDGET,
                    state_cap: int = DEFAULT_ORACLE_STATE_CAP) -> int:
    """Smallest image cardinality over all words (exhaustive)."""
    result = forward_subset_bfs(aut, None, node_limit, state_cap)
    return min(bits.bit_count() for bits in result.reached)
