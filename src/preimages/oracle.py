"""Exhaustive subset-space searches: desk-scale ground truth.

Both directions walk the power set breadth-first, so they are capped (by
default at 20 states) and guarded by an explicit node limit.  Depths are
exact shortest distances; every stored back-pointer reconstructs a word of
exactly that depth.  The preimage direction prepends letters while walking
back-pointers, because ``(S . w^-1) . a^-1 == S . (aw)^-1``.

One step looks a subset up 8 states at a time: for each letter and each
8-bit chunk of the state range a table holds, at index x, the union of the
one-letter preimages (or images) of the states x selects.  A step costs
ceil(n/8) lookups, and the tables stay linear in n.  A search given a goal
stops at the first generated subset that meets it, which is a shortest
witness because generation order is breadth-first; the node limit counts
the subsets generated up to and including that one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .automaton import Automaton, StateSet, Word
from .errors import BudgetExceededError, DEFAULT_NODE_BUDGET, DEFAULT_ORACLE_STATE_CAP

GOALS = ("extending", "totally-extending", "avoiding", "resizing")

Goal = Callable[[int, int], bool]  # (subset bits, depth) -> met


@dataclass
class SubsetBfsResult:
    """Reached subsets with shortest depths and back-pointers.

    ``reached`` maps each subset bit pattern to ``(depth, letter, predecessor
    bits)``; the origin has letter/predecessor -1.  Insertion order equals
    generation order (FIFO, letters ascending), so iterating ``reached`` and
    taking the first match reproduces what an early-stopping search returns.
    A search without a stop predicate reaches every subset; one with a stop
    predicate ends at the first subset that meets it, stored in ``hit``
    (None if no reachable subset does).
    """

    direction: str  # "preimage" | "image"
    reached: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    hit: Optional[int] = None

    def word_to(self, bits: int) -> Word:
        """Reconstruct the word whose action produced the given subset."""
        letters: list[int] = []
        entry = self.reached[bits]
        while entry[1] >= 0:
            letters.append(entry[1])
            entry = self.reached[entry[2]]
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
    result = SubsetBfsResult(direction=direction)
    reached = result.reached
    reached[start_bits] = (0, -1, -1)
    if stop is not None and stop(start_bits, 0):
        result.hit = start_bits
        return result
    letters = tuple(enumerate(_step_tables(aut, direction)))
    frontier = [start_bits]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for bits in frontier:
            for a, tables in letters:
                child, rest = 0, bits
                for table in tables:
                    child |= table[rest & 0xFF]
                    rest >>= 8
                if child not in reached:
                    reached[child] = (depth, a, bits)
                    next_frontier.append(child)
                    if len(reached) > node_limit:
                        raise BudgetExceededError(
                            f"subset BFS exceeded node limit {node_limit}", len(reached))
                    if stop is not None and stop(child, depth):
                        result.hit = child
                        return result
        frontier = next_frontier
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
