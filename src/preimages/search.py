"""The subset kernel.  ``subset_search`` is the one breadth-first search over
subsets: extend and resize walk back from S by preimage steps, avoid walks
forward by image steps and back, and the power-set oracle does both.
``race`` runs such searches in lock-step under one node budget and returns
the first that answers; ``subset_bfs`` is a race of one.  Only the routes
that search import this module."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .automaton import Automaton, Goal, Word, _step
from .errors import BudgetExceededError, DEFAULT_ORACLE_STATE_CAP


class SubsetBfsResult:
    """The subsets a search reached, and the one that stopped it.

    ``direction`` is "preimage" or "image".  ``reached`` holds the reached
    subsets in generation order (FIFO, letters ascending), sources first.  A
    search without a goal reaches every subset; one with a goal ends at the
    first subset that meets it, stored in ``hit`` (None if no reachable
    subset does), and ``word`` is ``word_to(hit)`` (None without a hit).
    """

    __slots__ = ("direction", "reached", "hit", "word", "_pred", "_masks")

    def __init__(self, direction: str, reached: Sequence[int], hit: Optional[int], pred,
                 masks: Sequence[Sequence[int]]):
        self.direction, self.reached, self.hit = direction, reached, hit
        self._pred = pred  # bits -> predecessor bits or a source's own bits; -1 in the array
        self._masks = masks  # the direction's ``Automaton.step_masks``
        self.word = None if hit is None else self.word_to(hit)

    def word_to(self, bits: int) -> Word:
        """The word whose action takes a source to the given subset, each
        letter the smallest that makes its step, which is the one the search
        recorded.  KeyError if the search did not reach the subset."""
        pred, per_letter, letters = self._pred, self._masks, []
        try:
            parent = pred[bits] if bits >= 0 else -1
        except (IndexError, KeyError):  # not in the dict, or past the end of the array
            parent = -1
        if parent < 0:
            raise KeyError(bits)
        while parent != bits:
            letters.append(next(a for a, m in enumerate(per_letter) if _step(m, parent) == bits))
            bits, parent = parent, pred[parent]
        if self.direction == "image":
            letters.reverse()
        return Word(letters)


def _step_tables(per_letter, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per letter, the two half tables of the step whose per-state masks
    ``per_letter`` holds (``Automaton.step_masks``).  With the n states split
    at h = ceil(n/2), entry x of the low table is the union of the masks of
    the states among 0..h-1 that x selects, and entry x of the high table
    that of the states h + i for the bits i of x: 2^h and 2^(n-h) entries."""
    h = (n + 1) // 2
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


def _search_by_members(per_letter, pred: dict, order, goal: Optional[Goal], allowance: int,
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
            for masks in per_letter:
                child = _step(masks, bits)
                if child not in pred:
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
    sources and the first level sit in a plain dict, and a step ORs one mask
    per member state.  Once a second level is needed, up to
    ``DEFAULT_ORACLE_STATE_CAP`` states the predecessors move to an int
    array indexed by subset bits (-1: none; 4 MiB at n = 20, whatever the
    budget) and a step is two lookups in half tables built from the same
    masks (two of at most 2^10 entries per letter); above it, or with
    ``admit``, the dict keeps them, bounded by the budget.
    """
    pred, order = {}, []
    per_letter = aut.step_masks(direction)
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
            per_letter, pred, order, goal, allowance, 1 if flat else max_depth, admit)
        if flat and hit is None and lo < len(order):  # a second level is needed
            from array import array
            sparse, pred, order = pred, array("i", [-1]) * (1 << aut.n), array("I", order)
            for bits in order:
                pred[bits] = sparse[bits]
            hit = yield from _search_by_halves(_step_tables(per_letter, aut.n), pred, order, lo,
                                               1, goal, allowance, max_depth)
    return SubsetBfsResult(direction, order, hit, pred, per_letter)


def race(entries: Iterable[tuple[Word, Iterator]], budget: int, stats: Optional[dict] = None,
         max_len: Optional[int] = None) -> tuple[SubsetBfsResult, Optional[Word]]:
    """Run ``(prefix, subset_search generator)`` entries in lock-step until one
    answers: it ends without a hit, or the word ``prefix + result.word`` has at
    most ``max_len`` letters (any, when None).  A longer word drops only its
    own entry.  Returns that search's result and word (None: no hit).  Round
    r allows each search 2^r subsets, so one that finishes with N has let no
    other hold more than about 2N.  All the subsets they hold count against
    ``budget``; more raise BudgetExceededError.  ``stats["nodes"]`` counts
    them at each finish.  ValueError if every entry is dropped."""
    prefixes, searches = zip(*entries)
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
                res, counts[i] = done.value, len(done.value.reached)
                live.remove(i)
                if stats is not None:
                    stats["nodes"] = base + sum(counts)
                word = None if res.word is None else prefixes[i] + res.word
                if word is None or max_len is None or len(word) <= max_len:
                    return res, word
            if others + counts[i] > budget:
                raise BudgetExceededError(f"subset BFS exceeded node limit {budget}",
                                          others + counts[i])
        allowance *= 2
    raise ValueError(f"every search found a word longer than max_len={max_len}")


def subset_bfs(aut: Automaton, sources: Iterable[int], direction: str, goal: Optional[Goal],
               budget: int, stats: Optional[dict] = None, max_depth: int = -1,
               admit: Optional[Goal] = None) -> SubsetBfsResult:
    """One ``subset_search`` run to its end: more than ``budget`` discovered
    subsets raise BudgetExceededError, and ``stats["nodes"]`` adds them up
    when the search returns."""
    search = subset_search(aut, sources, direction, goal, max_depth, admit)
    return race([(Word(), search)], budget, stats)[0]
