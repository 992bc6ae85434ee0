"""Reduction constructions as executable automaton transformations.

Each gadget returns the built automaton together with its designated subset
and a state-name table mapping every new state index back to its
construction role, so tests (and humans) can audit the wiring.  The claimed
equivalences (extensibility carried across the construction, preserved
strong connectivity, forced synchronization, ...) are verified against the
exhaustive oracle in the test suite, not recomputed here.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .automaton import CONSTRAINTS, Automaton, StateSet, is_strongly_connected, letter_name
from .pairs import is_synchronizing

REJECTION_CAP = 10_000


@dataclass(frozen=True)
class DfaWithAcceptance:
    """A complete DFA with an initial state and accepting states."""

    automaton: Automaton
    initial: int
    accepting: StateSet

    def __post_init__(self):
        if not 0 <= self.initial < self.automaton.n:
            raise ValueError(f"initial state {self.initial} out of range")
        self.automaton.check_set(self.accepting)


def trim_reachable(dfa: DfaWithAcceptance) -> DfaWithAcceptance:
    """Restrict a DFA to the states reachable from its initial state.

    The intersection gadget assumes trimmed inputs (its strong-connectivity
    guarantee walks every kept state from the block entry).  States keep
    their relative order.
    """
    aut = dfa.automaton
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        q = queue.popleft()
        for a in range(aut.k):
            p = aut.rows[q][a]
            if p not in seen:
                seen.add(p)
                queue.append(p)
    kept = sorted(seen)
    relabel = {q: i for i, q in enumerate(kept)}
    rows = [[relabel[aut.rows[q][a]] for a in range(aut.k)] for q in kept]
    accepting = StateSet.from_states(len(kept), [relabel[q] for q in dfa.accepting if q in seen])
    return DfaWithAcceptance(Automaton(rows), relabel[dfa.initial], accepting)


@dataclass(frozen=True)
class GadgetOutput:
    """A constructed automaton, its designated subset, and state names."""

    automaton: Automaton
    subset: StateSet
    state_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.state_names) != self.automaton.n:
            raise ValueError("state-name table must cover every state")
        if len(set(self.state_names)) != self.automaton.n:
            raise ValueError("state-name table must be a bijection")
        self.automaton.check_set(self.subset)

    def name_of(self, q: int) -> str:
        return self.state_names[q]


def intersection_gadget(dfas: Sequence[DfaWithAcceptance]) -> GadgetOutput:
    """Strongly connected automaton whose subset is (totally) extensible iff
    the input DFAs accept a common word.

    With M the inputs' total state count, the states form m + 1 blocks, each
    ending in a cycle of 2M states: block 0 is s0, t0, g0[0..2M-1]; block i
    is input i's states except f_i, its smallest accepting state, ascending,
    then gi[0..2M-1], where gi[0] stands for f_i and every gi[j] copies f_i's
    sigma row.  The sigma letters act as input i on block i; on block 0 they
    fix s0 and t0 and send g0 to t0.  Alpha sends all of block i to the entry
    of block i + 1 (mod m + 1): s0, or input i + 1's initial state.  Beta turns
    every cycle one step, sends s0 to g0[0] and fixes the rest.  The subset
    is s0, every cycle and the inputs' other accepting states.  Inputs are
    assumed trimmed/minimal by the caller.
    """
    m = len(dfas)
    if m < 1:
        raise ValueError("need at least one DFA")
    k = dfas[0].automaton.k
    for d in dfas:
        if d.automaton.k != k:
            raise ValueError("all DFAs must share one alphabet")
        if d.accepting.size == 0:
            raise ValueError("every DFA needs at least one accepting state")

    cycle = 2 * sum(d.automaton.n for d in dfas)
    names = ["s0", "t0"] + [f"g0[{j}]" for j in range(cycle)]
    starts, index = [0], []  # block i starts at starts[i]; index[i - 1] maps input i's states
    for i, d in enumerate(dfas, start=1):
        n, f, base = d.automaton.n, min(d.accepting), len(names)
        index.append([base + n - 1 if q == f else base + q - (q > f) for q in range(n)])
        starts.append(base)
        names += [f"d{i}:{q}" for q in range(n) if q != f] + [f"g{i}[{j}]" for j in range(cycle)]
    starts.append(len(names))
    entries = [0] + [at[d.initial] for at, d in zip(index, dfas)]

    alpha, beta = k, k + 1
    rows = [[q] * (k + 2) for q in range(len(names))]  # sigma fixes s0 and t0, beta the rest
    rows[0][beta] = 2  # s0 -> g0[0]
    rows[2][:k] = [1] * k  # g0[0] -> t0, copied along g0 below
    for at, d in zip(index, dfas):  # f_i's row lands on gi[0]
        for q, successors in enumerate(d.automaton.rows):
            rows[at[q]][:k] = [at[p] for p in successors]
    cycles = []
    for i in range(m + 1):
        for q in range(starts[i], starts[i + 1]):
            rows[q][alpha] = entries[(i + 1) % (m + 1)]
        first = starts[i + 1] - cycle
        for j in range(cycle):
            rows[first + j][:k] = rows[first][:k]
            rows[first + j][beta] = first + (j + 1) % cycle
        cycles += range(first, first + cycle)
    accepting = [at[q] for at, d in zip(index, dfas) for q in d.accepting]  # f_i's is gi[0]
    subset = StateSet.from_states(len(names), [0] + cycles + accepting)
    return GadgetOutput(Automaton(rows), subset, tuple(names))


def binarize(aut: Automaton, s: StateSet) -> GadgetOutput:
    """Two-letter automaton preserving strong connectivity and (total)
    extensibility of the carried subset, in both directions.

    State (q, a_i) gets index q*k + i; the first output letter applies a_i
    and remembers it, the second advances the remembered letter cyclically.
    """
    aut.check_set(s)
    n, k = aut.n, aut.k
    rows = []
    names = []
    for q in range(n):
        for i in range(k):
            rows.append([aut.rows[q][i] * k + i, q * k + (i + 1) % k])
            names.append(f"({q},{letter_name(i, k)})")
    bits = 0
    for q in s:
        bits |= 1 << (q * k)
    for q in range(n):
        for i in range(1, k):
            bits |= 1 << (q * k + i)
    return GadgetOutput(Automaton(rows), StateSet(n * k, bits), tuple(names))


def sink_binarize(aut: Automaton) -> GadgetOutput:
    """Synchronizing binary automaton with a fresh sink state z.

    Input must be binary.  Original state i keeps index i; its selector
    copies sit at n+i and 2n+i, the sink at 3n.  Extensibility of any subset
    of the original states is unchanged.  The designated subset is the set
    of original states.
    """
    if aut.k != 2:
        raise ValueError("sink_binarize expects a binary automaton")
    n = aut.n
    z = 3 * n
    rows = [[0, 0] for _ in range(3 * n + 1)]
    names = [f"q{i}" for i in range(n)] + [f"q{i}^a" for i in range(n)] \
        + [f"q{i}^b" for i in range(n)] + ["z"]
    for i in range(n):
        rows[i] = [n + i, 2 * n + i]
        rows[n + i] = [aut.rows[i][0], aut.rows[i][1]]
        rows[2 * n + i] = [z, z]
    rows[z] = [z, z]
    return GadgetOutput(Automaton(rows), StateSet(3 * n + 1, (1 << n) - 1), tuple(names))


def large_extend_gadget(aut: Automaton, s: StateSet, f: int) -> GadgetOutput:
    """Gadget whose subset S' = Q (complement of size 2) is extensible iff
    the input subset is totally extensible.

    Adds states e and s plus a letter that funnels S and s to the anchor
    state f, and everything else to e.
    """
    aut.check_set(s)
    if not 0 <= f < aut.n:
        raise ValueError(f"anchor state {f} out of range")
    n, k = aut.n, aut.k
    e_state, s_state = n, n + 1
    rows = []
    for q in range(n):
        rows.append(list(aut.rows[q]) + [f if q in s else e_state])
    rows.append([e_state] * k + [e_state])  # e
    rows.append([s_state] * k + [f])        # s
    names = tuple([f"q{i}" for i in range(n)] + ["e", "s"])
    return GadgetOutput(Automaton(rows), StateSet(n + 2, (1 << n) - 1), names)


def random_automaton(n: int, k: int, seed: int, constraint: str = "none") -> Automaton:
    """Seeded random automaton; identical arguments give identical tables.

    Transitions are uniform and independent; structural constraints are
    enforced by rejection sampling (capped), except permutations, which are
    drawn directly as uniform per-letter permutations.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}; expected one of {CONSTRAINTS}")
    rng = random.Random(seed)

    if constraint == "permutation":
        cols = []
        for _ in range(k):
            perm = list(range(n))
            rng.shuffle(perm)
            cols.append(perm)
        return Automaton([[cols[a][q] for a in range(k)] for q in range(n)])

    for _ in range(REJECTION_CAP):
        aut = Automaton([[rng.randrange(n) for _ in range(k)] for _ in range(n)])
        if constraint == "none":
            return aut
        if constraint == "strongly-connected" and is_strongly_connected(aut):
            return aut
        if constraint == "synchronizing" and is_synchronizing(aut):
            return aut
    raise RuntimeError(
        f"could not draw a {constraint} automaton with n={n}, k={k} in {REJECTION_CAP} attempts")


def languages_intersect(dfas: Sequence[DfaWithAcceptance]) -> bool:
    """Product-construction emptiness check: do the DFAs accept a common word?"""
    if not dfas:
        raise ValueError("need at least one DFA")
    k = dfas[0].automaton.k
    if any(d.automaton.k != k for d in dfas):
        raise ValueError("all DFAs must share one alphabet")
    start = tuple(d.initial for d in dfas)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if all(q in d.accepting for q, d in zip(state, dfas)):
            return True
        for a in range(k):
            nxt = tuple(d.automaton.rows[q][a] for q, d in zip(state, dfas))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False
