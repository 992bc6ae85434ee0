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

    Every input's chosen accepting state (the smallest) is exploded into a
    block of 2M beta-cycled copies; the alpha letter rotates between the
    per-input sub-automata and a fresh block holding the marker states s0,
    t0.  Inputs are assumed trimmed/minimal by the caller.
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

    sizes = [d.automaton.n for d in dfas]
    big_m = sum(sizes)
    gamma_len = 2 * big_m
    chosen = [min(d.accepting) for d in dfas]

    # Index layout: block 0 = [s0, t0, gamma0...]; block i >= 1 = the i-th
    # DFA's states minus its chosen accepting state (ascending), then gammai.
    names: list[str] = ["s0", "t0"] + [f"g0[{j}]" for j in range(gamma_len)]
    s0, t0 = 0, 1
    gamma_base = [2]  # gamma_base[i] = index of (f_i, 0)
    survivors: list[list[int]] = [[]]  # per block, original states kept
    state_of: list[dict[int, int]] = [{}]  # per input i+1: original -> new index
    for i, d in enumerate(dfas, start=1):
        base = len(names)
        kept = [q for q in range(d.automaton.n) if q != chosen[i - 1]]
        mapping = {q: base + pos for pos, q in enumerate(kept)}
        names.extend(f"d{i}:{q}" for q in kept)
        gb = len(names)
        names.extend(f"g{i}[{j}]" for j in range(gamma_len))
        gamma_base.append(gb)
        survivors.append(kept)
        state_of.append(mapping)

    total = len(names)
    alpha, beta = k, k + 1
    rows = [[0] * (k + 2) for _ in range(total)]

    def target(i: int, q: int) -> int:
        """New index of original state q of input i (chosen state -> gamma 0)."""
        if q == chosen[i - 1]:
            return gamma_base[i]
        return state_of[i][q]

    def block_entry(i: int) -> int:
        """New index of s_i: the fresh s0 for block 0, else input i's initial."""
        if i == 0:
            return s0
        return target(i, dfas[i - 1].initial)

    # Sigma letters.
    for a in range(k):
        rows[s0][a] = s0
        rows[t0][a] = t0
        for j in range(gamma_len):
            rows[gamma_base[0] + j][a] = t0
        for i, d in enumerate(dfas, start=1):
            delta = d.automaton.rows
            for q in survivors[i]:
                rows[state_of[i][q]][a] = target(i, delta[q][a])
            for j in range(gamma_len):
                rows[gamma_base[i] + j][a] = target(i, delta[chosen[i - 1]][a])

    # Alpha rotates whole blocks to the next block's entry state.
    block_of = [0] * total
    for i in range(1, m + 1):
        for q in survivors[i]:
            block_of[state_of[i][q]] = i
        for j in range(gamma_len):
            block_of[gamma_base[i] + j] = i
    for q in range(total):
        rows[q][alpha] = block_entry((block_of[q] + 1) % (m + 1))

    # Beta cycles each gamma block, pushes s0 into gamma0, fixes the rest.
    for q in range(total):
        rows[q][beta] = q
    for i in range(m + 1):
        for j in range(gamma_len):
            rows[gamma_base[i] + j][beta] = gamma_base[i] + (j + 1) % gamma_len
    rows[s0][beta] = gamma_base[0]

    subset_bits = 1 << s0
    for i in range(m + 1):
        for j in range(gamma_len):
            subset_bits |= 1 << (gamma_base[i] + j)
    for i, d in enumerate(dfas, start=1):
        for q in d.accepting:
            if q != chosen[i - 1]:
                subset_bits |= 1 << state_of[i][q]

    aut = Automaton(rows)
    return GadgetOutput(aut, StateSet(total, subset_bits), tuple(names))


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
