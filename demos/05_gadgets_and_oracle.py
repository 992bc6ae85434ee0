"""Reduction gadgets, cross-checked against the exhaustive oracle.

The constructions that make the hardness landscape concrete: an
intersection gadget tying extensibility to DFA-intersection emptiness, a
binarization that preserves everything over two letters, a sink extension
that forces synchronization, and the two-spare-states gadget linking
extensibility of a large subset to total extensibility of a small one.
The power-set oracle replays each claim at desk scale.
"""

import random

from preimages import (DfaWithAcceptance, StateSet, binarize,
                       chain2, intersection_gadget, is_strongly_connected,
                       is_synchronizing, languages_intersect, large_extend_gadget,
                       oracle_shortest, perm3, random_automaton, sink_binarize,
                       sink_state)
from preimages.gadgets import trim_reachable

# --- intersection gadget ---------------------------------------------------
d = DfaWithAcceptance(chain2(), 0, StateSet.from_states(2, [1]))
out = intersection_gadget([d, d])
print("intersection gadget over two copies of the chain:",
      out.automaton.n, "states,", out.automaton.k, "letters")
print("  strongly connected:", is_strongly_connected(out.automaton))
word = oracle_shortest(out.automaton, out.subset, "extend",
                       node_limit=10**6, state_cap=64)
print("  subset extensible:", word is not None,
      "| languages intersect:", languages_intersect([d, d]))

# --- binarization ----------------------------------------------------------
p = perm3()
out = binarize(p, p.state_set([0]))
print("\nbinarized 3-state permutation automaton:", out.automaton.n, "states")
print("  state names:", list(out.state_names))
print("  strong connectivity preserved:", is_strongly_connected(out.automaton))

# --- sink extension --------------------------------------------------------
aut = random_automaton(3, 2, seed=4)
out = sink_binarize(aut)
print("\nsink gadget on a random binary automaton:", out.automaton.n, "states")
print("  synchronizing:", is_synchronizing(out.automaton),
      "| sink state:", sink_state(out.automaton), "=", out.name_of(sink_state(out.automaton)))

# --- large-extend gadget ---------------------------------------------------
ch = chain2()
out = large_extend_gadget(ch, ch.state_set([1]), 0)
ext = oracle_shortest(out.automaton, out.subset, "extend") is not None
tot = oracle_shortest(ch, ch.state_set([1]), "extend-total") is not None
print("\nlarge-extend gadget on the chain: subset extensible:", ext,
      "| input totally extensible:", tot)

# --- a little random cross-validation, the test suite's bread and butter ---
rng = random.Random(1)
agree = trials = 0
for _ in range(50):
    n = rng.randint(1, 3)
    a = random_automaton(n, 2, seed=rng.randrange(10**9))
    d1 = trim_reachable(DfaWithAcceptance(a, 0, StateSet(n, rng.randrange(1, 1 << n))))
    if d1.accepting.size == 0:
        continue
    trials += 1
    out = intersection_gadget([d1])
    ext = oracle_shortest(out.automaton, out.subset, "extend",
                          node_limit=10**6, state_cap=64) is not None
    agree += ext == languages_intersect([d1])
print("\nrandom single-input gadgets where oracle and product check agree:",
      agree, "of", trials)
