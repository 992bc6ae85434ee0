"""Avoiding words: driving the image of Q clear of a subset.

Avoiding S is the mirror of totally extending its complement.  Single
states have a crisp characterization (membership in a compressible pair,
inside the right sink component); general subsets go through the rank
partition and a fixed-size subset search.
"""

from preimages import (StateSet, apply_word, avoidable_state, avoiding_word,
                       cerny_automaton, chain2, perm3, rank_partition)

aut = cerny_automaton(4)

for q in range(4):
    print(f"state {q} avoidable: {avoidable_state(aut, q)}")
w = avoiding_word(aut, aut.state_set([0]))
print("witness avoiding state 0:", w.text(aut.k), "-> Q.w =",
      apply_word(aut, StateSet.full(4), w))

# A sink state can never be avoided: everything that falls in stays in.
ch = chain2()
print("\nchain automaton: state 1 avoidable:", avoidable_state(ch, 1),
      "  state 0 avoidable:", avoidable_state(ch, 0))

# Permutation automata avoid nothing: the image of Q is always Q.
p = perm3()
print("permutation automaton, avoid {0}:", avoiding_word(p, p.state_set([0])))

# The general algorithm works class by class.  States are grouped by where
# a minimal-rank word u sends them; S is avoidable iff some |S/~|-subset of
# the minimal image can be steered to hit every S-touching class outside S.
s = aut.state_set([0, 1])
part = rank_partition(aut, s)
print("\nS =", s, " classes:", [str(c) for c in part.classes], " z =", part.z)
w = avoiding_word(aut, s)
print("avoiding word:", w.text(aut.k), "-> Q.w =", apply_word(aut, StateSet.full(4), w))
