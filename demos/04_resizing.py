"""Shortest resizing words through exact integer linear algebra.

Does any word give S a preimage of a different size?  Each candidate
preimage subset becomes a 0/1 vector with a constant affine coordinate; a
subset already in the rational span of earlier ones can never reveal a new
size, so the BFS inserts at most n vectors before concluding "no".  The
first size discrepancy, in BFS order, is a shortest resizing word.
"""

from preimages import (AugVector, RationalBasis, Word, cerny_automaton, perm3,
                       preimage_word, resizable_decision_fast, shortest_resizing_word,
                       is_synchronizing)

aut = cerny_automaton(4)
s = aut.state_set([1, 2])

w = shortest_resizing_word(aut, s)
print("shortest resizing word for", s, "is", w.text(aut.k),
      "->", preimage_word(aut, s, w), f"(size {preimage_word(aut, s, w).size})")
print("no single letter works:",
      [preimage_word(aut, s, Word([a])).size for a in range(2)], "sizes stay 2")

# The basis machinery, by hand: insert the characteristic vector of S, then
# of its letter preimages, watching independence decisions.
basis = RationalBasis(5)
vec = AugVector.from_subset_bits(4, s.bits)
print("\ninsert chi(S):          pivot", basis.insert(vec))
pre_a = preimage_word(aut, s, Word([0]))
print("insert chi(S.a^-1):     pivot", basis.insert(AugVector.from_subset_bits(4, pre_a.bits)))
print("insert chi(S) again:   ", basis.insert(vec), "(dependent, pruned)")
print("stored echelon rows (primitive integers, zero at earlier pivots):")
for row, piv in zip(basis.vectors, basis.pivots):
    print("  ", row, "pivot", piv)

# Permutation automata never resize anything; the basis closes and the
# search proves it.
p = perm3()
stats = {}
print("\npermutation automaton, S={0}:", shortest_resizing_word(p, p.state_set([0]), stats=stats),
      f"(basis closed at size {stats['basis_size']})")

# Synchronizing automata admit a constant-time decision: a reset word pulls
# S to Q or to nothing, so anything strictly between is resizable.
print("synchronizing shortcut:", is_synchronizing(aut),
      "->", resizable_decision_fast(aut, s))
