"""Shortest resizing words through linear algebra over a prime field.

Does any word give S a preimage of a different size?  Each candidate
preimage subset becomes a 0/1 vector with a constant affine coordinate; a
subset already in the span of earlier ones can never reveal a new size, so
the BFS inserts at most n vectors before concluding "no".  The first size
discrepancy, in BFS order, is a shortest resizing word.  The span is taken
modulo the smallest prime p above n; sizes differ by at most n < p, so the
answer is exact.
"""

from preimages import (RationalBasis, Word, cerny_automaton, perm3,
                       preimage_word, resizable_decision_fast, shortest_resizing_word,
                       is_synchronizing)

aut = cerny_automaton(4)
s = aut.state_set([1, 2])

w = shortest_resizing_word(aut, s)
print("shortest resizing word for", s, "is", w.text(aut.k),
      "->", preimage_word(aut, s, w), f"(size {preimage_word(aut, s, w).size})")
print("no single letter works:",
      [preimage_word(aut, s, Word([a])).size for a in range(2)], "sizes stay 2")

# The basis machinery, by hand: insert the subset pattern of S (the affine
# coordinate is implicit), then of its letter preimages, watching
# independence decisions.
basis = RationalBasis(4)
print("\nfield: F_p with p =", basis.p, "(the smallest prime above n = 4)")
print("insert chi(S):          pivot", basis.insert(s.bits))
pre_a = preimage_word(aut, s, Word([0]))
print("insert chi(S.a^-1):     pivot", basis.insert(pre_a.bits))
print("insert chi(S) again:   ", basis.insert(s.bits), "(dependent, pruned)")
print("stored echelon rows mod p (1 at the pivot, 0 at earlier pivots; last entry affine):")
slot = (1 << basis.width) - 1
for piv, (negrow, _) in basis.rows_at.items():
    row = [-(negrow >> (i * basis.width) & slot) % basis.p for i in range(basis.n + 1)]
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
