"""Finding extending and totally extending words.

Three routes, from cheapest to most general:
  1. a subset-space BFS that returns a provably shortest extending word,
  2. the minimal-rank route for totally extending words,
  3. the sink-component shortcut when the automaton synchronizes.
"""

from preimages import (StateSet, apply_word, cerny_automaton, greedy_reset_word,
                       is_synchronizing, minimal_rank_word, perm3, preimage_word,
                       shortest_extending_word_small, totally_extending_word_small,
                       totally_extensible_synchronizing)

aut = cerny_automaton(4)
s = aut.state_set([1, 2])

w = shortest_extending_word_small(aut, s)
print("shortest extending word for", s, "is", w.text(aut.k),
      "->", preimage_word(aut, s, w))

# Permutation automata never extend anything: every letter is a bijection,
# so preimages keep their size forever.
p = perm3()
print("permutation automaton, S={0}:", shortest_extending_word_small(p, p.state_set([0])))

# Totally extending = pull the preimage up to the whole state set.  The
# search first compresses Q to an incompressible image via a minimal-rank
# word u, then steers that image into S.
rank = minimal_rank_word(aut)
print("\nminimal rank:", rank.rank, "via u =", rank.word.text(aut.k), "image", rank.image)
w = totally_extending_word_small(aut, aut.state_set([0]))
print("totally extending word for {0}:", w.text(aut.k))
print("  check: Q.w =", apply_word(aut, StateSet.full(4), w),
      " so S.w^-1 =", preimage_word(aut, aut.state_set([0]), w))

# When the automaton synchronizes, total extensibility only depends on
# whether S meets the unique sink component; the witness is a reset word
# plus a short steering path.
print("\nsynchronizing:", is_synchronizing(aut),
      " greedy reset word:", greedy_reset_word(aut).text(aut.k))
decision = totally_extensible_synchronizing(aut, aut.state_set([2]))
witness = totally_extending_word_small(aut, aut.state_set([2]))
print("fast path for {2}:", decision, "witness", witness.text(aut.k))
