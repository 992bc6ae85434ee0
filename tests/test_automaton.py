"""Core types and set/word actions, pinned to the worked examples."""

import pytest
from hypothesis import given, strategies as st

from preimages import (Automaton, BudgetExceededError, StateSet, Word, apply_word,
                       is_permutation_automaton, is_strongly_connected, preimage_word, scc,
                       sink_state)
from preimages.automaton import subset_bfs


@st.composite
def automata(draw, max_n=6, max_k=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    return Automaton([[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)])


@st.composite
def automaton_set_word(draw):
    aut = draw(automata())
    bits = draw(st.integers(0, (1 << aut.n) - 1))
    w = Word(draw(st.lists(st.integers(0, aut.k - 1), max_size=8)))
    return aut, StateSet(aut.n, bits), w


def test_construction_validates():
    with pytest.raises(ValueError):
        Automaton([])
    with pytest.raises(ValueError):
        Automaton([[0, 1], [0]])
    with pytest.raises(ValueError):
        Automaton([[2]])


def test_stateset_basics():
    s = StateSet.from_states(4, [2, 0])
    assert len(s) == 2 and list(s) == [0, 2]
    assert 0 in s and 1 not in s
    assert (s | StateSet.from_states(4, [1])).bits == 0b0111
    assert s.complement() == StateSet.from_states(4, [1, 3])
    with pytest.raises(ValueError):
        s | StateSet.from_states(5, [1])
    with pytest.raises(ValueError):
        StateSet.from_states(3, [3])


def test_word_rendering_and_parsing():
    w = Word.from_text("ba")
    assert tuple(w) == (1, 0)
    assert w.text(2) == "ba"
    assert Word([27, 3]).text(30) == "27 3"
    assert Word.from_text("") == Word()
    assert (Word.from_text("a") + Word.from_text("b")).text(2) == "ab"
    assert Word.from_text("0 2").letters == (0, 2)
    for bad in ("A", "aB", "a-b", "é", "-1 2", "3 -1", "-1"):
        with pytest.raises(ValueError):
            Word.from_text(bad)


def test_subset_bfs_kernel(c4, p3):
    # From Q, the nearest singleton of the 4-state Cerny automaton is 9 letters away.
    stats = {}
    word = subset_bfs([(0b1111, -1)], c4.image_bits, 2, lambda b: b.bit_count() == 1, 100, stats)
    assert len(word) == 9 and apply_word(c4, StateSet.full(4), word).size == 1
    assert stats["nodes"] > 9
    with pytest.raises(BudgetExceededError) as exc:
        subset_bfs([(0b1111, -1)], c4.image_bits, 2, lambda b: b.bit_count() == 1, 5)
    assert exc.value.nodes == 6
    # Sources are goal-tested in order, and a source's letter starts its word.
    stats = {}
    assert subset_bfs([(0b0110, 1), (0b0001, 0), (0b1000, 1)], c4.image_bits, 2,
                      lambda b: b == 0b0001, 10, stats) == Word([0])
    assert stats == {"nodes": 2}
    # {1,2} reaches {0} by aab, after the source's letter b.
    assert subset_bfs([(0b0110, 1)], c4.image_bits, 2, lambda b: b == 0b0001,
                      10) == Word.from_text("baab")
    # Exhaustion: a permutation automaton never shrinks {0}.
    stats = {}
    assert subset_bfs([(0b001, -1)], p3.image_bits, 2, lambda b: b == 0, 10, stats) is None
    assert stats == {"nodes": 3}


def test_image_worked_example(c4):
    s = c4.state_set([1, 2])
    assert apply_word(c4, s, Word.from_text("aab")) == c4.state_set([0])


def test_image_trivial_cases(c4, ch2):
    s = c4.state_set([1, 2])
    assert apply_word(c4, s, Word()) == s
    assert apply_word(ch2, StateSet.full(2), Word.from_text("a")) == ch2.state_set([1])


def test_preimage_worked_examples(c4):
    s = c4.state_set([1, 2])
    assert preimage_word(c4, s, Word.from_text("ba")) == c4.state_set([0, 1, 3])
    assert preimage_word(c4, s, Word.from_text("a")) == c4.state_set([0, 1])
    assert preimage_word(c4, c4.state_set([0, 1]), Word.from_text("b")) == c4.state_set([0, 1, 3])


def test_preimage_shrinking_example(c4):
    # The two-state subset {q2,q4} shrinks to {q2} under b.
    assert preimage_word(c4, c4.state_set([1, 3]), Word.from_text("b")) == c4.state_set([1])


def test_preimage_permutation_preserves_size(p3):
    s = p3.state_set([0, 1])
    assert preimage_word(p3, s, Word.from_text("ab")).size == 2


def test_dimension_mismatch_rejected(c4, p3):
    with pytest.raises(ValueError):
        apply_word(c4, StateSet.full(3), Word())
    with pytest.raises(ValueError):
        preimage_word(p3, StateSet.full(4), Word())


@given(automaton_set_word())
def test_empty_and_full_conventions(data):
    aut, _, w = data
    assert apply_word(aut, StateSet.empty(aut.n), w).size == 0
    assert preimage_word(aut, StateSet.empty(aut.n), w).size == 0
    assert preimage_word(aut, StateSet.full(aut.n), w) == StateSet.full(aut.n)


@given(automaton_set_word())
def test_image_never_grows(data):
    aut, s, w = data
    assert apply_word(aut, s, w).size <= s.size


@given(automaton_set_word())
def test_singleton_preimages_partition_q(data):
    aut, _, _ = data
    for a in range(aut.k):
        total = sum(preimage_word(aut, aut.state_set([q]), Word([a])).size for q in range(aut.n))
        assert total == aut.n


@given(automaton_set_word(), st.integers(0, 255))
def test_galois_connection(data, t_seed):
    aut, s, w = data
    t = StateSet(aut.n, t_seed % (1 << aut.n))
    lhs = t.issubset(preimage_word(aut, s, w))
    rhs = apply_word(aut, t, w).issubset(s)
    assert lhs == rhs


@given(automaton_set_word(), st.lists(st.integers(0, 2), max_size=6))
def test_action_composition(data, extra):
    aut, s, u = data
    v = Word([a % aut.k for a in extra])
    uv = u + v
    assert apply_word(aut, s, uv) == apply_word(aut, apply_word(aut, s, u), v)
    assert preimage_word(aut, s, uv) == preimage_word(aut, preimage_word(aut, s, v), u)


@given(automata())
def test_permutation_preimages_preserve_cardinality(aut):
    if not is_permutation_automaton(aut):
        return
    for bits in range(min(1 << aut.n, 64)):
        s = StateSet(aut.n, bits)
        for a in range(aut.k):
            assert preimage_word(aut, s, Word([a])).size == s.size


def test_scc_reference_automata(c4, p3, ch2):
    d = scc(c4)
    assert len(d.components) == 1 and d.sink_flags == (True,)
    assert is_strongly_connected(c4)

    d = scc(ch2)
    assert d.components == ((0,), (1,))
    assert d.sink_flags == (False, True)

    assert is_strongly_connected(p3)
    assert scc(p3).sink_flags == (True,)


@given(automata())
def test_scc_mutual_reachability_and_sinks(aut):
    """Every pair inside a component is mutually reachable; sink components
    have no outgoing edge (checked exhaustively at desk scale)."""
    d = scc(aut)
    reach = []
    for q in range(aut.n):
        seen = {q}
        stack = [q]
        while stack:
            x = stack.pop()
            for a in range(aut.k):
                y = aut.rows[x][a]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach.append(seen)
    for p in range(aut.n):
        for q in range(aut.n):
            same = d.component_of[p] == d.component_of[q]
            mutual = q in reach[p] and p in reach[q]
            assert same == mutual
    for cid, comp in enumerate(d.components):
        outgoing = any(d.component_of[aut.rows[q][a]] != cid for q in comp for a in range(aut.k))
        assert d.sink_flags[cid] == (not outgoing)


def test_component_numbering_is_by_smallest_member():
    aut = Automaton([[0], [1], [2]])  # three fixed points
    assert scc(aut).components == ((0,), (1,), (2,))


def test_classification_helpers(c4, p3, ch2):
    assert sink_state(ch2) == 1
    assert sink_state(c4) is None
    assert is_permutation_automaton(p3)
    assert not is_permutation_automaton(c4)
    two_sinks = Automaton([[0, 0], [1, 1]])
    assert sink_state(two_sinks) == 0  # smallest of several
