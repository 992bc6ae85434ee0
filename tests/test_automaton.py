"""Core types and set/word actions, pinned to the worked examples."""

import random
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, strategies as st

from preimages import (Automaton, BudgetExceededError, StateSet, Word, apply_word,
                       cerny_automaton, is_permutation_automaton, is_strongly_connected,
                       minimal_rank_word, preimage_word, random_automaton, scc, sink_state)
from preimages.automaton import move_states, race, subset_bfs, subset_search, word_map


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


def test_construction_names_the_first_bad_row_or_entry():
    # Rows are checked in reading order, each row's length before its entries.
    for rows, message in (
            ([[0, 1], [0]], "row 1 has 1 entries, expected 2"),
            ([[0, 1], [1, 0, 1], [0]], "row 1 has 3 entries, expected 2"),
            ([[0, 1], [1, 2]], r"transition \(1,1\) -> 2 out of range \[0, 2\)"),
            ([[0, -1], [5, 0]], r"transition \(0,1\) -> -1 out of range \[0, 2\)"),
            ([[0, 3], [0]], r"transition \(0,1\) -> 3 out of range \[0, 2\)"),
            ([[0, 1], [0, 1], [2]], "row 2 has 1 entries, expected 2"),
            ([[0], [0, 1], [9]], "row 1 has 2 entries, expected 1"),
            ([[1]], r"transition \(0,0\) -> 1 out of range \[0, 1\)")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Automaton(rows)
    aut = Automaton(((1, 0), [0, 1]))
    assert aut.rows == ((1, 0), (0, 1)) and aut.by_letter == ((1, 0), (0, 1))


def test_stateset_basics():
    s = StateSet.from_states(4, [2, 0])
    assert len(s) == 2 and list(s) == [0, 2]
    assert 0 in s and 1 not in s
    assert s.issubset(StateSet.from_states(4, [0, 1, 2]))
    assert not s.issubset(StateSet.from_states(4, [0, 1]))
    assert s.complement() == StateSet.from_states(4, [1, 3])
    with pytest.raises(ValueError):
        s.issubset(StateSet.from_states(5, [0, 2]))
    with pytest.raises(ValueError):
        StateSet.from_states(3, [3])


def test_word_rendering_and_parsing():
    w = Word.from_text("ba")
    assert tuple(w) == (1, 0)
    assert w.text(2) == "ba"
    assert Word([27, 3]).text(30) == "27 3"
    # Letter names only for letters 0-25: any other letter renders the word in
    # decimal, and repr never raises.
    assert Word([30]).text(5) == "30" and Word([300, 1]).text(5) == "300 1"
    assert Word([1, 26]).text(26) == "1 26" and Word([-1, 0]).text(2) == "-1 0"
    assert Word([25, 0]).text(26) == "za"
    assert repr(Word([-1])) == "Word('-1')" and repr(Word([2, 300])) == "Word('2 300')"
    assert Word.from_text("") == Word()
    assert (Word.from_text("a") + Word.from_text("b")).text(2) == "ab"
    assert Word.from_text("0 2").letters == (0, 2)
    # Indices read ASCII decimal only: "+1", "1_0" and non-ASCII digits are refused.
    for bad in ("A", "aB", "a-b", "é", "-1 2", "3 -1", "-1", "+1", "1_0", "\u0661",
                "\u0663 0"):
        with pytest.raises(ValueError):
            Word.from_text(bad)


def test_word_is_an_immutable_tuple():
    w, v = Word.from_text("bab"), Word([0, 2])
    assert isinstance(w, tuple) and w == Word([1, 0, 1]) == (1, 0, 1) and w != (1, 0)
    assert hash(w) == hash(Word([1, 0, 1])) == hash((1, 0, 1))
    assert w[1:] == (0, 1) and w[-1] == 1
    assert type(w + v) is Word and w + v == (1, 0, 1, 0, 2) and w + [3] == (1, 0, 1, 3)
    assert w.letters is w
    assert repr(w) == "Word('bab')" and repr(Word()) == "Word('')"
    with pytest.raises(AttributeError):
        setattr(w, "letters", (1, 1))
    with pytest.raises(AttributeError):
        w.extra = 0


def test_stateset_truth_and_peer_check():
    assert not StateSet.empty(3) and StateSet.from_states(3, [2])
    with pytest.raises(ValueError, match=r"^state sets bound to different automata sizes "
                                         r"\(3 vs 4\)$"):
        StateSet.full(3).issubset(StateSet.full(4))


def test_equal_automata_are_one_set_entry():
    rows = [[1, 0], [1, 1]]
    assert len({Automaton(rows), Automaton([tuple(r) for r in rows]), Automaton(rows)}) == 1
    assert len({Automaton(rows), Automaton([[0, 0], [1, 1]])}) == 2


def test_word_text_and_letter_check_at_the_26_letter_boundary():
    every = Word(range(26))
    assert every.text(26) == "abcdefghijklmnopqrstuvwxyz" == every.text()
    assert every.text(27) == " ".join(map(str, range(26)))
    assert Word(range(27)).text() == " ".join(map(str, range(27)))
    assert Word([25, 0] * 5000).text(26) == "za" * 5000
    assert Word().text(26) == Word().text(27) == ""
    aut = Automaton([[0] * 26])
    aut.check_word(every)
    aut.check_word(Word())
    for letters, bad in (([0, 26, -1], 26), ([-1, 30], -1), ([25] * 100 + [27], 27)):
        with pytest.raises(ValueError, match=rf"^letter {bad} out of range \[0, 26\)$"):
            aut.check_word(Word(letters))


def _padded(aut, n):
    """``aut`` with states added up to ``n``, each fixed by every letter."""
    return Automaton(list(aut.rows) + [[q] * aut.k for q in range(aut.n, n)])


@pytest.mark.parametrize("n", [0, 21], ids=["flat", "dict"])  # either side of the oracle cap
def test_subset_bfs_kernel(c4, p3, n):
    c4, p3 = _padded(c4, n), _padded(p3, n)
    one = lambda bits: bits.bit_count() == 1
    # From Q, the nearest singleton of the 4-state Cerny automaton is 9 letters away.
    stats = {}
    res = subset_bfs(c4, [0b1111], "image", one, 100, stats)
    word = res.word_to(res.hit)
    assert len(word) == 9 and apply_word(c4, c4.state_set(range(4)), word).size == 1
    assert stats["nodes"] > 9
    stats = {}
    with pytest.raises(BudgetExceededError) as exc:
        subset_bfs(c4, [0b1111], "image", one, 5, stats)
    assert exc.value.nodes == 6 and stats == {}
    # Sources are goal-tested in order, and a source is reached by the empty word.
    stats = {}
    res = subset_bfs(c4, [0b0110, 0b0001, 0b1000], "image",
                     lambda bits: bits == 0b0001, 10, stats)
    assert res.hit == 0b0001 and res.word_to(res.hit) == Word()
    assert stats == {"nodes": 2}
    # Both letters step {3} to {0}: the smaller one, a, is the letter recovered.
    assert c4.image_bits(0b1000, 0) == c4.image_bits(0b1000, 1) == 0b0001
    res = subset_bfs(c4, [0b0100], "image", lambda bits: bits == 0b0001, 10)
    assert res.word_to(res.hit) == Word.from_text("aa")
    # Only b steps {0,3} to {0}, so {1,2} reaches {0} by aab.
    res = subset_bfs(c4, [0b0110], "image", lambda bits: bits == 0b0001, 10)
    assert res.word_to(res.hit) == Word.from_text("aab")
    # Backward, the first preimage of {1,2} larger than it is {1,2}.(ba)^-1.
    res = subset_bfs(c4, [0b0110], "preimage", lambda bits: bits.bit_count() > 2, 10)
    assert res.word_to(res.hit) == Word.from_text("ba")
    # Exhaustion: a permutation automaton never shrinks {0}.
    stats = {}
    res = subset_bfs(p3, [0b001], "image", lambda bits: bits == 0, 10, stats)
    assert res.hit is None and stats == {"nodes": 3}
    assert len(subset_bfs(p3, [0b001], "image", None, 10).reached) == 3


def test_subset_bfs_admit_filters_the_children_that_miss_the_goal(c4):
    # From Q, a keeps Q and b gives {0,1,2}: a rejected child is dropped.
    stats = {}
    res = subset_bfs(c4, [0b1111], "image", None, 10, stats, admit=lambda bits: bits != 0b0111)
    assert list(res.reached) == [0b1111] and stats == {"nodes": 1}
    with pytest.raises(KeyError):
        res.word_to(0b0111)
    # From {1,2,3}, a gives {0,2,3} and b the goal {0,1,2}, returned unasked.
    asked = []
    res = subset_bfs(c4, [0b1110], "image", lambda bits: bits == 0b0111, 10,
                     admit=lambda bits: asked.append(bits))
    assert res.hit == 0b0111 and res.word_to(res.hit) == Word.from_text("b")
    assert list(res.reached) == [0b1110, 0b0111] and asked == [0b1101]
    # A search with admit keeps the dict store below the oracle cap, at any depth.
    n = 20
    cycle = Automaton([[(q + 1) % n, 0 if q == 1 else q] for q in range(n)])
    resized = lambda bits: bits.bit_count() != 1
    stats = {}
    res = subset_bfs(cycle, [1 << n - 1], "preimage", resized, 100, stats, admit=lambda bits: True)
    plain = subset_bfs(cycle, [1 << n - 1], "preimage", resized, 100)
    assert type(res._pred) is dict and isinstance(plain._pred, array)
    assert res.word_to(res.hit) == plain.word_to(plain.hit) == Word([1] + [0] * (n - 2))
    assert stats == {"nodes": n + 1} and list(res.reached) == list(plain.reached)


def test_subset_bfs_allocates_the_flat_store_only_for_a_step():
    # At n = 20 the flat store takes 4 MiB.  A source that meets the goal needs
    # none, nor does a first level that meets it; a second level does.
    aut = random_automaton(20, 2, seed=5)
    tracemalloc.start()
    try:
        res = subset_bfs(aut, [0b100, 0b11], "preimage", lambda bits: bits == 0b11, 10)
        source_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        one = subset_bfs(aut, [0b11], "preimage", lambda bits: bits.bit_count() > 2, 10)
        level_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        grown = subset_bfs(aut, [0b11], "preimage", lambda bits: bits.bit_count() > 3, 20)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.hit == 0b11 and res.word_to(res.hit) == res.word_to(0b100) == Word()
    assert source_peak < 1 << 16 and level_peak < 1 << 16 and 1 << 22 <= step_peak
    assert len(one.word_to(one.hit)) == 1 and len(grown.word_to(grown.hit)) == 3
    for found in (one, grown):
        word = found.word_to(found.hit)
        assert preimage_word(aut, aut.state_set([0, 1]), word).bits == found.hit


def _words(res):
    return {bits: res.word_to(bits) for bits in res.reached}


@pytest.mark.parametrize("n", [12, 20, 21, 28], ids=["flat12", "flat20", "dict21", "dict28"])
@pytest.mark.parametrize("max_depth", [0, 1, 2, 5])
def test_subset_bfs_depth_cut_is_the_uncut_search_up_to_that_depth(n, max_depth):
    # Up to 20 states the flat store takes over after level 1, so cuts at 0
    # and 1 must end before it starts; above 20 the dict store runs every level.
    searches = [(random_automaton(n, 2, seed=n), "image", sources)
                for sources in ([0b11], [0b110, 1 << n - 1 | 1, 0b1011])]
    searches.append((_padded(cerny_automaton(6), n), "preimage", [0b000110]))
    for aut, direction, sources in searches:
        sizes = {bits.bit_count() for bits in sources}
        for goal in (None, lambda bits: bits.bit_count() not in sizes,
                     lambda bits: bits == sources[0] << 1):
            full = subset_bfs(aut, sources, direction, goal, 10**6)
            stats = {"nodes": 7}
            cut = subset_bfs(aut, sources, direction, goal, 10**6, stats, max_depth)
            kept = {bits: w for bits, w in _words(full).items() if len(w) <= max_depth}
            assert list(cut.reached) == list(kept) and _words(cut) == kept
            found = full.hit is not None and len(full.word_to(full.hit)) <= max_depth
            assert cut.hit == (full.hit if found else None)
            assert stats["nodes"] == 7 + len(kept)  # added to what the query counted before


def test_subset_bfs_shallow_cut_allocates_no_flat_store():
    aut = random_automaton(20, 2, seed=5)
    tracemalloc.start()
    try:
        for max_depth in (0, 1):
            cut = subset_bfs(aut, [0b11], "preimage", lambda bits: bits.bit_count() > 3,
                             10**6, max_depth=max_depth)
            assert cut.hit is None and max(map(len, _words(cut).values())) == max_depth
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _run_paused(search, allowances):
    """Drive a ``subset_search`` to its end, sending the allowances in turn
    (the last one again and again); its result and the counts it paused at."""
    assert next(search) == 0
    paused = []
    try:
        for allowance in allowances:
            paused.append(search.send(allowance))
            assert paused[-1] == allowance + 1  # it stored one subset past the allowance
        while True:
            paused.append(search.send(allowance))
    except StopIteration as done:
        return done.value, paused


def _pausing_cases():
    """(name, search arguments): a flat-store search of at least two levels,
    the same on the dict store above 20 states, and a search with admit."""
    flat = random_automaton(10, 2, seed=5)
    yield "flat", (flat, [0b11, 0b1100], "preimage", None)
    yield "flat-goal", (random_automaton(14, 2, seed=3), [0b111], "image",
                        lambda bits: bits.bit_count() == 1)
    yield "dict", (_padded(cerny_automaton(6), 24), [0b111111], "image",
                   lambda bits: bits.bit_count() == 1)
    n = 12
    cycle = Automaton([[(q + 1) % n, 0 if q == 1 else q] for q in range(n)])
    yield "admit", (cycle, [1 << n - 1], "preimage", lambda bits: bits.bit_count() != 1,
                    -1, lambda bits: bits & 1 == 0)


@pytest.mark.parametrize("case", [name for name, _ in _pausing_cases()])
def test_a_search_paused_at_any_allowance_ends_as_one_run(case):
    # Pausing a search once after any number of subsets from 1 to its full
    # size, or after every subset, leaves the order, the hit and its word
    # those of one uninterrupted run.
    args = dict(_pausing_cases())[case]
    whole = subset_bfs(*args[:4], 10**6, None, *args[4:])
    size = len(whole.reached)
    assert size > 2 and (case != "admit" or type(whole._pred) is dict)
    if case.startswith("flat"):
        assert isinstance(whole._pred, array)  # it reached the second level
    runs = [_run_paused(subset_search(*args), [allowance, size])
            for allowance in range(1, size)]
    runs.append(_run_paused(subset_search(*args), range(1, size)))
    for res, paused in runs:
        assert list(res.reached) == list(whole.reached) and res.hit == whole.hit
        if whole.hit is not None:
            assert res.word_to(res.hit) == whole.word_to(whole.hit)
        assert _words(res) == _words(whole)
    assert runs[-1][1] == list(range(2, size + 1))  # paused at every subset after the first


def test_race_charges_every_search_to_one_budget():
    # Two searches that each finish alone: an image search of a 3-state
    # permutation automaton that stops at the third subset it reaches, and a
    # deep one on Cerny(6), whose reset word has 25 letters.  The short one
    # finishes first; behind a 25-letter prefix its word exceeds max_len = 25,
    # so there the race drops it and returns the deep one.  The budget binds
    # their sum.
    perm = random_automaton(3, 2, seed=1, constraint="permutation")
    third = subset_bfs(perm, [0b1], "image", None, 10).reached[2]
    short = subset_bfs(perm, [0b1], "image", lambda bits: bits == third, 10)
    alone = subset_bfs(cerny_automaton(6), [0b111111], "image",
                       lambda bits: bits.bit_count() == 1, 10**6)
    assert len(short.reached) == 3 and len(alone.word) == 25
    entries = lambda: [(Word(), subset_search(cerny_automaton(6), [0b111111], "image",
                                              lambda bits: bits.bit_count() == 1)),
                       (Word([0] * 25), subset_search(perm, [0b1], "image",
                                                      lambda bits: bits == third))]
    stats = {"nodes": 5}
    res, word = race(entries(), 10**6, stats)
    assert list(res.reached) == list(short.reached) and word == Word([0] * 25) + short.word
    assert 5 + 3 < stats["nodes"] <= 5 + 3 + 2 * 3  # the deep search held at most 2 * 3
    stats = {"nodes": 5}
    res, word = race(entries(), 10**6, stats, max_len=25)
    assert list(res.reached) == list(alone.reached) and word == alone.word
    assert stats["nodes"] == 5 + 3 + len(alone.reached)
    total = 3 + len(alone.reached)
    assert race(entries(), total, max_len=25)[1] == alone.word
    with pytest.raises(BudgetExceededError) as exc:
        race(entries(), total - 1, max_len=25)
    assert exc.value.nodes == total


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


@given(automaton_set_word(), st.lists(st.integers(0, 2), max_size=4))
@example((Automaton([[0, 0]]), StateSet(1, 1), Word([1, 0, 1])), [0])  # n = 1
@example((Automaton([[0, 0]]), StateSet(1, 0), Word()), [])
@example((Automaton([[1], [0], [0]]), StateSet(3, 0b101), Word()), [0])  # the empty word
def test_word_actions_match_the_letter_by_letter_fold(data, extra):
    aut, s, w = data
    image = s.bits
    for a in w:
        image = aut.image_bits(image, a)
    pre = s.bits
    for a in reversed(w.letters):
        pre = aut.preimage_bits(pre, a)
    assert apply_word(aut, s, w).bits == image
    assert preimage_word(aut, s, w).bits == pre

    def fold(q, word):
        for a in word:
            q = aut.rows[q][a]
        return q

    # The map of the last word is kept; asking for another word must not reuse it.
    v = w + Word([a % aut.k for a in extra])
    for word in (w, v, w, Word(list(w.letters))):
        assert word_map(aut, word) == tuple(fold(q, word) for q in range(aut.n))


def _fold(aut, word):
    """The map of ``word``, state by state and letter by letter."""
    f = []
    for q in range(aut.n):
        for a in word:
            q = aut.rows[q][a]
        f.append(q)
    return tuple(f)


def test_word_map_matches_the_fold_around_the_block_length():
    # word_map reads 32 letters per block: lengths 0, 1, 31, 32, 33 and 65,
    # on collapsing and permutation automata, with n = 1 and k = 1 among them.
    rng = random.Random(18)
    auts = [Automaton([[0]]), Automaton([[0, 0, 0]]), Automaton([[1], [2], [0]]),
            Automaton([[0]] * 7), Automaton([[(q + 1) % 9, 0] for q in range(9)]),
            cerny_automaton(6)]
    for _ in range(40):
        n, k, seed = rng.randint(1, 40), rng.randint(1, 3), rng.randrange(10**9)
        auts += [random_automaton(n, k, seed=seed),
                 random_automaton(n, k, seed=seed, constraint="permutation")]
    for aut in auts:
        for length in (0, 1, 31, 32, 33, 65):
            word = Word(rng.randrange(aut.k) for _ in range(length))
            assert word_map(aut, word) == _fold(aut, word)


def test_word_map_of_long_rank_words_matches_the_fold():
    # Rank words of Černý unions: the image shrinks along the word, and the
    # map is read from the letters alone, whatever the rank search left.
    for m in (12, 55):
        a, b = cerny_automaton(m), cerny_automaton(m + 1)
        rows = [list(row) for row in a.rows] + [[q + m for q in row] for row in b.rows]
        aut = Automaton(rows)
        word = minimal_rank_word(aut).word
        assert len(word) >= (10**4 if m == 55 else 200)
        f = _fold(Automaton(rows), word)
        assert word_map(aut, word) == word_map(Automaton(rows), word) == f
        assert len(set(f)) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
def test_word_actions_match_the_fold_on_both_sides_of_the_byte_tables(n, k):
    # Up to 256 states a word moves states by bytes.translate, above that by
    # gathers; both must agree with the letter-by-letter fold, on collapsing
    # and permutation automata, around word_map's 32-letter block length.
    rng = random.Random(n * 10 + k)
    for constraint in ("none", "permutation"):
        aut = random_automaton(n, k, seed=rng.randrange(10**9), constraint=constraint)
        for length in (0, 1, 31, 32, 33, 1000):
            word = Word(rng.randrange(k) for _ in range(length))
            f = _fold(aut, word)
            assert word_map(aut, word) == f
            s = StateSet(n, rng.getrandbits(n))
            assert apply_word(aut, s, word).bits == sum({1 << f[q] for q in s})
            assert preimage_word(aut, s, word).bits == sum(1 << q for q in range(n) if f[q] in s)
            states = [rng.randrange(n) for _ in range(rng.randint(2, n + 1))]
            assert list(move_states(aut, states, word.letters)) == [f[q] for q in states]


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
        assert list(comp) == sorted(comp)
        assert all(d.component_of[q] == cid for q in comp)
    assert [comp[0] for comp in d.components] == sorted(comp[0] for comp in d.components)
    assert sorted(q for comp in d.components for q in comp) == list(range(aut.n))


def test_component_numbering_is_by_smallest_member():
    aut = Automaton([[0], [1], [2]])  # three fixed points
    assert scc(aut).components == ((0,), (1,), (2,))

    # A 20,000-state chain: deeper than any recursion limit, every state alone.
    n = 20_000
    d = scc(Automaton([[min(q + 1, n - 1)] for q in range(n)]))
    assert d.components == tuple((q,) for q in range(n))
    assert d.component_of == tuple(range(n))
    assert d.sink_flags == (False,) * (n - 1) + (True,)


def test_classification_helpers(c4, p3, ch2):
    assert sink_state(ch2) == 1
    assert sink_state(c4) is None
    assert is_permutation_automaton(p3)
    assert not is_permutation_automaton(c4)
    two_sinks = Automaton([[0, 0], [1, 1]])
    assert sink_state(two_sinks) == 0  # smallest of several
    assert sink_state(Automaton([[1, 0], [1, 1], [2, 2]])) == 1  # 0 is fixed by b only


def _dropped_race():
    # The one search hits {0} after one letter, behind a 2-letter prefix: a
    # 3-letter word, longer than max_len = 2, so no entry is left to answer.
    search = subset_search(cerny_automaton(4), [0b1000], "image", lambda bits: bits == 0b0001)
    return race([(Word([0, 0]), search)], 10, max_len=2)


@pytest.mark.parametrize("build, message", [
    (lambda: StateSet(-1, 0), "state count must be non-negative"),
    (lambda: StateSet(2, 0b100), "bit pattern 0x4 out of range for n=2"),
    (lambda: StateSet(2, -1), "bit pattern -0x1 out of range for n=2"),
    (lambda: Automaton([[]]), "automaton needs at least one letter"),
    (lambda: cerny_automaton(1), "need at least two states"),
    (_dropped_race, "every search found a word longer than max_len=2"),
], ids=["negative-n", "bits-past-n", "negative-bits", "no-letter", "cerny-1", "all-dropped"])
def test_constructors_and_race_reject_their_bad_input(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
