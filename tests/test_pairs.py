"""Pair table, synchronization, minimal rank, and state avoidability."""

import importlib
import json
import pkgutil
import random
import tracemalloc
from collections import deque

import pytest

import preimages
from preimages import (Automaton, StateSet, Word, apply_word, avoidable_state, avoiding_word,
                       cerny_automaton, forward_subset_bfs, greedy_reset_word,
                       is_permutation_automaton, is_synchronizing, minimal_rank_word,
                       pair_table, random_automaton)
from preimages import cli, pairs, report
from preimages.automaton import word_map


def test_pair_table_reference(c4, p3, ch2):
    t = pair_table(c4)
    assert t.length(0, 3) == 1 and t.word(0, 3) == Word.from_text("b")
    t = pair_table(p3)
    assert all(t.length(p, q) is None for p in range(3) for q in range(p + 1, 3))
    t = pair_table(ch2)
    assert t.length(0, 1) == 1 and t.word(0, 1) == Word.from_text("a")


def test_pair_words_compress_their_pair():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        t = pair_table(aut)
        for p in range(n):
            for q in range(p + 1, n):
                w = t.word(p, q)
                if w is None:
                    continue
                assert len(w) == t.length(p, q)
                assert apply_word(aut, aut.state_set([p, q]), w).size == 1


def test_pair_lengths_are_shortest():
    """BFS distances equal a brute-force shortest merging-word search."""
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, 2)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        t = pair_table(aut)
        for p in range(n):
            for q in range(p + 1, n):
                # brute force over words by length
                frontier = {(p, q) if p < q else (q, p)}
                depth = 0
                found = None
                seen = set(frontier)
                while frontier and found is None and depth <= n * n:
                    depth += 1
                    nxt = set()
                    for (x, y) in frontier:
                        for a in range(k):
                            xx, yy = aut.rows[x][a], aut.rows[y][a]
                            if xx == yy:
                                found = depth
                                break
                            pair = (xx, yy) if xx < yy else (yy, xx)
                            if pair not in seen:
                                seen.add(pair)
                                nxt.add(pair)
                        if found:
                            break
                    frontier = nxt
                assert t.length(p, q) == found


def test_is_synchronizing(c4, p3, ch2):
    assert is_synchronizing(c4)
    assert not is_synchronizing(p3)
    assert is_synchronizing(ch2)


def test_greedy_reset_word(c4, p3, ch2):
    assert greedy_reset_word(ch2) == Word.from_text("a")
    assert greedy_reset_word(p3) is None
    w = greedy_reset_word(c4)
    assert apply_word(c4, StateSet.full(4), w).size == 1
    assert len(w) <= 4 ** 3


def test_minimal_rank_word(c4, p3, ch2):
    assert minimal_rank_word(c4).rank == 1
    r = minimal_rank_word(p3)
    assert r.rank == 3 and r.word == Word()
    r = minimal_rank_word(ch2)
    assert r.rank == 1 and r.image == ch2.state_set([1])


def test_minimal_rank_image_is_incompressible():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        r = minimal_rank_word(aut)
        t = pair_table(aut)
        members = list(r.image)
        for i, p in enumerate(members):
            for q in members[i + 1:]:
                assert not t.compressible(p, q)
        # sampled words cannot shrink the minimal image
        for _ in range(10):
            w = Word([rng.randrange(aut.k) for _ in range(rng.randint(0, 6))])
            assert apply_word(aut, r.image, w).size == r.rank
        assert r.rank == min(bits.bit_count() for bits in forward_subset_bfs(aut).reached)


def test_avoidable_state_reference(c4, p3, ch2):
    assert avoidable_state(c4, 0)
    assert 0 not in apply_word(c4, StateSet.full(4), avoiding_word(c4, c4.state_set([0])))
    assert not avoidable_state(ch2, 1)
    assert avoidable_state(ch2, 0)
    assert not avoidable_state(p3, 0)
    with pytest.raises(ValueError):
        avoidable_state(c4, 4)


def test_avoidable_state_matches_oracle_including_disconnected():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 7)
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9))
        reached = forward_subset_bfs(aut).reached
        for q in range(n):
            oracle_says = any(not (bits >> q) & 1 for bits in reached)
            assert avoidable_state(aut, q) == oracle_says
        # synchronization agrees with the forward oracle too
        assert is_synchronizing(aut) == any(b.bit_count() == 1 for b in reached)


def _reference_table(aut):
    """The former pair-table search, one FIFO deque, and a word that takes at
    each step the smallest letter leading to distance d - 1."""
    n, k, rows = aut.n, aut.k, aut.rows
    dist, queue = [-1] * (n * n), deque()
    for p in range(n):
        for q in range(p + 1, n):
            for a in range(k):
                if rows[p][a] == rows[q][a]:
                    dist[p * n + q] = 1
                    queue.append(p * n + q)
                    break
    inv = [[[] for _ in range(n)] for _ in range(k)]
    for a in range(k):
        for p in range(n):
            inv[a][rows[p][a]].append(p)
    while queue:
        i = queue.popleft()
        p, q = divmod(i, n)
        for a in range(k):
            for x in inv[a][p]:
                for y in inv[a][q]:
                    j = x * n + y if x < y else y * n + x
                    if x != y and dist[j] < 0:
                        dist[j] = dist[i] + 1
                        queue.append(j)

    def word(i):
        (p, q), letters = divmod(i, n), []
        for d in reversed(range(dist[i])):  # the distance after this letter
            for a in range(k):
                x, y = sorted((rows[p][a], rows[q][a]))
                if (0 if x == y else dist[x * n + y]) == d:
                    break
            letters.append(a)
            p, q = x, y
        return Word(letters)

    return dist, word


def _reference_compression(aut, dist, word):
    """The former greedy loop: best pair by (length, p, q), applied letter by letter."""
    n, bits, letters = aut.n, (1 << aut.n) - 1, []
    while bits.bit_count() > 1:
        states = [q for q in range(n) if bits >> q & 1]
        pairs = [(dist[p * n + q], p, q) for i, p in enumerate(states) for q in states[i + 1:]
                 if dist[p * n + q] >= 0]
        if not pairs:
            break
        _, p, q = min(pairs)
        for a in word(p * n + q):
            letters.append(a)
            bits = aut.image_bits(bits, a)
    return Word(letters), bits


def _seeded_automata():
    rng = random.Random(11)
    for _ in range(120):
        yield random_automaton(rng.randint(1, 9), rng.randint(1, 3), seed=rng.randrange(10**9))
    yield random_automaton(300, 2, seed=rng.randrange(10**9))


def test_pair_table_and_compression_words_match_the_reference_search():
    for aut in _seeded_automata():
        n = aut.n
        dist, word = _reference_table(aut)
        table = pair_table(aut)
        assert list(table.dist) == dist
        for p in range(n):
            for q in range(p + 1, n):
                expected = word(p * n + q) if dist[p * n + q] >= 0 else None
                assert table.word(p, q) == table.word(q, p) == expected
        letters, bits = _reference_compression(aut, dist, word)
        rank = minimal_rank_word(aut)  # the table is built: every step reads it
        assert rank.word == letters and rank.image.bits == bits
        assert rank.classes == word_map(Automaton(aut.rows), letters)
        synchronizing = dist.count(-1) == n * (n + 1) // 2
        assert is_synchronizing(aut) == synchronizing
        assert greedy_reset_word(aut) == (letters if synchronizing else None)


def _rank_corpus():
    rng = random.Random(16)
    for _ in range(400):
        yield random_automaton(rng.randint(1, 40), rng.randint(1, 3), seed=rng.randrange(10**9)).rows
    for n, k in ((3, 2), (7, 2), (30, 3)):
        rows = random_automaton(n, k, seed=rng.randrange(10**9), constraint="permutation").rows
        yield list(rows) + [[0] * k]  # one merge, then the image never shrinks again
    for n in (2, 3, 5, 9, 17, 24, 40):
        yield cerny_automaton(n).rows
    yield _union(cerny_automaton(5), cerny_automaton(6))
    yield _union(cerny_automaton(12), cerny_automaton(13))


def test_lazy_rank_word_matches_the_table_driven_compression(monkeypatch):
    branches, outcomes = set(), set()
    search = pairs._merging_step

    def recording(*args):
        word, seen = search(*args)
        outcomes.add("word" if isinstance(word, list) else word)
        return word, seen

    monkeypatch.setattr(pairs, "_merging_step", recording)
    for rows in _rank_corpus():
        aut, reference = Automaton(rows), Automaton(rows)
        rank = minimal_rank_word(aut)
        branches.add("pair_table" in aut._derived)
        letters, bits = _reference_compression(reference, *_reference_table(reference))
        assert (rank.word, rank.image.bits, rank.rank) == (letters, bits, bits.bit_count())
        assert rank.classes == word_map(reference, letters)
    assert branches == {True, False}
    assert outcomes == {"word", -1, None}  # a merge, no merge, gave up at the limit


def test_avoiding_word_maps_no_word_over_all_states(monkeypatch):
    """Avoid reads the classes that come with the rank word: no module maps
    that word over Q."""
    words = []

    def recording(aut, w):
        words.append(w.letters)
        return word_map(aut, w)

    for info in pkgutil.iter_modules(preimages.__path__):
        module = importlib.import_module(f"preimages.{info.name}")
        if getattr(module, "word_map", None) is word_map:
            monkeypatch.setattr(module, "word_map", recording)
    aut = Automaton(_union(cerny_automaton(12), cerny_automaton(13)))
    w = avoiding_word(aut, aut.state_set(range(6)))
    rank = minimal_rank_word(aut)
    assert "pair_table" in aut._derived and len(rank.word) > 100
    assert w is not None and w.letters[:len(rank.word)] == rank.word.letters
    assert all(letters != rank.word.letters for letters in words)
    assert rank.classes == word_map(Automaton(aut.rows), rank.word)


def test_avoid_witness_is_reverified_from_its_own_letters(monkeypatch, capsys):
    rows = _union(cerny_automaton(12), cerny_automaton(13))
    aut = Automaton(rows)
    rank = minimal_rank_word(aut)
    assert "pair_table" in aut._derived
    last = aut._derived.get("word_map")
    assert last is None or last[0] != rank.word.letters
    verdicts = []

    def recording(*args):
        verdicts.append(report.witness_holds(*args))
        return verdicts[-1]

    monkeypatch.setattr(cli, "parse_automaton_file", lambda path: aut)
    monkeypatch.setattr(cli, "witness_holds", recording)
    code = cli.main(["check", "unused.aut", "--subset", "0,1,2,3,4,5", "--problem", "avoid",
                     "--witness", "--json"])
    answer = json.loads(capsys.readouterr().out)
    assert code == 0 and answer["answer"] == "yes" and verdicts == [True]
    image = apply_word(Automaton(rows), StateSet.full(len(rows)), Word.from_text(answer["witness"]))
    assert not set(range(6)) & set(image)


def _union(a, b):
    """Disjoint union: b's states follow a's.  Never synchronizing."""
    return [list(row) for row in a.rows] + [[q + a.n for q in row] for row in b.rows]


def _certificate_corpus():
    rng = random.Random(21)
    for _ in range(150):
        n, k = rng.randint(2, 60), rng.choice((2, 3))
        yield random_automaton(n, k, seed=rng.randrange(10**9)).rows
    for n in (2, 3, 5, 9, 17, 30):
        yield cerny_automaton(n).rows
    for _ in range(10):
        parts = [random_automaton(rng.randint(1, 30), 2, seed=rng.randrange(10**9))
                 for _ in range(2)]
        yield _union(*parts)
    yield _union(cerny_automaton(6), cerny_automaton(7))
    for n, k in ((2, 1), (7, 2), (40, 3)):
        rows = random_automaton(n, k, seed=rng.randrange(10**9), constraint="permutation").rows
        yield rows
        yield list(rows) + [[0] * k]  # one merge, then the image never shrinks again
    yield [[0]]
    yield [[0, 0, 0]]


def test_synchronization_certificate_agrees_with_the_pair_criterion():
    answers, tableless = set(), 0
    for rows in _certificate_corpus():
        aut = Automaton(rows)
        flag = is_synchronizing(aut)
        assert flag == pair_table(Automaton(rows)).all_compressible()
        # a "no" needs the table unless every letter is a bijection
        assert flag or ("pair_table" in aut._derived) != is_permutation_automaton(aut)
        answers.add(flag)
        tableless += "pair_table" not in aut._derived
    # both outcomes occur, and most "yes" answers built no table
    assert answers == {True, False} and tableless > 100


def test_decision_only_routes_build_no_pair_table(monkeypatch, capsys):
    rows = random_automaton(600, 2, seed=3).rows
    random.seed(1)
    state = random.getstate()
    aut = Automaton(rows)
    assert is_synchronizing(aut) and "pair_table" not in aut._derived
    assert random.getstate() == state  # no shared random state consumed
    # extend-total decides by the sink component; resize runs its search.
    for problem, method in (("extend-total", "fast-path"), ("resize", "poly")):
        aut = Automaton(rows)
        monkeypatch.setattr(cli, "parse_automaton_file", lambda path: aut)
        code = cli.main(["check", "unused.aut", "--subset", "5,70", "--problem", problem,
                         "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1) and report["method"] == method
        if problem == "extend-total":
            assert report["classification"]["synchronizing"] is True
        assert "pair_table" not in aut._derived


def test_random_avoid_witness_builds_no_pair_table(monkeypatch, capsys):
    aut = Automaton(random_automaton(600, 2, seed=3).rows)
    monkeypatch.setattr(cli, "parse_automaton_file", lambda path: aut)
    code = cli.main(["check", "unused.aut", "--subset", "5,70", "--problem", "avoid",
                     "--witness", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["answer"] == "yes"
    image = apply_word(aut, StateSet.full(aut.n), Word.from_text(report["witness"]))
    assert not {5, 70} & set(image)
    assert "pair_table" not in aut._derived
    assert report["classification"]["synchronizing"] is None  # not computed, as before


def test_a_no_comes_from_the_pair_table(p3):
    union = Automaton(_union(random_automaton(30, 2, seed=4), random_automaton(40, 2, seed=5)))
    for aut in (union, Automaton(_union(cerny_automaton(5), cerny_automaton(6)))):
        assert not is_synchronizing(aut)
        assert "pair_table" in aut._derived
    # ...except on a permutation automaton, where no word merges two states
    assert not is_synchronizing(p3) and "pair_table" not in p3._derived


def test_permutation_automata_classify_without_the_pair_table(monkeypatch, capsys):
    for aut, flag in ((random_automaton(600, 2, seed=6, constraint="permutation"), False),
                      (Automaton([[0, 0]]), True)):
        monkeypatch.setattr(cli, "parse_automaton_file", lambda path: aut)
        assert cli.main(["classify", "unused.aut", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["permutation"] and info["synchronizing"] is flag
        assert "pair_table" not in aut._derived


def test_avoidable_state_builds_one_table_per_sink_component(monkeypatch):
    aut = Automaton(_union(cerny_automaton(5), cerny_automaton(6)))
    builds = []
    original = pairs.pair_table

    def counting(sub):
        builds.append("pair_table" not in sub._derived)
        return original(sub)

    monkeypatch.setattr(pairs, "pair_table", counting)
    assert [avoidable_state(aut, q) for q in (5, 8, 10)] == [True] * 3
    assert builds == [True, False, False]


def test_identical_letters_merge_with_the_smaller_one():
    # Letters 1 and 2 act alike, so every pair word uses 1, never 2: the
    # table is the one of the automaton without letter 2.
    for aut in (cerny_automaton(6), random_automaton(40, 2, seed=9)):
        doubled = pair_table(Automaton([row + row[1:] for row in aut.rows]))
        table = pair_table(aut)
        assert list(doubled.dist) == list(table.dist)
        for p in range(aut.n):
            for q in range(p + 1, aut.n):
                assert doubled.word(p, q) == table.word(p, q)


def test_pair_table_holds_five_bytes_per_entry():
    # int32 distances: 4 bytes per (p, q) entry, at most 5 as the name says;
    # the bound leaves room for the levels, which hold pair indices as
    # machine ints too, and the predecessor lists.
    n = 150
    rows = random_automaton(n, 2, seed=n).rows
    tracemalloc.start()
    try:
        pair_table(Automaton(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * n * n


@pytest.mark.parametrize("p, q, message", [
    (1, 1, "a pair consists of two distinct states"),
    (0, 4, "state out of range"),
    (-1, 2, "state out of range"),
])
def test_pair_table_rejects_a_bad_pair(c4, p, q, message):
    table = pair_table(c4)
    for read in (table.length, table.compressible):
        with pytest.raises(ValueError) as exc:
            read(p, q)
        assert str(exc.value) == message
