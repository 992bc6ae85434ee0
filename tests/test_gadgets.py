"""Reduction gadgets, validated against the oracle and the product check."""

import hashlib
import random

import pytest

from preimages import (Automaton, DfaWithAcceptance, GadgetOutput, StateSet,
                       backward_subset_bfs, binarize, intersection_gadget, is_strongly_connected,
                       is_synchronizing, languages_intersect, large_extend_gadget,
                       perm3, chain2, random_automaton, serialize_automaton, serialize_gadget,
                       sink_binarize, sink_state)
from preimages import gadgets
from preimages.cli import main
from preimages.gadgets import trim_reachable
from preimages.automaton import CONSTRAINTS, problem_goal


def oracle_ext_tot(aut, s, cap=64):
    res = backward_subset_bfs(aut, s, node_limit=5_000_000, state_cap=cap)
    ext = any(map(problem_goal("extend", aut.n, s.size), res.reached))
    tot = any(map(problem_goal("extend-total", aut.n, s.size), res.reached))
    return ext, tot


def random_trimmed_dfa(rng, max_n=3, k=2):
    while True:
        n = rng.randint(1, max_n)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        d = DfaWithAcceptance(aut, rng.randrange(n), StateSet(n, rng.randrange(1, 1 << n)))
        d = trim_reachable(d)
        if d.accepting.size:
            return d


def test_intersection_gadget_size_arithmetic():
    d = DfaWithAcceptance(chain2(), 0, StateSet.from_states(2, [1]))
    out = intersection_gadget([d])
    assert out.automaton.n == 11  # block0 = 2 + 4, block1 = 1 + 4 with M = 2
    assert out.automaton.k == 3   # sigma + alpha + beta
    assert len(set(out.state_names)) == 11


def test_intersection_gadget_output_is_pinned():
    # SHA-256 of the serialized gadgets of 60 seeded, untrimmed input tuples,
    # recorded from the earlier table-per-role implementation: state order,
    # state names, rows and subset all stay byte for byte the same.
    rng = random.Random(34)
    digest = hashlib.sha256()
    for _ in range(60):
        k = rng.randint(1, 3)
        dfas = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 5)
            rows = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
            dfas.append(DfaWithAcceptance(Automaton(rows), rng.randrange(n),
                                          StateSet(n, rng.randrange(1, 1 << n))))
        digest.update(serialize_gadget(intersection_gadget(dfas)).encode())
    assert digest.hexdigest() == "8be6894e7088207481f9a60d622a473e96f8377eab40329a03a6d7f34ed5d85f"


def test_reduction_outputs_are_pinned():
    # SHA-256 of seeded binarize, sink_binarize, large_extend_gadget and
    # trim_reachable outputs and random_automaton draws of every constraint,
    # recorded from the earlier fill-then-overwrite implementation: state
    # order, state names, rows, subsets and initial states stay the same.
    rng = random.Random(38)
    digest = hashlib.sha256()
    for _ in range(150):
        n, k = rng.randint(1, 7), rng.choice([1, 2, 2, 3, 26, 27, 30])
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        outputs = [binarize(aut, s), large_extend_gadget(aut, s, rng.randrange(n))]
        if k == 2:
            outputs.append(sink_binarize(aut))
        for out in outputs:
            digest.update(serialize_gadget(out).encode())
        trimmed = trim_reachable(DfaWithAcceptance(aut, rng.randrange(n), s))
        digest.update(serialize_automaton(trimmed.automaton, subset=trimmed.accepting).encode())
        digest.update(b"initial %d\n" % trimmed.initial)
        for constraint in CONSTRAINTS:
            drawn = random_automaton(n, rng.randint(2, 3), rng.randrange(10**9), constraint)
            digest.update(serialize_automaton(drawn).encode())
    assert digest.hexdigest() == "9fb138ff44bbc0cbe81dd1ad61008b5f8565fc249eadd87627e3856b6335adcd"


def test_intersection_gadget_preconditions():
    with pytest.raises(ValueError):
        intersection_gadget([])
    d1 = DfaWithAcceptance(chain2(), 0, StateSet.from_states(2, [1]))   # k = 1
    d2 = DfaWithAcceptance(perm3(), 0, StateSet.from_states(3, [1]))    # k = 2
    with pytest.raises(ValueError):
        intersection_gadget([d1, d2])
    with pytest.raises(ValueError):
        intersection_gadget([DfaWithAcceptance(Automaton([[0]]), 0, StateSet.empty(1))])


def test_intersection_gadget_everything_accepting_is_totally_extensible():
    one = DfaWithAcceptance(Automaton([[0, 0]]), 0, StateSet.full(1))
    out = intersection_gadget([one, one])
    ext, tot = oracle_ext_tot(out.automaton, out.subset)
    assert ext and tot


def test_intersection_gadget_equivalence_and_connectivity():
    rng = random.Random(51)
    for _ in range(120):
        m = rng.choice([1, 2])
        k = rng.randint(1, 2)
        dfas = [random_trimmed_dfa(rng, k=k) for _ in range(m)]
        out = intersection_gadget(dfas)
        assert is_strongly_connected(out.automaton)
        ext, tot = oracle_ext_tot(out.automaton, out.subset)
        want = languages_intersect(dfas)
        assert ext == want and tot == want


def test_router_answers_the_paper_chains_as_the_product_check(tmp_path, capsys):
    # The paper's chain on seeded sets of 1-3 trimmed binary DFAs of 1-3
    # states: the intersection gadget, its binarization, and that one's
    # sink-binarization, where S is the binarized subset on the original
    # states.  Whatever route `check` takes, extend on all three and
    # extend-total on the first two exit 0 exactly when the DFAs accept a
    # common word, and 1 otherwise.  Small random DFAs nearly always share a
    # word, so odd seeds draw 1-2 DFAs and add the complement of the first.
    path, answers = str(tmp_path / "chain.aut"), []
    for seed in range(60):
        rng = random.Random(seed)
        dfas = [random_trimmed_dfa(rng) for _ in range(rng.randint(1, 3 - seed % 2))]
        first = dfas[0]
        if seed % 2 and first.accepting.complement():
            dfas.append(DfaWithAcceptance(first.automaton, first.initial,
                                          first.accepting.complement()))
        gadget = intersection_gadget(dfas)
        binary = binarize(gadget.automaton, gadget.subset)
        sink = sink_binarize(binary.automaton)
        want = 0 if languages_intersect(dfas) else 1
        answers.append(want)
        for aut, s, problems in ((gadget.automaton, gadget.subset, ("extend", "extend-total")),
                                 (binary.automaton, binary.subset, ("extend", "extend-total")),
                                 (sink.automaton, StateSet(sink.automaton.n, binary.subset.bits),
                                  ("extend",))):
            with open(path, "w") as fh:
                fh.write(serialize_automaton(aut))
            for problem in problems:
                code = main(["check", path, "--subset", ",".join(map(str, s)), "--problem",
                             problem])
                capsys.readouterr()
                assert code == want, (seed, aut.n, problem)
    assert answers.count(1) == 18 and answers.count(0) == 42


def test_binarize_reference_shapes(p3, ch2, c4):
    out = binarize(p3, StateSet.empty(3))
    assert out.automaton.n == 6 and out.automaton.k == 2
    assert is_strongly_connected(out.automaton)

    out = binarize(ch2, ch2.state_set([0]))  # k = 1: second letter is the identity
    assert out.automaton.n == 2
    assert all(out.automaton.rows[q][1] == q for q in range(2))

    out = binarize(c4, c4.state_set([1, 2]))
    assert out.subset.size == 2 + 4 * (2 - 1)


def test_binarize_names_letters_by_the_word_rule():
    # a-z up to 26 letters, decimal indices beyond: state (q, a_i) is "(q,i)".
    out = binarize(Automaton([[0] * 26]), StateSet.full(1))
    assert out.state_names[0] == "(0,a)" and out.state_names[25] == "(0,z)"
    out = binarize(Automaton([[0] * 27]), StateSet.full(1))
    assert out.state_names[0] == "(0,0)" and out.state_names[26] == "(0,26)"


def test_binarize_equivalences():
    rng = random.Random(52)
    for _ in range(120):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        out = binarize(aut, s)
        assert is_strongly_connected(aut) == is_strongly_connected(out.automaton)
        assert oracle_ext_tot(aut, s, cap=20) == oracle_ext_tot(out.automaton, out.subset, cap=20)


def test_sink_gadget_shapes(ch2):
    binary_chain = Automaton([[1, 0], [1, 1]])
    out = sink_binarize(binary_chain)
    assert out.automaton.n == 7
    assert sink_state(out.automaton) == 6
    assert is_synchronizing(out.automaton)
    with pytest.raises(ValueError):
        sink_binarize(ch2)  # not binary


def test_binarized_permutation_then_sink_is_synchronizing(p3):
    two_letter = binarize(p3, StateSet.empty(3)).automaton
    out = sink_binarize(two_letter)
    assert is_synchronizing(out.automaton)


def test_sink_gadget_properties():
    rng = random.Random(53)
    for _ in range(120):
        n = rng.randint(1, 3)
        aut = random_automaton(n, 2, seed=rng.randrange(10**9))
        out = sink_binarize(aut)
        assert is_synchronizing(out.automaton)
        assert sink_state(out.automaton) == 3 * n
        bits = rng.randrange(1 << n)
        ext_in, _ = oracle_ext_tot(aut, StateSet(n, bits), cap=20)
        ext_out, _ = oracle_ext_tot(out.automaton, StateSet(3 * n + 1, bits), cap=20)
        assert ext_in == ext_out


def test_large_extend_gadget_shapes(ch2, p3):
    out = large_extend_gadget(ch2, ch2.state_set([1]), 0)
    assert out.automaton.n == 4  # n + 2
    assert out.subset == StateSet.from_states(4, [0, 1])
    ext, _ = oracle_ext_tot(out.automaton, out.subset, cap=20)
    assert ext  # {r1} is totally extensible in the chain

    out = large_extend_gadget(p3, p3.state_set([0]), 0)
    ext, _ = oracle_ext_tot(out.automaton, out.subset, cap=20)
    assert not ext  # {p1} is not totally extensible in a permutation automaton

    with pytest.raises(ValueError):
        large_extend_gadget(p3, p3.state_set([0]), 5)


def test_large_extend_gadget_equivalence():
    rng = random.Random(54)
    for _ in range(120):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        out = large_extend_gadget(aut, s, rng.randrange(n))
        _, tot_in = oracle_ext_tot(aut, s, cap=20)
        ext_out, _ = oracle_ext_tot(out.automaton, out.subset, cap=20)
        assert ext_out == tot_in


def test_random_automaton_contract():
    assert random_automaton(1, 1, seed=0).rows == ((0,),)
    a1 = random_automaton(5, 2, seed=77)
    a2 = random_automaton(5, 2, seed=77)
    assert a1 == a2
    perm = random_automaton(5, 2, seed=78, constraint="permutation")
    for a in range(2):
        assert sorted(perm.by_letter[a]) == list(range(5))
    sc = random_automaton(6, 2, seed=79, constraint="strongly-connected")
    assert is_strongly_connected(sc)
    sync = random_automaton(6, 2, seed=80, constraint="synchronizing")
    assert is_synchronizing(sync)
    with pytest.raises(ValueError):
        random_automaton(3, 2, seed=0, constraint="acyclic")


def test_gadget_outputs_validate_and_name_tables_are_bijective():
    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(1, 3)
        aut = random_automaton(n, 2, seed=rng.randrange(10**9))
        s = StateSet(n, rng.randrange(1 << n))
        for out in (binarize(aut, s), sink_binarize(aut),
                    large_extend_gadget(aut, s, rng.randrange(n))):
            assert len(out.state_names) == out.automaton.n
            assert len(set(out.state_names)) == out.automaton.n
            assert out.name_of(0) == out.state_names[0]


def _no_draw(monkeypatch):
    monkeypatch.setattr(gadgets, "REJECTION_CAP", 0)
    random_automaton(3, 2, seed=1, constraint="strongly-connected")


@pytest.mark.parametrize("build, error, message", [
    (lambda _: GadgetOutput(chain2(), StateSet(2, 0), ("q0",)), ValueError,
     "state-name table must cover every state"),
    (lambda _: GadgetOutput(chain2(), StateSet(2, 0), ("q0", "q0")), ValueError,
     "state-name table must be a bijection"),
    (lambda _: random_automaton(0, 2, seed=1), ValueError, "need n >= 1 and k >= 1"),
    (lambda _: random_automaton(2, 0, seed=1), ValueError, "need n >= 1 and k >= 1"),
    (_no_draw, RuntimeError,
     "could not draw a strongly-connected automaton with n=3, k=2 in 0 attempts"),
    (lambda _: languages_intersect([]), ValueError, "need at least one DFA"),
    (lambda _: languages_intersect([DfaWithAcceptance(chain2(), 0, StateSet(2, 2)),
                                    DfaWithAcceptance(perm3(), 0, StateSet(3, 2))]),
     ValueError, "all DFAs must share one alphabet"),
], ids=["names-short", "names-repeat", "no-state", "no-letter", "rejection-cap", "no-dfa",
        "alphabets"])
def test_gadget_inputs_are_checked(monkeypatch, build, error, message):
    with pytest.raises(error) as exc:
        build(monkeypatch)
    assert str(exc.value) == message
