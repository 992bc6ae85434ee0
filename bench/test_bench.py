"""Self-tests of the benchmark: span accounting, the independent verifier,
the closed forms behind the expected tables, and seeded generation.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

import spans
import verify
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_self_time_of_a_synthetic_nested_call():
    rec = spans.Recorder()

    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    wrapped_inner = rec.wrap("pairs.pair_table", inner, None, None)
    rec.wrap("pairs.minimal_rank_word", outer, None, None)()
    by_name = spans.totals(rec)
    assert rec.spans[1][spans.PARENT] == 0 and rec.spans[0][spans.PARENT] == -1
    assert 0.05 <= by_name["pairs.pair_table"]["self_s"] < 0.065
    assert 0.02 <= by_name["pairs.minimal_rank_word"]["self_s"] < 0.035
    shares = spans.layer_shares(by_name)
    assert shares["pairs"] == pytest.approx(1.0)


def test_traced_package_nests_pair_table_under_minimal_rank_word():
    from preimages import cerny_automaton, pairs

    aut = cerny_automaton(6)
    rec = spans.Recorder()
    original = pairs.pair_table
    with spans.traced(rec, "q"):
        pairs.minimal_rank_word(aut)
        assert pairs.pair_table is not original
    assert pairs.pair_table is original
    by_name = spans.totals(rec)
    assert by_name["pairs.pair_table"]["pairs"] == 15
    assert by_name["pairs.minimal_rank_word"]["letters"] >= 25  # shortest reset: (n - 1)^2
    table_span = next(s for s in rec.spans if s[spans.NAME] == "pairs.pair_table")
    assert rec.spans[table_span[spans.PARENT]][spans.NAME] == "pairs.minimal_rank_word"
    outer = rec.spans[table_span[spans.PARENT]]
    assert outer[spans.CHILD_S] == pytest.approx(table_span[spans.END] - table_span[spans.START])


def _resize_query(expected_length):
    # Defect cycle on 6 states, S = {5}: the shortest resizing word has 5 letters.
    return {"id": "q", "problem": "resize", "subset": [5], "witness": True,
            "expect": {"answer": "yes", "length": expected_length}}


def _report(witness):
    return json.dumps({"answer": "yes", "witness": witness, "witness_length": len(witness)})


def test_verifier_accepts_a_correct_shortest_witness():
    rows = workloads.defect_cycle(6)
    problems, _ = verify.check_output(_resize_query(5), rows, 0, _report("baaaa"))
    assert problems == []


def test_verifier_rejects_a_tampered_witness():
    rows = workloads.defect_cycle(6)
    problems, _ = verify.check_output(_resize_query(5), rows, 0, _report("aaaab"))
    assert "witness fails independent re-verification" in problems


def test_verifier_rejects_a_wrong_shortest_length():
    rows = workloads.defect_cycle(6)
    longer = "bbaaaa"  # still resizes {5}, one letter too long
    assert verify.witness_holds(rows, "resize", 1 << 5, verify.parse_word(longer, 2))
    problems, _ = verify.check_output(_resize_query(5), rows, 0, _report(longer))
    assert problems == ["witness length 6, shortest is 5"]
    problems, _ = verify.check_output(_resize_query(4), rows, 0, _report("baaaa"))
    assert problems == ["witness length 5, shortest is 4"]


def test_verifier_rejects_wrong_answer_and_exit_code():
    rows = workloads.defect_cycle(6)
    no = json.dumps({"answer": "no", "witness": None, "witness_length": None})
    problems, _ = verify.check_output(_resize_query(5), rows, 1, no)
    assert problems == ["answer 'no', expected 'yes'", "exit code 1"]


def test_closed_forms_agree_with_exhaustive_search():
    for n in range(3, 12):
        rows = workloads.defect_cycle(n)
        for j in range(1, n):
            assert verify.oracle_lengths(rows, 1 << j)[0]["resize"] == j
    rng = random.Random(7)
    for n in (5, 6, 7):
        rows = workloads.random_permutations(n, rng)
        lengths, _ = verify.oracle_lengths(rows, verify.bits_of(rng.sample(range(n), 2)))
        assert lengths["extend"] is lengths["resize"] is lengths["avoid"] is None
    # Cerny-3 plus Cerny-4: components A = {0,1,2}, B = {3,...,6}.
    rows = workloads.disjoint_union(workloads.cerny(3), workloads.cerny(4))
    assert verify.oracle_lengths(rows, 0b11)[0]["avoid"] is not None
    assert verify.oracle_lengths(rows, 0b111)[0]["avoid"] is None
    assert verify.oracle_lengths(rows, 0b111 | 1 << 5)[0]["extend-total"] is not None
    assert verify.oracle_lengths(rows, 0b111)[0]["extend-total"] is None
    # Synchronizing random automata: the sink component decides.
    checked = 0
    while checked < 20:
        n = rng.randrange(4, 9)
        rows = workloads.random_rows(n, rng)
        word = verify.reset_certificate(rows, rng)
        if word is None:
            continue
        sink = verify.closure(rows, next(iter(verify.image(rows, set(range(n)), word))))
        s = rng.sample(range(n), rng.randrange(1, n))
        lengths, _ = verify.oracle_lengths(rows, verify.bits_of(s))
        assert (lengths["extend-total"] is not None) == bool(sink & set(s))
        assert (lengths["avoid"] is not None) == (not sink <= set(s))
        assert lengths["resize"] is not None
        checked += 1


def test_reset_certificate_rejects_a_non_synchronizing_automaton():
    rows = workloads.disjoint_union(workloads.cerny(3), workloads.cerny(4))
    assert verify.reset_certificate(rows, random.Random(1)) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_reproducible(workload, tmp_path):
    first, digest = workloads.build(workload, 5, tmp_path / "a")
    again, digest_again = workloads.build(workload, 5, tmp_path / "b")
    assert digest == digest_again
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert [q["expect"] for q in first] == [q["expect"] for q in again]
    _, other = workloads.build(workload, 6, tmp_path / "c")
    assert other != digest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_keeps_generation_floors(workload, tmp_path):
    queries, _ = workloads.build(workload, 424242, tmp_path)
    assert len(queries) >= 14
    if workload == "pair-table":
        assert all(q["n"] >= 600 for q in queries if q["family"] == "random")
