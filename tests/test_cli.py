"""End-to-end CLI behavior: routing, exit codes, JSON determinism."""

import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import preimages
from preimages import (Automaton, BudgetExceededError, NotSynchronizingError, StateSet,
                       backward_subset_bfs, cerny_automaton, oracle_shortest, perm3, chain2,
                       random_automaton, serialize_automaton, validate_report)
from preimages import (automaton as automaton_mod, avoid as avoid_mod, extend as extend_mod,
                       gadgets as gadgets_mod, oracle as oracle_mod, search as search_mod)
from preimages.automaton import PROBLEMS
from preimages.cli import _COMMANDS, main


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, aut in (("cerny4", cerny_automaton(4)), ("perm3", perm3()), ("chain2", chain2())):
        p = tmp_path / f"{name}.aut"
        p.write_text(serialize_automaton(aut))
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_extend_worked_example(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "extend", "--witness", "--json")
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["answer"] == "yes"
    assert report["witness"] == "ba" and report["witness_length"] == 2
    assert report["preimage_size"] == 3 and report["subset_size"] == 2
    assert report["method"] == "poly"


def test_check_resize_no(files, capsys):
    code, out, _ = run(capsys, "check", files["perm3"], "--subset", "0",
                       "--problem", "resize", "--json")
    assert code == 1
    assert json.loads(out)["answer"] == "no"


def test_check_avoid_witness(files, capsys):
    code, out, _ = run(capsys, "check", files["chain2"], "--subset", "0",
                       "--problem", "avoid", "--witness", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["answer"] == "yes" and report["witness"] == "a"


def test_check_resize_decision_runs_the_search(files, capsys):
    # Without --witness, resize on a synchronizing automaton runs the same
    # search as with it: 4 subsets discovered, S and the resized one included.
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "resize", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "poly" and report["stats"]["nodes"] == 4


def test_check_max_len_with_shortest_method(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "extend", "--max-len", "1", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["answer"] == "no" and report["max_len"] == 1

    code, _, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                     "--problem", "extend", "--max-len", "2")
    assert code == 0


def test_check_max_len_with_non_shortest_method_uses_oracle(files, capsys):
    # extend-total's witness search does not give shortest words; the
    # oracle's cut search resolves the bound exactly.
    code, out, _ = run(capsys, "check", files["chain2"], "--subset", "1",
                       "--problem", "extend-total", "--max-len", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["answer"] == "yes"


def _permutations_and_cerny(m: int, n: int, seed: int) -> Automaton:
    """Two uniform permutations of m states, redrawn until they act
    2-transitively (as ``bench/workloads.py`` draws them), next to the Černý
    automaton on states m..m+n-1."""
    rng = random.Random(seed)
    while True:
        perms = []
        for _ in range(2):
            perm = list(range(m))
            rng.shuffle(perm)
            perms.append(perm)
        rows = [[perms[0][q], perms[1][q]] for q in range(m)]
        pairs, todo = {(0, 1)}, [(0, 1)]
        while todo:
            p, q = todo.pop()
            for a in range(2):
                pair = (rows[p][a], rows[q][a])
                if pair not in pairs:
                    pairs.add(pair)
                    todo.append(pair)
        if len(pairs) == m * (m - 1):
            return Automaton(rows + [[x + m for x in row] for row in cerny_automaton(n).rows])


def test_max_len_cuts_the_extend_and_resize_searches(tmp_path, capsys):
    # Extend and resize give shortest witnesses, so --max-len L cuts their own
    # searches at depth L: a "no" costs the subsets within L letters of S, not
    # the whole search, and carries no note.
    path = tmp_path / "perm40-cerny20.aut"
    path.write_text(serialize_automaton(_permutations_and_cerny(40, 20, 3)))
    query = ("check", str(path), "--subset", "0,1,59", "--problem", "extend", "--json")
    code, out, _ = run(capsys, *query, "--witness")
    uncut = json.loads(out)
    assert code == 0 and uncut["witness_length"] == 20 and uncut["stats"]["nodes"] > 10_000
    code, out, _ = run(capsys, *query, "--max-len", "3")
    report = json.loads(out)
    assert code == 1 and report["answer"] == "no" and report["method"] == "poly"
    assert report["stats"]["nodes"] <= 15 and "note" not in report

    # S meets the Cerny part in its state 10, which 11 letters resize.
    query = ("check", str(path), "--subset", "0,1,50", "--problem", "resize", "--witness",
             "--json")
    code, out, _ = run(capsys, *query)
    uncut = json.loads(out)
    assert code == 0 and uncut["witness_length"] == 11
    for max_len in (3, 10):
        code, out, _ = run(capsys, *query, "--max-len", str(max_len))
        report = json.loads(out)
        assert code == 1 and report["answer"] == "no" and "note" not in report, max_len
        assert report["stats"]["nodes"] < uncut["stats"]["nodes"], max_len
    code, out, _ = run(capsys, *query, "--max-len", "11")
    assert code == 0 and json.loads(out)["witness"] == uncut["witness"]


def test_check_max_len_poly_is_auto(files, capsys):
    # --method poly is a synonym of auto: it, too, races the depth-cut search
    # against the extend-total search, which finds only a witness longer than
    # the bound, and never answers "length bound undecided".
    reports = []
    for method in ("auto", "poly"):
        code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "0",
                           "--problem", "extend-total", "--method", method,
                           "--max-len", "1", "--json")
        reports.append((code, out))
    assert reports[0] == reports[1]
    report = json.loads(reports[0][1])
    assert reports[0][0] == 1 and report["answer"] == "no" and report["method"] == "poly"
    assert "note" not in report


def test_check_oracle_method(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "resize", "--method", "oracle", "--witness", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "oracle" and report["witness_length"] == 2


def test_oracle_method_cuts_at_the_length_bound_above_the_state_cap(tmp_path, capsys):
    # Under --max-len the oracle runs its search cut at that depth: n = 30 is
    # answered, where the uncut search is refused.  A cut whose bound
    # 1 + 2 + ... + 2^L exceeds the 2^20 subsets the cap admits is refused too.
    path = tmp_path / "cerny30.aut"
    path.write_text(serialize_automaton(cerny_automaton(30)))
    query = ("check", str(path), "--subset", ",".join(map(str, range(0, 30, 2))),
             "--problem", "extend", "--method", "oracle", "--witness", "--json")
    code, out, _ = run(capsys, *query, "--max-len", "1")
    report = json.loads(out)
    assert code == 0 and report["answer"] == "yes" and report["witness"] == "b"
    assert report["method"] == "oracle" and "note" not in report
    code, out, _ = run(capsys, *query, "--max-len", "0")
    report = json.loads(out)
    assert code == 1 and report["answer"] == "no" and "note" not in report
    for bound in ((), ("--max-len", "20"), ("--max-len", "30")):
        code, out, _ = run(capsys, *query, *bound)
        assert code == 2 and json.loads(out)["note"] == "power-set search refused: n=30 exceeds cap 20"
    code, out, _ = run(capsys, *query, "--max-len", "19")
    assert code == 0 and json.loads(out)["witness"] == "b"


def test_witness_holds_matches_the_image_definition():
    # Avoid is read off the preimage: Q . w misses S exactly when S . w^-1 is empty.
    rng = random.Random(23)
    for _ in range(400):
        n, k = rng.randint(1, 8), rng.randint(1, 3)
        aut = random_automaton(n, k, seed=rng.randrange(10**9))
        rows = [list(r) for r in aut.rows]
        s_bits = rng.randrange(1 << n)
        s = StateSet(n, s_bits)
        word = preimages.Word(rng.randrange(k) for _ in range(rng.randint(0, 6)))
        for problem in PROBLEMS:
            assert preimages.witness_holds(aut, s, problem, word) == _witness_ok(
                rows, s_bits, problem, word.text(k)), (rows, s_bits, problem, word)
    with pytest.raises(ValueError):
        preimages.witness_holds(aut, s, "compress", word)


def test_check_budget_exhaustion_reports_unknown(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "extend", "--method", "poly", "--budget", "2", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["answer"] == "unknown-budget"


def test_budget_limited_length_bound_still_prints_a_report(files, capsys):
    # The extend-total witness is too long for --max-len 1, and the depth-cut
    # search that would settle the bound runs out of the query's node budget,
    # of which the witness search took one node.
    code, out, err = run(capsys, "check", files["cerny4"], "--subset", "0",
                         "--problem", "extend-total", "--max-len", "1", "--budget", "2",
                         "--json")
    assert code == 2 and err == ""
    report = json.loads(out)
    validate_report(report)
    assert report["answer"] == "unknown-budget" and report["max_len"] == 1
    assert report["method"] == "poly" and report["note"] == "node budget exceeded"


def test_check_walks_the_witness_once(tmp_path, capsys, monkeypatch):
    # Re-verifying the witness and measuring its preimage share one word_map
    # walk: the first call computes the map of the witness, and every later
    # call returns the very map kept on the automaton.  Defect cycles of 256
    # and 257 states put the walk on each side of the byte-table switch; the
    # shortest resizing word of {n-1} has n-1 letters.
    calls, word_map = [], automaton_mod.word_map

    def recording(aut, w):
        last = aut._derived.get("word_map")
        f = word_map(aut, w)
        calls.append((w.letters, last is not None and last[1] is f))
        assert f == tuple(_fold_letters(aut, q, w.letters) for q in range(aut.n))
        return f

    monkeypatch.setattr(automaton_mod, "word_map", recording)
    for n in (256, 257):
        path = tmp_path / f"defect{n}.aut"
        path.write_text(serialize_automaton(
            Automaton([[(q + 1) % n, 0 if q == 1 else q] for q in range(n)])))
        calls.clear()
        code, out, _ = run(capsys, "check", str(path), "--subset", str(n - 1),
                           "--problem", "resize", "--witness", "--json")
        report = json.loads(out)
        assert code == 0 and report["witness_length"] == n - 1
        assert len(calls) >= 2 and [hit for _, hit in calls] == [False] + [True] * (len(calls) - 1)
        assert all("".join("ab"[a] for a in letters) == report["witness"] for letters, _ in calls)


def _fold_letters(aut, q, letters):
    for a in letters:
        q = aut.rows[q][a]
    return q


def test_check_resize_honours_budget(tmp_path, capsys, monkeypatch):
    # Defect cycle: from {n-1} the shortest resizing word has n-1 letters.
    n = 20
    path = tmp_path / "defect20.aut"
    path.write_text(serialize_automaton(
        Automaton([[(q + 1) % n, 0 if q == 1 else q] for q in range(n)])))
    args = ("check", str(path), "--subset", str(n - 1), "--problem", "resize",
            "--witness", "--json")
    code, out, _ = run(capsys, *args, "--budget", "5")
    assert code == 2 and json.loads(out)["answer"] == "unknown-budget"
    monkeypatch.setenv("PREIMAGES_BUDGET", "5")
    code, out, _ = run(capsys, *args)
    assert code == 2 and json.loads(out)["answer"] == "unknown-budget"
    monkeypatch.delenv("PREIMAGES_BUDGET")
    code, out, _ = run(capsys, *args)
    assert code == 0 and json.loads(out)["witness_length"] == n - 1


def test_check_extend_has_no_size_gate(tmp_path, capsys):
    # C(40, 1) + ... + C(40, 20) subsets of at most |S| states far exceed the
    # default budget, but the backward search from S reaches only 8 of them.
    path = tmp_path / "cerny40.aut"
    path.write_text(serialize_automaton(cerny_automaton(40)))
    code, out, _ = run(capsys, "check", str(path), "--subset", ",".join(map(str, range(5, 25))),
                       "--problem", "extend", "--witness", "--json")
    report = json.loads(out)
    assert code == 0 and report["answer"] == "yes" and report["witness"] == "baaaaa"
    assert report["stats"] == {"nodes": 8} and report["preimage_size"] > 20


def test_json_is_byte_identical_across_runs(files, capsys):
    args = ("check", files["cerny4"], "--subset", "1,2", "--problem", "avoid",
            "--witness", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("problem, extra", [("extend", ()), ("extend-total", ("--witness",)),
                                            ("avoid", ("--max-len", "2")),
                                            ("resize", ("--method", "oracle", "--witness"))])
def test_timing_adds_only_elapsed_ms(files, capsys, problem, extra):
    args = ("check", files["cerny4"], "--subset", "1,2", "--problem", problem, *extra, "--json")
    code, out, _ = run(capsys, *args)
    timed_code, timed_out, _ = run(capsys, *args, "--timing")
    report, timed = json.loads(out), json.loads(timed_out)
    validate_report(timed)
    assert "elapsed_ms" not in report["stats"]
    elapsed = timed["stats"].pop("elapsed_ms")
    assert type(elapsed) in (int, float) and elapsed >= 0
    assert timed_code == code and timed == report


def test_classify_rank_and_timed_check_json_is_what_json_writes(capsys):
    # report.dumps stands in for json.dumps(value, sort_keys=True, indent=2);
    # parsing and re-dumping is exact for these values, elapsed_ms included.
    data = Path(__file__).parent / "data"
    paths = sorted(data.glob("*.aut"))
    assert paths
    for path in paths:
        for argv in (("classify", str(path), "--json"), ("rank", str(path), "--json"),
                     ("check", str(path), "--subset", "0,1", "--problem", "resize",
                      "--witness", "--json", "--timing")):
            code, out, _ = run(capsys, *argv)
            assert code in (0, 1)
            value = json.loads(out)
            assert out == json.dumps(value, sort_keys=True, indent=2) + "\n", argv
            if argv[0] == "check":
                assert type(value["stats"]["elapsed_ms"]) is float


def test_json_writer_hands_other_values_to_json():
    from preimages.report import dumps
    notes = ('say "no"', "a\\b", "tab\tand\nline", "bell\x07", "del\x7f", "naïve", "Černý",
             "\u2028", "")
    for note in notes:
        report = preimages.WitnessReport("extend", "no", 1, stats={"nodes": 2}, note=note)
        assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True,
                                              indent=2) + "\n", note
    for value in ({}, [], {"a": {}, "b": []}, (1, ("x",)), {"x": [notes, {"y": notes}]},
                  [1.5, -0.0, 1e300, 2 ** 70, float("inf"), float("-inf")], {3: "k", 1: [2]},
                  [[], [[{}]], {"z": None, "a": True, "m": False}]):
        assert dumps(value) == json.dumps(value, sort_keys=True, indent=2), value
    assert dumps([float("nan")]) == "[\n  NaN\n]"
    for value in ({1, 2}, [object()], {"a": {None: 1, "b": 2}}):
        with pytest.raises(TypeError):
            dumps(value)


def test_classify_and_rank_and_reset(files, capsys):
    code, out, _ = run(capsys, "classify", files["cerny4"], "--json")
    assert code == 0
    info = json.loads(out)
    assert info == {"strongly_connected": True, "synchronizing": True,
                    "permutation": False, "sink_state": None}

    code, out, _ = run(capsys, "classify", files["cerny4"])
    assert (code, out) == (0, "strongly-connected: yes\nsynchronizing: yes\npermutation: no\n"
                              "sink-state: none\n")

    code, out, _ = run(capsys, "rank", files["perm3"], "--json")
    assert code == 0 and json.loads(out)["rank"] == 3

    _, out, _ = run(capsys, "rank", files["cerny4"], "--json")
    found = json.loads(out)
    code, out, _ = run(capsys, "rank", files["cerny4"])
    assert found["rank"] == 1 and found["image"] == [0]
    assert (code, out) == (0, f"rank: 1\nword: {found['word']}\nimage: {{0}}\n")

    code, out, _ = run(capsys, "reset", files["cerny4"], "--method", "oracle")
    assert code == 0 and "length: 9" in out

    code, out, _ = run(capsys, "reset", files["perm3"])
    assert code == 1


def test_oracle_command(files, capsys):
    code, out, _ = run(capsys, "oracle", files["cerny4"], "--subset", "1,2",
                       "--goal", "extending", "--witness", "--json")
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["witness"] == "ba"

    code, _, _ = run(capsys, "oracle", files["perm3"], "--subset", "0", "--goal", "avoiding")
    assert code == 1


def test_gadget_commands(files, capsys, tmp_path):
    code, out, _ = run(capsys, "gadget", "binarize", files["perm3"], "--subset", "0")
    assert code == 0 and out.startswith("6 2")

    code, out, _ = run(capsys, "gadget", "sink", files["cerny4"])
    assert code == 0 and out.startswith("13 2")

    code, out, _ = run(capsys, "gadget", "large-extend", files["chain2"],
                       "--subset", "1", "--target", "0")
    assert code == 0 and out.startswith("4 2")

    code, out, _ = run(capsys, "gadget", "intersection",
                       "--dfa", files["chain2"], "0", "1",
                       "--output", str(tmp_path / "g.aut"))
    assert code == 0
    assert (tmp_path / "g.aut").read_text().startswith("11 3")

    code, _, err = run(capsys, "gadget", "intersection")
    assert code == 3
    for kind in ("binarize", "sink", "large-extend"):
        code, out, err = run(capsys, "gadget", kind)
        assert (code, out, err) == (3, "", f"error: gadget {kind} needs an automaton file\n")


def test_gadget_intersection_names_a_bad_initial_state(files, capsys):
    for initial in ("x", "-1", "1.5"):
        code, out, err = run(capsys, "gadget", "intersection", "--dfa", files["chain2"], initial,
                             "1")
        assert code == 3 and out == "" and err == f"error: bad initial state {initial!r}\n"
    code, _, err = run(capsys, "gadget", "intersection", "--dfa", files["chain2"], "2", "1")
    assert code == 3 and "initial state 2 out of range" in err


def test_gadget_intersection_rejects_an_untrimmed_dfa(files, capsys):
    # From state 0 of u = "2 1 / 0 / 1" state 1 is out of reach, and the gadget
    # built on it would not be strongly connected; it is refused, not trimmed,
    # since trimming renumbers the d{i}:{q} state names.  From chain2's state
    # 1, state 0 is out of reach.
    untrimmed = Path(files["dir"]) / "u.aut"
    untrimmed.write_text("2 1\n0\n1\n")
    for dfas, path, state, initial in (
            (("--dfa", str(untrimmed), "0", "0"), str(untrimmed), 1, 0),
            (("--dfa", files["chain2"], "0", "1", "--dfa", files["chain2"], "1", "1"),
             files["chain2"], 0, 1)):
        code, out, err = run(capsys, "gadget", "intersection", *dfas)
        assert (code, out) == (3, "") and err == (
            f"error: {path}: state {state} cannot be reached from initial state {initial}; "
            "gadget intersection needs trimmed inputs\n")


def test_gadget_and_random_arguments_are_usage_errors(files, capsys):
    ternary = Path(files["dir"]) / "ternary.aut"
    ternary.write_text(serialize_automaton(random_automaton(3, 3, seed=1)))
    code, out, err = run(capsys, "gadget", "sink", str(ternary))
    assert code == 3 and out == "" and err == "error: sink_binarize expects a binary automaton\n"
    code, out, err = run(capsys, "gadget", "large-extend", files["chain2"], "--subset", "1",
                         "--target", "5")
    assert code == 3 and out == "" and err == "error: anchor state 5 out of range\n"
    for states, letters in (("0", "2"), ("3", "0"), ("-1", "2")):
        code, out, err = run(capsys, "random", "--states", states, "--letters", letters,
                             "--seed", "1")
        assert code == 3 and out == "" and "must be an integer >= 1" in err


def test_a_constraint_no_draw_meets_is_a_usage_error(capsys, monkeypatch):
    # With one letter a strongly connected draw must be an n-cycle, so nine
    # states meet the constraint with probability 8!/9^9: the rejection cap
    # ends the draw, and the request, not the program, is at fault.
    code, out, err = run(capsys, "random", "--states", "9", "--letters", "1", "--seed", "597185",
                         "--constraint", "strongly-connected")
    assert (code, out) == (3, "") and err == (
        "error: could not draw a strongly-connected automaton with n=9, k=1 in 10000 attempts\n")
    monkeypatch.setattr(gadgets_mod, "REJECTION_CAP", 0)
    for constraint in ("none", "synchronizing"):
        code, out, err = run(capsys, "random", "--states", "3", "--letters", "2", "--seed", "1",
                             "--constraint", constraint)
        assert (code, out) == (3, "") and err == (
            f"error: could not draw a {constraint} automaton with n=3, k=2 in 0 attempts\n")
    code, _, _ = run(capsys, "random", "--states", "3", "--letters", "2", "--seed", "1",
                     "--constraint", "permutation")
    assert code == 0  # drawn directly, with no rejection


def test_random_command_is_deterministic(capsys):
    _, first, _ = run(capsys, "random", "--states", "6", "--letters", "2", "--seed", "42")
    _, second, _ = run(capsys, "random", "--states", "6", "--letters", "2", "--seed", "42")
    assert first == second and first.startswith("6 2")


@pytest.mark.parametrize("seed, digest", [
    (1, "06a081d9e27f8c827a610973b79d84cfb501798ebec34c24d886cf4f52e6d53d"),
    (2, "f6aa607d4c6851344f968a2bcd859e8f7cbf49cd38967a50adf66b783dc19eff"),
    (3, "1bee4c45e39021a0206c9bc029bdfb1cbe9c339552577c4b8b16f04ebfed04fb"),
])
def test_random_synchronizing_output_is_pinned(capsys, seed, digest):
    # SHA-256 of the output recorded while synchronization still came from
    # the pair table alone: the reset-word certificate that now answers first
    # must draw nothing from the generator's random state.
    code, out, _ = run(capsys, "random", "--states", "200", "--letters", "2", "--seed", str(seed),
                       "--constraint", "synchronizing")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_error_exit_codes(files, capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.aut"),
                       "--subset", "0", "--problem", "extend")
    assert code == 4

    bad = tmp_path / "bad.aut"
    bad.write_text("2 1\n2\n0")
    code, _, err = run(capsys, "check", str(bad), "--subset", "0", "--problem", "extend")
    assert code == 4 and "line 2" in err

    code, _, _ = run(capsys, "check", files["cerny4"], "--subset", "9",
                     "--problem", "extend")
    assert code == 3

    code, _, _ = run(capsys, "check", files["cerny4"], "--subset", "0",
                     "--problem", "compress")
    assert code == 3

    # Any file the OS cannot open, read or write is an input error.
    for path in (files["cerny4"] + "/x", str(tmp_path / ("n" * 300))):
        code, out, err = run(capsys, "check", path, "--subset", "0", "--problem", "extend")
        assert code == 4 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, "gadget", "sink", files["perm3"],
                       "--output", files["cerny4"] + "/out")
    assert code == 4 and err.startswith("error: ")


def test_failed_reverification_is_an_internal_error(files, capsys, monkeypatch):
    from preimages import Word, extend, pairs

    monkeypatch.setattr(extend, "shortest_extending_word_small", lambda *a, **kw: Word([0]))
    code, out, err = run(capsys, "check", files["cerny4"], "--subset", "0", "--problem", "extend")
    assert code == 5 and out == ""
    assert err == "internal error: witness 'a' failed re-verification\n"

    monkeypatch.setattr(pairs, "greedy_reset_word", lambda aut: Word([]))
    code, out, err = run(capsys, "reset", files["cerny4"])
    assert code == 5 and out == ""
    assert err == "internal error: reset word failed re-verification\n"

    rank = pairs.minimal_rank_word(cerny_automaton(4))
    for wrong in (rank._replace(word=Word([0])), rank._replace(rank=2)):
        monkeypatch.setattr(pairs, "minimal_rank_word", lambda aut, wrong=wrong: wrong)
        code, out, err = run(capsys, "rank", files["cerny4"], "--json")
        assert code == 5 and out == ""
        assert err == "internal error: rank word failed re-verification\n"

    # Any other exception is a fault too, never a "no" (exit 1) nor a usage
    # error (exit 3), a ValueError included; one with no text is named by
    # its type.
    for fault, text in ((AssertionError(), "AssertionError"), (KeyError(7), "7"),
                        (ValueError("index 3 not in row"), "index 3 not in row"),
                        (NotSynchronizingError("not synchronizing"), "not synchronizing")):
        def failing(*args, fault=fault, **kwargs):
            raise fault

        monkeypatch.setattr(extend, "shortest_extending_word_small", failing)
        code, out, err = run(capsys, "check", files["cerny4"], "--subset", "0", "--problem", "extend")
        assert code == 5 and out == ""
        assert err == f"internal error: {text}\n"


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.aut"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "check", str(path), "--subset", "0", "--problem", "extend")
    assert code == 4 and "error" in err


def test_file_entries_and_subsets_are_ascii_decimal(files, tmp_path, capsys):
    # int() alone reads "+1" as 1 and the Arabic-Indic "\u0660" as 0.
    odd = tmp_path / "odd.aut"
    for token in ("+1", "\u0660", "1_0"):
        odd.write_text(f"2 1\n{token}\n1\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(odd), "--subset", "0", "--problem", "extend")
        assert (code, out) == (4, "")
        assert err == f"error: line 2: expected transition (0,0), got {token!r}\n"
        code, out, err = run(capsys, "check", files["chain2"], "--subset", f"0,{token}",
                             "--problem", "extend")
        assert (code, out) == (3, "")
        assert err == f"error: bad subset '0,{token}': expected comma-separated state indices\n"
    code, out, err = run(capsys, "check", files["chain2"], "--subset=-1", "--problem", "extend")
    assert (code, out, err) == (3, "", "error: state -1 out of range [0, 2)\n")
    code, out, err = run(capsys, "gadget", "intersection", "--dfa", files["chain2"], "\u0660", "1")
    assert (code, out, err) == (3, "", "error: bad initial state '\u0660'\n")


def test_nonpositive_budget_is_a_usage_error(files, capsys):
    for value in ("0", "-5"):
        for command in (("check", "--problem", "extend"), ("oracle", "--goal", "extending")):
            code, out, _ = run(capsys, command[0], files["cerny4"], "--subset", "1,2",
                               *command[1:], "--budget", value)
            assert code == 3 and out == ""


def test_negative_max_len_is_a_usage_error(files, capsys):
    for command in (("check", "--problem", "extend"), ("oracle", "--goal", "extending")):
        code, out, _ = run(capsys, command[0], files["cerny4"], "--subset", "1,2",
                           *command[1:], "--max-len", "-1")
        assert code == 3 and out == ""
    code, _, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                     "--problem", "extend", "--max-len", "0")
    assert code == 1


def test_integer_flags_and_variables_are_ascii_decimal(files, capsys, monkeypatch):
    # int() reads each of these values, and PREIMAGES_BUDGET=1_0 as 10; each is
    # a usage error instead, and negative --seed and --target values still parse.
    check = ("check", files["cerny4"], "--subset", "1,2", "--problem", "extend")
    for argv in ((*check, "--budget", "\u0661"), (*check, "--max-len", "+1"),
                 ("random", "--states", "\uff13", "--letters", "2", "--seed", "1"),
                 ("random", "--states", "3", "--letters", "2", "--seed", "+5"),
                 ("gadget", "large-extend", files["chain2"], "--target", "0_0")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "not a decimal integer" in err, argv
    monkeypatch.setenv("PREIMAGES_BUDGET", "1_0")
    code, out, err = run(capsys, *check)
    assert (code, out, err) == (
        3, "", "error: environment variable PREIMAGES_BUDGET not a decimal integer: '1_0'\n")
    monkeypatch.delenv("PREIMAGES_BUDGET")
    code, out, _ = run(capsys, "random", "--states", "3", "--letters", "2", "--seed", "-5")
    assert code == 0 and out.startswith("3 2\n")
    code, _, err = run(capsys, "gadget", "large-extend", files["chain2"], "--target", "-1")
    assert (code, err) == (3, "error: anchor state -1 out of range\n")


def test_env_budget_override(files, capsys, monkeypatch):
    monkeypatch.setenv("PREIMAGES_BUDGET", "2")
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "extend", "--method", "poly", "--json")
    assert code == 2
    monkeypatch.setenv("PREIMAGES_BUDGET", "not-a-number")
    code, _, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                     "--problem", "extend")
    assert code == 3


def test_human_output_mentions_answer(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "extend", "--witness")
    assert code == 0
    assert "answer: yes" in out and "witness: ba" in out


def test_invalid_environment_limits_are_usage_errors(files, capsys, monkeypatch):
    args = ("check", files["cerny4"], "--subset", "1,2", "--problem", "extend", "--json")
    for name, value in (("PREIMAGES_BUDGET", "0"), ("PREIMAGES_BUDGET", "-4"),
                        ("PREIMAGES_ORACLE_CAP", "-1")):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *args)
        assert code == 3 and out == "" and name in err
        monkeypatch.delenv(name)
    monkeypatch.setenv("PREIMAGES_ORACLE_CAP", "0")
    code, out, _ = run(capsys, *args[:-1], "--method", "oracle", "--json")
    assert code == 2 and "exceeds cap 0" in json.loads(out)["note"]


def test_oracle_budget_counts_subsets_up_to_the_first_witness(files, capsys):
    # The witness "ba" is the fourth subset generated; the rest of the power
    # set is never built, so a budget of 4 decides the query.
    args = ("check", files["cerny4"], "--subset", "1,2", "--problem", "extend",
            "--method", "oracle", "--json", "--witness", "--budget")
    code, out, _ = run(capsys, *args, "4")
    report = json.loads(out)
    assert code == 0 and report["answer"] == "yes" and report["witness"] == "ba"
    code, out, _ = run(capsys, *args, "3")
    assert code == 2 and json.loads(out)["answer"] == "unknown-budget"


def test_one_query_generates_at_most_its_budget(files, capsys, monkeypatch):
    # Every subset search of a query runs under search.race, the one place
    # that charges nodes, and a query runs one race with the whole of
    # --budget: the avoid and extend-total searches, and the depth-cut search
    # behind --max-len, race each other in it.  No query generates more
    # subsets than --budget, and stats.nodes counts those it generated.
    runs = []

    def counting(entries, budget, stats=None, max_len=None):
        entries = list(entries)
        before = stats.get("nodes", 0)
        runs.append([budget, len(entries), 0])
        try:
            answer = race(entries, budget, stats, max_len)
        except BudgetExceededError as exc:
            runs[-1][2] = exc.nodes - 1  # the subset past the budget is refused
            raise
        runs[-1][2] = stats["nodes"] - before
        return answer

    race = search_mod.race
    for module in (search_mod, avoid_mod):
        monkeypatch.setattr(module, "race", counting)
    raced = 0
    for name, subset, problem in (("cerny4", "0", "extend-total"), ("cerny4", "1,2", "avoid"),
                                  ("cerny4", "0,1,2", "avoid"), ("chain2", "0", "avoid")):
        for budget, max_len in itertools.product(range(1, 13), (None, 0, 1, 2, 3)):
            del runs[:]
            bound = () if max_len is None else ("--max-len", str(max_len))
            code, out, _ = run(capsys, "check", files[name], "--subset", subset, "--problem",
                               problem, "--budget", str(budget), *bound, "--witness", "--json")
            report = json.loads(out)
            where = (name, subset, problem, budget, max_len, runs, report)
            assert len(runs) == 1 and runs[0][0] == budget and runs[0][2] <= budget, where
            if code != 2:
                assert report["stats"]["nodes"] == runs[0][2], where
            raced += runs[0][1] > 1
    assert raced > 100


def test_extend_out_of_budget_runs_one_search(files, capsys, monkeypatch):
    # Extend's search is the oracle's backward search from S, so --method
    # auto does not rerun it through the oracle after it runs out of budget.
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(extend_mod, "subset_bfs")
    counting(oracle_mod, "backward_subset_bfs")
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "extend", "--budget", "3", "--json")
    report = json.loads(out)
    assert calls == ["subset_bfs"]
    assert code == 2 and report["answer"] == "unknown-budget"
    assert report["method"] == "poly" and report["note"] == "node budget exceeded"


def test_validate_report_rejects_a_method_outside_the_schema(files, capsys):
    # An earlier version printed this report with "method": "auto", the
    # command-line choice, instead of the route that ran.
    _, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                    "--problem", "extend", "--budget", "3", "--json")
    report = json.loads(out)
    for method in ("poly", "oracle", "fast-path", None):
        validate_report(dict(report, method=method))
    for method in ("auto", "", 3):
        with pytest.raises(ValueError):
            validate_report(dict(report, method=method))


def _python(*args: str, env=(), **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this checkout's package, with
    the variables ``env`` added to its environment; ``kwargs`` go to ``subprocess.run``."""
    package_root = str(Path(preimages.__file__).resolve().parent.parent)
    env = dict(os.environ, **dict(env))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def _fresh_python(code: str, *argv: str):
    """Run ``code`` in a new interpreter that imports this checkout's package;
    returns the last line it prints, parsed as JSON."""
    done = _python("-c", code, *argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# The two ways to start a query process: ``python -m preimages.cli`` and the
# ``preimages`` console script, whose wrapper calls ``sys.exit(run())``.
_ENTRY_POINTS = {
    "module": ("-m", "preimages.cli"),
    "script": ("-c", "import sys; from preimages.cli import run; sys.exit(run())"),
}
# Either buffering of the standard streams: a pipe is block-buffered unless
# PYTHONUNBUFFERED is set, and then a write fails or succeeds at once.
_BUFFERING = {"buffered": {"PYTHONUNBUFFERED": ""}, "unbuffered": {"PYTHONUNBUFFERED": "1"}}


def _queries(files):
    """A query for each exit code from 0 to 4, and the help."""
    cerny4 = (files["cerny4"], "--subset", "1,2")
    return {
        "yes": ("check", *cerny4, "--problem", "extend", "--witness", "--json"),
        "no": ("check", files["perm3"], "--subset", "0", "--problem", "extend"),
        "unknown": ("check", *cerny4, "--problem", "extend", "--budget", "3"),
        "usage": ("check", *cerny4),
        "subset": ("check", files["cerny4"], "--subset", "9", "--problem", "extend"),
        "data": ("check", files["cerny4"] + ".missing", "--subset", "0", "--problem", "extend"),
        "help": ("check", "-h"),
    }


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@pytest.mark.parametrize("buffering", _BUFFERING)
def test_a_query_process_exits_as_main_returns(files, capsys, entry, buffering):
    # The process ends by os._exit once its answer is flushed; what it prints
    # and its exit code are those of main() called in-process.
    codes = set()
    for argv in _queries(files).values():
        done = _python(*_ENTRY_POINTS[entry], *argv, env=_BUFFERING[buffering],
                       capture_output=True, text=True)
        expected = run(capsys, *argv)
        assert (done.returncode, done.stdout, done.stderr) == expected, argv
        codes.add(done.returncode)
    assert codes == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("buffering", _BUFFERING)
def test_an_answer_larger_than_a_pipe_buffer_arrives_whole(tmp_path, capsys, buffering):
    cerny = tmp_path / "cerny256.aut"
    cerny.write_text(serialize_automaton(cerny_automaton(256)))
    done = _python("-m", "preimages.cli", "reset", str(cerny), env=_BUFFERING[buffering],
                   capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, "reset", str(cerny))
    assert done.stdout.endswith("\nlength: 199426\n") and len(done.stdout) > 1 << 16


def test_atexit_callbacks_run_before_the_streams_are_flushed(files):
    code = ("import atexit, sys; from preimages.cli import run; "
            "atexit.register(print, 'atexit ran'); run()")
    done = _python("-c", code, "check", files["perm3"], "--subset", "0", "--problem", "extend",
                   env=_BUFFERING["buffered"], capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout.endswith("answer: no\nmethod: fast-path\natexit ran\n")


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_a_traced_or_profiled_process_exits_by_system_exit(files, hook):
    # Code after run() is reached only when it raises SystemExit, which lets
    # a tracer or profiler write its report; untraced, run() never returns.
    code = ("import sys; from preimages.cli import run\n"
            "if sys.argv.pop(1) == 'hook': sys.{}(lambda *a: None)\n"
            "try: run()\n"
            "except SystemExit as exc: print('SystemExit', exc.code)").format(hook)
    argv = ("check", files["perm3"], "--subset", "0", "--problem", "extend")
    traced = _python("-c", code, "hook", *argv, capture_output=True, text=True)
    assert traced.returncode == 0 and traced.stdout.endswith("fast-path\nSystemExit 1\n")
    plain = _python("-c", code, "plain", *argv, capture_output=True, text=True)
    assert plain.returncode == 1 and plain.stdout.endswith("fast-path\n")


def test_cprofile_still_prints_its_stats(files):
    done = _python("-m", "cProfile", "-m", "preimages.cli", "check", files["cerny4"],
                   "--subset", "1,2", "--problem", "extend", capture_output=True, text=True)
    assert done.stdout.startswith("problem: extend\nanswer: yes\n")
    assert "function calls" in done.stdout and "Ordered by" in done.stdout


def _into_a_closed_pipe(*args: str, env=(), stream: str = "stdout") -> subprocess.CompletedProcess:
    """``_python(*args)`` with ``stream`` writing to a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    other = "stderr" if stream == "stdout" else "stdout"
    try:
        return _python(*args, env=env, **{stream: write, other: subprocess.PIPE}, text=True)
    finally:
        os.close(write)


@pytest.mark.parametrize("buffering", _BUFFERING)
def test_a_broken_stdout_never_reads_as_an_answer(files, tmp_path, buffering):
    # Exit 0 would read "yes" and 1 "no".  A write that fails at once and a
    # buffered answer whose flush in main() fails are both input/output
    # errors (exit 4), reported once.
    cerny = tmp_path / "cerny256.aut"
    cerny.write_text(serialize_automaton(cerny_automaton(256)))
    queries = _queries(files)
    for argv in (queries["yes"], queries["no"], queries["help"], ("-h",), ("reset", str(cerny))):
        done = _into_a_closed_pipe("-m", "preimages.cli", *argv, env=_BUFFERING[buffering])
        assert done.returncode == 4 and done.stderr == "error: [Errno 32] Broken pipe\n", argv


@pytest.mark.parametrize("buffering", _BUFFERING)
def test_a_broken_stderr_never_reads_as_an_answer(files, buffering):
    queries = _queries(files)
    for name in ("usage", "subset", "data"):
        done = _into_a_closed_pipe("-m", "preimages.cli", *queries[name],
                                   env=_BUFFERING[buffering], stream="stderr")
        assert done.returncode not in (0, 1) and done.stdout == "", name


def test_cli_import_leaves_fractions_unloaded():
    # Every query process pays for what preimages.cli imports; fractions
    # (with decimal and numbers) is not needed on any route.
    assert _fresh_python("import sys, preimages.cli; print(int('fractions' in sys.modules))") == 0


# json is imported only after the last measurement, to print what was found.
_IMPORT_PROBE = """
import sys
heavy = lambda: sorted({"dataclasses", "inspect", "argparse", "gettext", "locale", "json"}
                       & set(sys.modules))
ours = lambda: sorted(m for m in sys.modules if m.startswith("preimages."))
found = {"startup": heavy()}
import preimages
found["package"] = ours()
import preimages.cli
found["cli"], found["cli_heavy"] = ours(), heavy()
found["cli_array"] = "array" in sys.modules
found["code"] = preimages.cli.main(sys.argv[1:])
found["query"], found["query_heavy"] = ours(), heavy()
import json
print(json.dumps(found))
"""


def _probe(*argv):
    """``_IMPORT_PROBE`` on ``argv``: neither ``import preimages.cli`` nor the query loads
    dataclasses, inspect, argparse, gettext, locale or json beyond what start-up loaded."""
    found = _fresh_python(_IMPORT_PROBE, *argv)
    assert found["cli_heavy"] == found["query_heavy"] == found["startup"], argv
    return found


def test_check_classify_and_rank_load_no_json_and_the_cli_no_array(files):
    # Reports are written by report.dumps, and array is imported only by the
    # flat subset store (extend here) and the pair table (avoid and rank).
    for argv in (("check", files["cerny4"], "--subset", "1,2", "--problem", "resize",
                  "--witness", "--json", "--timing"),
                 ("check", files["cerny4"], "--subset", "1,2", "--problem", "extend",
                  "--witness", "--json"),
                 ("check", files["cerny4"], "--subset", "0,1,2", "--problem", "avoid",
                  "--witness", "--json"),
                 ("classify", files["cerny4"], "--json"), ("rank", files["cerny4"], "--json")):
        found = _probe(*argv)
        assert found["code"] in (0, 1) and "json" not in found["query_heavy"], argv
        assert found["cli_array"] is False, argv


def test_a_process_imports_only_the_modules_its_route_runs(files, capsys):
    found = _probe("check", files["cerny4"], "--subset", "0,1,2,3", "--problem", "resize",
                   "--witness")
    assert found["package"] == []
    # Neither the subset kernel (search) nor the commands that answer no query
    # (commands) load with the CLI.
    assert found["cli"] == ["preimages." + m for m in
                            ("automaton", "cli", "errors", "fileformat", "report")]
    assert found["code"] == 1
    assert "preimages.resize" in found["query"]
    for unused in ("oracle", "gadgets", "avoid", "extend", "pairs", "commands"):
        assert "preimages." + unused not in found["query"]
    # Extend and avoid run the subset kernel, never the oracle's searches,
    # which bench/spans.py times by name; nor does extend fall back to the
    # oracle when it runs out of budget.  Only avoid needs a minimal-rank
    # word, and so the pair machinery.
    for problem, subset, budget, code in (("extend", "1,2", "50", 0), ("extend", "1,2", "3", 2),
                                          ("avoid", "0,1,2", "50", 0),
                                          ("resize", "1,2", "50", 0)):
        found = _probe("check", files["cerny4"], "--subset", subset, "--problem", problem,
                       "--witness", "--budget", budget)
        assert found["code"] == code and "preimages." + problem in found["query"]
        assert "preimages.search" in found["query"], (problem, budget)
        assert "preimages.oracle" not in found["query"], (problem, budget)
        assert "preimages.commands" not in found["query"], (problem, budget)
        assert ("preimages.pairs" in found["query"]) == (problem == "avoid"), (problem, budget)
    # Both extend-total routes, the decision and the search for a witness,
    # need the pair machinery; the oracle does not.
    for flags in ((), ("--witness",)):
        found = _probe("check", files["cerny4"], "--subset", "0", "--problem", "extend-total",
                       *flags)
        assert found["code"] == 0 and "preimages.pairs" in found["query"], flags
    for problem in PROBLEMS:
        found = _probe("check", files["cerny4"], "--subset", "1,2", "--problem", problem,
                       "--method", "oracle", "--witness")
        assert "preimages.oracle" in found["query"], problem
        assert "preimages.pairs" not in found["query"], problem
    # The permutation route answers every problem without a search module or
    # the subset kernel.
    for problem in ("extend", "extend-total", "avoid", "resize"):
        found = _probe("check", files["perm3"], "--subset", "0", "--problem", problem,
                       "--witness")
        assert found["code"] == 1 and found["query"] == found["cli"], problem
        assert "preimages.search" not in found["query"], problem
    # The oracle command and both reset methods never load ``commands``.
    for argv in (("oracle", files["cerny4"], "--subset", "1,2", "--goal", "extending"),
                 ("reset", files["cerny4"]), ("reset", files["cerny4"], "--method", "oracle")):
        found = _probe(*argv)
        assert found["code"] == 0 and "preimages.commands" not in found["query"], argv
    # classify, rank, gadget and random do, and print what they printed when
    # they lived in cli.py: the digest was recorded before the move.
    digest = hashlib.sha256()
    for argv in (("classify", files["cerny4"]), ("classify", files["perm3"], "--json"),
                 ("rank", files["cerny4"]), ("rank", files["chain2"], "--json"),
                 ("gadget", "sink", files["cerny4"]),
                 ("gadget", "binarize", files["perm3"], "--subset", "0"),
                 ("random", "--states", "5", "--letters", "2", "--seed", "7", "--constraint",
                  "synchronizing")):
        found = _fresh_python(_IMPORT_PROBE, *argv)  # gadgets loads dataclasses
        assert found["code"] == 0 and "preimages.commands" in found["query"], argv
        code, out, err = run(capsys, *argv)
        assert err == "", argv
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "115bf2ca5bf1bd488840ce4c83c967a532266e7cf012a965c3741fa1d2c401ea"


def test_cli_py_is_compiled_once_per_process(files):
    # Under ``python -m preimages.cli`` the file runs as ``__main__``; a module
    # that imported ``preimages.cli`` would compile and run it a second time,
    # and -X importtime would list it.
    for argv in (("check", files["cerny4"], "--subset", "1,2", "--problem", "extend"),
                 ("classify", files["cerny4"])):
        done = _python("-X", "importtime", "-m", "preimages.cli", *argv, capture_output=True,
                       text=True)
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")]
        assert done.returncode == 0 and "preimages.automaton" in imported, argv
        assert "preimages.cli" not in imported, argv
        assert ("preimages.commands" in imported) == (argv[0] == "classify"), argv


_PUBLIC_NAMES = {
    "Automaton", "StateSet", "Word", "SccDecomposition", "apply_word", "preimage_word", "scc",
    "is_strongly_connected", "is_permutation_automaton", "sink_state",
    "PairTable", "RankResult", "pair_table", "is_synchronizing", "greedy_reset_word",
    "minimal_rank_word", "avoidable_state", "shortest_extending_word_small",
    "totally_extending_word_small", "totally_extensible_synchronizing", "avoiding_word",
    "RationalBasis", "shortest_resizing_word",
    "resizable_decision_fast", "SubsetBfsResult", "backward_subset_bfs", "forward_subset_bfs",
    "oracle_shortest", "oracle_shortest_reset", "DfaWithAcceptance",
    "GadgetOutput", "intersection_gadget", "binarize", "sink_binarize", "large_extend_gadget",
    "random_automaton", "languages_intersect", "parse_automaton", "parse_automaton_file",
    "serialize_automaton", "serialize_gadget", "AutomatonFormatError", "WitnessReport",
    "validate_report", "witness_holds", "BudgetExceededError", "NotSynchronizingError",
    "DEFAULT_NODE_BUDGET", "DEFAULT_ORACLE_STATE_CAP", "cerny_automaton", "perm3", "chain2",
}


def test_package_namespace_is_lazy_and_complete():
    assert len(preimages.__all__) == len(set(preimages.__all__)) == len(_PUBLIC_NAMES) == 52
    assert set(preimages.__all__) == _PUBLIC_NAMES
    submodules = [importlib.import_module("preimages." + m) for m in (
        "automaton", "avoid", "errors", "extend", "fileformat", "gadgets", "oracle", "pairs",
        "reference", "report", "resize", "search")]
    for name in preimages.__all__:
        value = getattr(preimages, name)
        assert any(vars(m).get(name) is value for m in submodules), name
    namespace: dict = {}
    exec("from preimages import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(preimages.__all__)
    assert set(preimages.__all__) <= set(dir(preimages))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(preimages, "no_such_name")
    assert _fresh_python("import json, sys, preimages\n"
                         "from preimages import pairs\n"
                         "print(json.dumps([pairs.__name__, pairs is sys.modules[pairs.__name__],"
                         " hasattr(pairs, 'pair_table')]))") == ["preimages.pairs", True, True]


def test_records_keep_value_semantics():
    for make, fields in (
            (preimages.minimal_rank_word, ("word", "image", "rank", "classes")),
            (preimages.scc, ("component_of", "components", "sink_flags"))):
        one, two = make(cerny_automaton(4)), make(cerny_automaton(4))
        assert one is not two and one == two and hash(one) == hash(two)
        assert repr(one) == (type(one).__name__ + "("
                             + ", ".join(f"{f}={getattr(one, f)!r}" for f in fields) + ")")
        with pytest.raises(AttributeError):
            setattr(one, fields[0], None)


def test_report_dict_is_a_copy_and_json_is_pinned():
    fields = {"problem": "extend", "answer": "yes", "subset_size": 2, "method": "poly",
              "witness": "ba", "witness_length": 2, "preimage_size": 3, "stats": {"nodes": 5},
              "classification": {"synchronizing": True}}
    report = preimages.WitnessReport(**fields)
    d = report.to_dict()
    d["stats"]["nodes"] = 99
    d["classification"].clear()
    assert report.stats == {"nodes": 5} and report.classification == {"synchronizing": True}
    for extra in ({}, {"max_len": 4, "note": "why"}):
        report = preimages.WitnessReport(**fields, **extra)
        assert report.to_json() == json.dumps(dict(fields, **extra), sort_keys=True,
                                              indent=2) + "\n"
    assert preimages.WitnessReport("avoid", "no", 1).to_dict() == {
        "problem": "avoid", "answer": "no", "subset_size": 1, "method": None, "witness": None,
        "witness_length": None, "preimage_size": None, "stats": {}, "classification": {}}


def test_route_functions_are_looked_up_at_call_time(files, capsys, monkeypatch):
    # bench/spans.py wraps these module functions after preimages.cli is
    # imported, and the set-up timing calls preimages.cli.parse_automaton_file.
    from preimages import avoid, cli, extend, fileformat, oracle, resize
    assert cli.parse_automaton_file is fileformat.parse_automaton_file
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((resize, "shortest_resizing_word"),
                         (extend, "shortest_extending_word_small"),
                         (extend, "totally_extensible_synchronizing"),
                         (avoid, "avoiding_word"), (oracle, "oracle_shortest"),
                         (oracle, "oracle_shortest_reset")):
        counting(module, name)
    for argv, name in (
            (("check", files["cerny4"], "--subset", "1,2", "--problem", "resize", "--witness"),
             "shortest_resizing_word"),
            (("check", files["cerny4"], "--subset", "1,2", "--problem", "extend"),
             "shortest_extending_word_small"),
            (("check", files["cerny4"], "--subset", "1,2", "--problem", "extend-total"),
             "totally_extensible_synchronizing"),
            (("check", files["chain2"], "--subset", "0", "--problem", "avoid", "--witness"),
             "avoiding_word"),
            (("check", files["cerny4"], "--subset", "1,2", "--problem", "extend", "--method",
              "oracle"), "oracle_shortest"),
            (("reset", files["cerny4"], "--method", "oracle"), "oracle_shortest_reset")):
        del calls[:]
        run(capsys, *argv)
        assert calls == [name], argv


def test_reset_oracle_honours_environment_budget(files, capsys, monkeypatch):
    monkeypatch.setenv("PREIMAGES_BUDGET", "3")
    code, out, err = run(capsys, "reset", files["cerny4"], "--method", "oracle")
    assert code == 2 and out == "" and "node limit 3" in err
    monkeypatch.setenv("PREIMAGES_BUDGET", "0")
    code, out, err = run(capsys, "reset", files["cerny4"], "--method", "oracle")
    assert code == 3 and "PREIMAGES_BUDGET" in err
    code, out, _ = run(capsys, "reset", files["cerny4"])  # greedy takes no budget
    assert code == 0
    monkeypatch.delenv("PREIMAGES_BUDGET")
    code, out, _ = run(capsys, "reset", files["cerny4"], "--method", "oracle")
    assert code == 0 and "length: 9" in out


def test_negative_oracle_cap_is_a_usage_error(files, capsys):
    for command in (("check", "--subset", "1,2", "--problem", "extend", "--method", "oracle"),
                    ("oracle", "--subset", "1,2", "--goal", "extending"),
                    ("reset", "--method", "oracle")):
        code, out, _ = run(capsys, command[0], files["cerny4"], *command[1:],
                           "--oracle-cap", "-3")
        assert code == 3 and out == ""


def _accepted_forms(files):
    """(canonical command line, its exit code, other spellings of it): ``--opt=value``,
    options before the positionals, unambiguous prefixes, repeats where the last one
    wins, ``--`` before the positionals, and negative numbers as values."""
    f, c2 = files["cerny4"], files["chain2"]
    return [
        (("check", f, "--subset", "1,2", "--problem", "extend", "--witness", "--json"), 0, [
            ("check", f, "--subset=1,2", "--problem=extend", "--witness", "--json"),
            ("check", "--subset", "1,2", "--problem", "extend", f, "--witness", "--json"),
            ("check", "--wit", f, "--sub", "1,2", "--prob", "extend", "--js"),
            ("check", f, "--subset", "0", "--problem", "avoid", "--subset", "1,2",
             "--problem", "extend", "--witness", "--json", "--witness"),
            ("check", "--subset", "1,2", "--problem", "extend", "--witness", "--json", "--", f),
        ]),
        (("check", f, "--subset", "1,2", "--problem", "resize", "--method", "oracle",
          "--max-len", "3", "--budget", "100", "--oracle-cap", "5", "--json"), 0, [
            ("check", f, "--subset", "1,2", "--problem", "resize", "--met=oracle", "--ma=3",
             "--b", "100", "--o", "5", "--js"),
            ("check", "--json", "--oracle-cap=5", "--budget=7", "--budget=100", "--max-len", "0",
             "--max-len", "3", "--method", "poly", "--method", "oracle", "--problem", "resize",
             "--subset", "1,2", f),
        ]),
        (("oracle", f, "--subset", "1,2", "--goal", "extending", "--witness"), 0, [
            ("oracle", "--goal=extending", "--subset=1,2", f, "--wit"),
            ("oracle", f, "--g", "avoiding", "--s", "1,2", "--goal", "extending", "--w"),
        ]),
        (("classify", f, "--json"), 0, [("classify", "--json", f), ("classify", f, "--j", "--j")]),
        (("rank", f, "--json"), 0, [("rank", "--json", f), ("rank", "--js", "--", f)]),
        (("reset", f, "--method", "oracle", "--oracle-cap", "4"), 0, [
            ("reset", "--method=oracle", "--oracle-cap=4", f),
            ("reset", "--m", "greedy", f, "--o", "1", "--m", "oracle", "--oracle", "4"),
        ]),
        (("gadget", "intersection", "--dfa", c2, "0", "1", "--dfa", c2, "0", "0"), 0, [
            ("gadget", "--dfa", c2, "0", "1", "intersection", "--dfa", c2, "0", "0"),
            ("gadget", "intersection", "--d", c2, "0", "1", "--d", c2, "0", "0"),
        ]),
        (("gadget", "large-extend", c2, "--subset", "1", "--target", "0"), 0, [
            ("gadget", "--subset=1", "--target=0", "large-extend", c2),
            ("gadget", "large-extend", c2, "--sub", "0", "--s", "1", "--t", "1", "--t", "0"),
        ]),
        (("random", "--states", "6", "--letters", "2", "--seed", "-3",
          "--constraint", "synchronizing"), 0, [
            ("random", "--seed=-3", "--states=6", "--letters=2", "--constraint=synchronizing"),
            ("random", "--st", "6", "--l", "2", "--se", "-3", "--c", "synchronizing"),
        ]),
    ]


def test_every_accepted_spelling_runs_the_canonical_command(files, capsys):
    for canonical, expected, forms in _accepted_forms(files):
        code, out, err = run(capsys, *canonical)
        assert code == expected and out and err == "", canonical
        for argv in forms:
            assert run(capsys, *argv) == (code, out, ""), argv


def test_every_rejected_command_line_prints_its_usage_line(files, capsys):
    f = files["cerny4"]
    query = ("--subset", "1,2", "--problem", "extend")
    for argv in ([], ["bogus", f], ["--bogus"], ["-x", "check"], ["Check", f, *query],
                 ["check", f, "--subset", "1,2"], ["check", *query], ["check", f, f, *query],
                 ["check", f, *query, "--bogus"], ["check", f, *query, "-x"],
                 ["check", f, *query, "--m", "auto"], ["check", f, *query, "--problem"],
                 ["check", f, "--subset", "--problem", "extend"],
                 ["check", f, "--problem", "extend", "--subset", "--", "1,2"],
                 ["check", f, "--subset", "1,2", "--problem", "compress"],
                 ["check", f, *query, "--budget", "0"], ["check", f, *query, "--budget", "x"],
                 ["check", f, *query, "--max-len", "-1"], ["check", f, *query, "--json=yes"],
                 ["check", f, *query, "--method", "fast"],
                 ["oracle", f, "--subset", "1,2", "--goal", "extend"],
                 ["oracle", f, "--subset", "1,2", "--goal", "extending", "--timing"],
                 ["oracle", f, "--subset", "1,2", "--goal", "extending", "--method", "auto"],
                 ["classify"], ["classify", f, "--witness"], ["rank", f, "rank"],
                 ["reset", f, "--budget", "5"], ["reset", f, "--method", "exact"],
                 ["gadget"], ["gadget", "bogus", f], ["gadget", "intersection", "--dfa", f, "0"],
                 ["gadget", "intersection", "--dfa", f, "0", "--subset", "1"],
                 ["gadget", "sink", f, "--target", "x"],
                 ["random", "--states", "6", "--letters", "2"],
                 ["random", "--states", "6", "--letters", "2", "--seed", "x"],
                 ["random", "--states", "6", "--letters", "2", "--seed", "1", "--constraint", "x"]):
        code, out, err = run(capsys, *argv)
        command = argv[0] if argv and argv[0] in _COMMANDS else ""
        assert code == 3 and out == "", argv
        assert err.startswith(f"usage: preimages {command}".rstrip()) and "\nerror: " in err, argv


def test_help_lists_every_command_and_option(capsys):
    for flag in ("-h", "--help", "--he"):
        code, out, err = run(capsys, flag)
        assert code == 0 and err == "" and out.startswith("usage: preimages")
        assert all(name in out for name in _COMMANDS), flag
    for name, (_, help_line, spec, _, _) in _COMMANDS.items():
        for argv in ((name, "-h"), (name, "--help", "--bogus"), (name, "--bogus", "-h")):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "" and out.startswith(f"usage: preimages {name}"), argv
            assert help_line in out and all(arg in out for arg in spec if arg[0] == "-"), argv


def _preimage(rows, s_bits, word):
    return sum(1 << q for q in range(len(rows))
               if (s_bits >> _run(rows, q, word)) & 1)


def _run(rows, q, word):
    for ch in word:
        q = rows[q][ord(ch) - ord("a")]
    return q


def _witness_ok(rows, s_bits, problem, word):
    n = len(rows)
    if problem == "avoid":
        return all(not (s_bits >> _run(rows, q, word)) & 1 for q in range(n))
    size, pre = s_bits.bit_count(), _preimage(rows, s_bits, word).bit_count()
    return {"extend": pre > size, "extend-total": pre == n, "resize": pre != size}[problem]


def test_router_matches_oracle_on_seeded_corpus(tmp_path, capsys):
    # The CLI router (fast paths, searches, the depth-cut search behind
    # --max-len) against the power-set oracle, under --method auto and its
    # synonym poly, and under --method oracle with a length bound, where the
    # oracle runs cut at it.  "unknown" is allowed only under --budget: the budget
    # variant is the oracle's own node count, and one query may share it
    # among searches that race.
    rng = random.Random(20240917)
    checked = 0
    for i in range(18):
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        constraint = ("none", "synchronizing", "permutation")[i % 3]
        aut = random_automaton(n, k, seed=rng.randrange(10**9), constraint=constraint)
        path = tmp_path / f"r{i}.aut"
        path.write_text(serialize_automaton(aut))
        rows = [list(r) for r in aut.rows]
        for _ in range(2):
            s_bits = rng.randrange(1 << n)
            s = StateSet(n, s_bits)
            reached = str(len(backward_subset_bfs(aut, s).reached))
            for problem in PROBLEMS:
                hit = oracle_shortest(aut, s, problem)
                shortest = None if hit is None else len(hit)
                for method, witness, max_len, budget in itertools.product(
                        ("auto", "poly", "oracle"), ((), ("--witness",)), (None, 0, 1, 2, 3),
                        ((), ("--budget", reached))):
                    if budget and not (witness and max_len in (None, 2)):
                        continue
                    if method == "oracle" and max_len is None:
                        continue
                    bound = () if max_len is None else ("--max-len", str(max_len))
                    code, out, _ = run(capsys, "check", str(path), "--subset",
                                       ",".join(map(str, s)), "--problem", problem,
                                       "--method", method, *witness, *bound, *budget, "--json")
                    report = json.loads(out)
                    where = (i, s, problem, method, witness, max_len, budget, report)
                    expect = shortest is not None and (max_len is None or shortest <= max_len)
                    if report["answer"] == "unknown-budget":
                        assert code == 2 and budget, where
                        continue
                    assert report["answer"] == ("yes" if expect else "no"), where
                    assert code == (0 if expect else 1), where
                    word = report["witness"]
                    assert (word is not None) == (expect and bool(witness)), where
                    if word is not None:
                        assert _witness_ok(rows, s_bits, problem, word), where
                        assert report["witness_length"] == len(word), where
                        assert max_len is None or len(word) <= max_len, where
                        if problem in ("extend", "resize") or report["method"] == "oracle":
                            assert len(word) == shortest, where
                    checked += 1
    assert checked > 2000


def test_witness_flag_never_picks_the_route(tmp_path, capsys):
    # --witness only adds the word to the report: the answer, method, stats,
    # preimage size, note and exit code are those of the same check without
    # it.  Singletons on synchronizing automata are where resize and avoid
    # have decisions that need no search; extend-total is asked under
    # --max-len only, since without a bound its decision needs no word.
    rng = random.Random(20261019)
    checked = 0
    for i in range(24):
        n = rng.randint(2, 8)
        constraint = "synchronizing" if i % 4 else "none"
        aut = random_automaton(n, rng.randint(1, 3), seed=rng.randrange(10**9),
                               constraint=constraint)
        path = tmp_path / f"w{i}.aut"
        path.write_text(serialize_automaton(aut))
        for q, problem, bound in itertools.product(range(n), PROBLEMS, ((), ("--max-len", "1"))):
            if problem == "extend-total" and not bound:
                continue
            query = ("check", str(path), "--subset", str(q), "--problem", problem, *bound,
                     "--json")
            code, out, _ = run(capsys, *query)
            wcode, wout, _ = run(capsys, *query, "--witness")
            report, with_word = json.loads(out), json.loads(wout)
            assert (with_word.pop("witness") is None) == (with_word.pop("witness_length") is None)
            del report["witness"], report["witness_length"]
            assert (code, report) == (wcode, with_word), (i, q, problem, bound)
            checked += 1
    assert checked > 500


def test_length_bound_is_decided_far_above_the_oracle_cap(tmp_path, capsys):
    # n = 300: the avoid search's witness starts with a long minimal-rank
    # word, so under --max-len L the depth-cut search it races answers, and
    # no state cap binds it.  Its first hit is a shortest witness: the
    # smallest L that answers "yes" has a witness of exactly L letters.
    aut = random_automaton(300, 2, seed=4)
    path = tmp_path / "random300.aut"
    path.write_text(serialize_automaton(aut))
    rows = [list(r) for r in aut.rows]
    query = ("check", str(path), "--subset", "3,5", "--problem", "avoid", "--witness", "--json")
    code, out, _ = run(capsys, *query)
    unbounded = json.loads(out)["witness"]
    assert code == 0 and len(unbounded) > 20
    answers = []
    for max_len in range(5):
        code, out, _ = run(capsys, *query, "--max-len", str(max_len), "--oracle-cap", "0")
        report = json.loads(out)
        answers.append((code, report["answer"], report["method"], report["witness"]))
        assert report["stats"]["nodes"] < 50, report
    witness = answers[-1][3]
    assert answers == [(1, "no", "poly", None)] * len(witness) + [
        (0, "yes", "poly", witness)] * (5 - len(witness))
    assert witness == "bba" and _witness_ok(rows, 0b101000, "avoid", witness)


def test_permutation_route_matches_oracle_on_every_subset(tmp_path, capsys):
    # On a permutation automaton every check but --method oracle takes the
    # permutation route.  Each variant must give the oracle's answer, exit code
    # and witness: the oracle's shortest witness decides --max-len 0, and
    # --budget changes nothing, since the route searches nothing.
    rng = random.Random(20261018)
    checked = 0
    for n, k in itertools.product(range(1, 8), range(1, 4)):
        letters = [rng.sample(range(n), n) for _ in range(k)]
        if (n + k) % 2:
            letters[rng.randrange(k)] = list(range(n))  # an identity letter
        path = tmp_path / f"p{n}_{k}.aut"
        path.write_text(serialize_automaton(Automaton([list(r) for r in zip(*letters)])))
        for s_bits, problem in itertools.product(range(1 << n), PROBLEMS):
            query = ("check", str(path), "--subset", ",".join(map(str, StateSet(n, s_bits))),
                     "--problem", problem, "--json")
            code, out, _ = run(capsys, *query, "--witness", "--method", "oracle")
            oracle = (code, json.loads(out)["answer"], json.loads(out)["witness"])
            bounded = oracle if oracle[2] == "" else (1, "no", None)
            method = ("auto", "poly")[s_bits % 2]
            for extra, expect in (((), oracle[:2] + (None,)),
                                  (("--witness",), oracle),
                                  (("--max-len", "0", "--witness"), bounded),
                                  (("--budget", "1"), oracle[:2] + (None,))):
                code, out, _ = run(capsys, *query, *extra, "--method", method)
                report = json.loads(out)
                where = (n, k, s_bits, problem, method, extra)
                assert report["method"] == "fast-path" and report["stats"] == {}, where
                assert (code, report["answer"], report["witness"]) == expect, where
                checked += 1
    assert checked == 4 * 4 * 3 * sum(1 << n for n in range(1, 8))


_REPORT = {"problem": "extend", "answer": "yes", "subset_size": 2, "stats": {},
           "classification": {}}


@pytest.mark.parametrize("change, message", [
    ({"problem": None}, "report missing key 'problem'"),
    ({"subset_size": "2"}, "report key 'subset_size' must be int"),
    ({"answer": "maybe"}, "bad answer value 'maybe'"),
    ({"witness_length": "2"}, "report key 'witness_length' must be int or null"),
    ({"witness": "ba"}, "witness and witness_length must be present together"),
], ids=["missing", "type", "answer", "optional-type", "witness-alone"])
def test_validate_report_names_each_violation(change, message):
    validate_report(_REPORT)
    report = {key: value for key, value in (_REPORT | change).items() if value is not None}
    with pytest.raises(ValueError) as exc:
        validate_report(report)
    assert str(exc.value) == message
