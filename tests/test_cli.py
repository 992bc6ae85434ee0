"""End-to-end CLI behavior: routing, exit codes, JSON determinism."""

import itertools
import json
import random

import pytest

from preimages import (Automaton, StateSet, backward_subset_bfs, cerny_automaton,
                       oracle_shortest, perm3, chain2, random_automaton, serialize_automaton,
                       validate_report)
from preimages.cli import main


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


def test_check_resize_fast_path_on_synchronizing(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "resize", "--json")
    assert code == 0
    assert json.loads(out)["method"] == "fast-path"


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
    # extend-total on a synchronizing automaton routes through the fast path,
    # whose witness is not shortest; the oracle resolves the bound exactly.
    code, out, _ = run(capsys, "check", files["chain2"], "--subset", "1",
                       "--problem", "extend-total", "--max-len", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["answer"] == "yes"


def test_check_max_len_unknown_when_oracle_forbidden(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "0",
                       "--problem", "extend-total", "--method", "poly",
                       "--max-len", "1", "--json")
    report = json.loads(out)
    if report["answer"] == "unknown-budget":
        assert code == 2 and "note" in report
    else:
        # the poly witness happened to be short enough already
        assert report["answer"] in ("yes", "no")


def test_check_oracle_method(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "resize", "--method", "oracle", "--witness", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "oracle" and report["witness_length"] == 2


def test_check_budget_exhaustion_reports_unknown(files, capsys):
    code, out, _ = run(capsys, "check", files["cerny4"], "--subset", "1,2",
                       "--problem", "extend", "--method", "poly", "--budget", "2", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["answer"] == "unknown-budget"


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


def test_json_is_byte_identical_across_runs(files, capsys):
    args = ("check", files["cerny4"], "--subset", "1,2", "--problem", "avoid",
            "--witness", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_classify_and_rank_and_reset(files, capsys):
    code, out, _ = run(capsys, "classify", files["cerny4"], "--json")
    assert code == 0
    info = json.loads(out)
    assert info == {"strongly_connected": True, "synchronizing": True,
                    "permutation": False, "sink_state": None}

    code, out, _ = run(capsys, "rank", files["perm3"], "--json")
    assert code == 0 and json.loads(out)["rank"] == 3

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


def test_random_command_is_deterministic(capsys):
    _, first, _ = run(capsys, "random", "--states", "6", "--letters", "2", "--seed", "42")
    _, second, _ = run(capsys, "random", "--states", "6", "--letters", "2", "--seed", "42")
    assert first == second and first.startswith("6 2")


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


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.aut"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "check", str(path), "--subset", "0", "--problem", "extend")
    assert code == 4 and "error" in err


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


def test_negative_oracle_cap_is_a_usage_error(files, capsys):
    for command in (("check", "--subset", "1,2", "--problem", "extend", "--method", "oracle"),
                    ("oracle", "--subset", "1,2", "--goal", "extending"),
                    ("reset", "--method", "oracle")):
        code, out, _ = run(capsys, command[0], files["cerny4"], *command[1:],
                           "--oracle-cap", "-3")
        assert code == 3 and out == ""


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


_GOAL = {"extend": "extending", "extend-total": "totally-extending", "avoid": "avoiding",
         "resize": "resizing"}


def test_router_matches_oracle_on_seeded_corpus(tmp_path, capsys):
    # The CLI router (fast paths, searches, oracle fallback, --max-len) against
    # the power-set oracle.  "unknown" is allowed only where the README says:
    # --method poly under a node budget, or --max-len with a method that gives
    # no shortest witness and no oracle fallback.  The budget variant is the
    # oracle's own node count, so --method auto must always fall back in time.
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
            for problem, goal in _GOAL.items():
                hit = oracle_shortest(aut, s, goal)
                shortest = None if hit is None else hit[1]
                for method, witness, max_len, budget in itertools.product(
                        ("auto", "poly"), ((), ("--witness",)), (None, 0, 1, 2, 3),
                        ((), ("--budget", reached))):
                    if budget and not (witness and max_len in (None, 2)):
                        continue
                    bound = () if max_len is None else ("--max-len", str(max_len))
                    code, out, _ = run(capsys, "check", str(path), "--subset",
                                       ",".join(map(str, s)), "--problem", problem,
                                       "--method", method, *witness, *bound, *budget, "--json")
                    report = json.loads(out)
                    where = (i, s, problem, method, witness, max_len, budget, report)
                    expect = shortest is not None and (max_len is None or shortest <= max_len)
                    if report["answer"] == "unknown-budget":
                        assert code == 2 and method == "poly", where
                        assert budget or (max_len is not None and shortest is not None
                                          and problem in ("extend-total", "avoid")), where
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
