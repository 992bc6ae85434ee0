"""Byte-for-byte guard on ``check --json`` output, with and without ``--witness``.

``tests/data/golden_check.json`` holds the stdout and exit code of every case
below.  The ``--witness`` cases were recorded before the pair table and the
word actions were rewritten for speed; the decision-only cases (key suffix
``|decision``: ``extend-total`` and ``resize`` without ``--witness``, the
routes that take the synchronizing fast paths) were recorded before
synchronization was first proved by a reset-word certificate; the option
cases (key suffix ``|--max-len=0`` and the like, each with and without
``--witness``) pin the ``--max-len``, ``--method`` and ``--budget`` routes.
76 entries were re-recorded when the length bound became a depth-cut search
and the oracle fallback went: the 12 ``random40_rank2 … avoid|--max-len``
entries that answered ``unknown`` are decided, the 15 ``--method=poly``
entries that differ from ``auto`` now follow it, 4 ``--budget`` entries name
the search that ran out instead of the oracle, and 45 change ``stats`` only
(the extend-total witness search and the depth-cut search count their
subsets); no witness of a "yes" changed.  143 more were re-recorded when
resize moved onto the shared subset search and ``--method oracle`` began to
report its nodes: 71 resize entries change ``stats.nodes`` only (resize
counts the subsets it discovers, as extend does, not the ones it expands),
the 8 resize ``--budget=2``/``--budget=3`` entries on ``cerny4`` and
``random40_rank2`` that answered "yes" now run out of budget, and 64
``--method=oracle`` entries change ``stats`` only.  A later change that alters an answer, a witness, a preimage size or a ``stats``
value fails here, so "same answers and witnesses" is checked on every run.
The automata are committed as files next to it, so the cases do not depend
on the random generator: ``random40_sync`` is ``random_automaton(40, 3,
seed=4012)``, a synchronizing automaton, and ``random40_rank2`` is
``random_automaton(40, 2, seed=4018)``, whose minimal rank is 2.
"""

import json
from pathlib import Path

import pytest

from preimages.cli import main

DATA = Path(__file__).parent / "data"
PROBLEMS = ("extend", "extend-total", "avoid", "resize")
SUBSETS = {
    "cerny4": ("", "0", "1,2", "0,1,2"),
    "perm3": ("0", "0,1"),
    "chain2": ("0", "1"),
    "random40_sync": ("0", "3,17", "5,21,38"),
    "random40_rank2": ("0", "3,17", "5,21,38"),
}
CASES = [f"{name}|{subset}|{problem}" for name, subsets in SUBSETS.items()
         for subset in subsets for problem in PROBLEMS]
CASES += [f"{name}|{subset}|{problem}|decision" for name, subsets in SUBSETS.items()
          for subset in subsets for problem in ("extend-total", "resize")]
OPTIONS = ("--max-len=0", "--max-len=2", "--method=poly", "--method=oracle", "--budget=2",
           "--budget=3")
CASES += [f"{name}|{subset}|{problem}|{option}{suffix}"
          for name in ("cerny4", "perm3", "chain2", "random40_rank2")
          for subset in SUBSETS[name] for problem in PROBLEMS for option in OPTIONS
          for suffix in ("", "|decision")]


def run_case(case: str, capsys) -> dict:
    name, subset, problem, *rest = case.split("|")
    argv = ["check", str(DATA / f"{name}.aut"), "--subset", subset, "--problem", problem,
            "--json"]
    for part in rest:
        argv += [] if part == "decision" else part.split("=")
    code = main(argv + ([] if "decision" in rest else ["--witness"]))
    return {"exit": code, "stdout": capsys.readouterr().out}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((DATA / "golden_check.json").read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_check_output_matches_golden(case, golden, capsys):
    assert run_case(case, capsys) == golden[case]
