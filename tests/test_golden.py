"""Byte-for-byte guard on ``check --json`` output, with and without ``--witness``.

``tests/data/golden_check.json`` holds the stdout and exit code of every case
below.  A case is ``automaton|subset|problem``, run with ``--witness``;
the suffix ``|decision`` runs it without (``extend-total`` and ``resize``,
the problems whose route once depended on it), and an option suffix such as
``|--max-len=0``, ``|--method=oracle`` or ``|--budget=2`` (each with and
without ``|decision``) adds that option.  A change that alters an answer, a
witness, a preimage size, a note or a ``stats`` value fails here, so "same
answers and witnesses" is checked on every run.  A change that re-records
entries on purpose lists them in CHANGES.md, with what changed in each and
why.

The five automata (``cerny4``, ``perm3``, ``chain2``, ``random40_sync``,
``random40_rank2``) are committed as files next to it, so the cases do not
depend on the random generator: ``random40_sync`` is ``random_automaton(40,
3, seed=4012)``, a synchronizing automaton, and ``random40_rank2`` is
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
