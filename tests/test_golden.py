"""Byte-for-byte guard on ``check --json`` output, with and without ``--witness``.

``tests/data/golden_check.json`` holds the stdout and exit code of every case
below.  The ``--witness`` cases were recorded before the pair table and the
word actions were rewritten for speed; the decision-only cases (key suffix
``|decision``: ``extend-total`` and ``resize`` without ``--witness``, the
routes that take the synchronizing fast paths) were recorded before
synchronization was first proved by a reset-word certificate.  A later
change that alters an answer, a witness, a preimage size or a ``stats``
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


def run_case(case: str, capsys) -> dict:
    name, subset, problem, *decision = case.split("|")
    code = main(["check", str(DATA / f"{name}.aut"), "--subset", subset, "--problem", problem,
                 "--json"] + ([] if decision else ["--witness"]))
    return {"exit": code, "stdout": capsys.readouterr().out}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((DATA / "golden_check.json").read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_check_output_matches_golden(case, golden, capsys):
    assert run_case(case, capsys) == golden[case]
