"""Byte-for-byte guard on ``check --json`` output, with and without ``--witness``.

``tests/data/golden_check.json`` holds the stdout and exit code of every case
below.  The ``--witness`` cases were recorded before the pair table and the
word actions were rewritten for speed; the decision-only cases (key suffix
``|decision``: ``extend-total`` and ``resize`` without ``--witness``, the
routes that once took the synchronizing fast paths) were recorded before
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
``--method=oracle`` entries change ``stats`` only.  68 more, all
``--max-len`` entries, were re-recorded when extend and resize began to
cut their own searches at L and the note "shortest witness exceeds the
length bound" went; no answer, witness, exit code or ``method`` changed.
Each group counts every entry with and without ``|decision``.  32 change
``note`` and ``stats`` (the cut search answers "no" after fewer
subsets): the extend and resize ``--max-len=0`` entries on ``cerny4``
(``0``, ``1,2``, ``0,1,2``) and ``random40_rank2`` (``0``, ``3,17``,
``5,21,38``), ``chain2|0|resize``, ``chain2|1|extend`` and
``chain2|1|resize`` at ``--max-len=0``, and
``random40_rank2|3,17|extend|--max-len=2``.  34 extend-total and avoid
entries change ``note`` only: their witness exceeds L and the cut search
finds none, on ``cerny4`` (``0`` extend-total 0 and 2, avoid 0; ``1,2``
extend-total 0 and 2, avoid 0 and 2; ``0,1,2`` extend-total 0, avoid 0 and
2), ``chain2`` (``0`` avoid 0; ``1`` extend-total 0) and ``random40_rank2``
(``0`` avoid 0; ``3,17`` and ``5,21,38`` avoid 0 and 2), where "extend-total
0" means ``extend-total|--max-len=0``.  2 change ``stats`` only:
``chain2|0|extend|--max-len=0`` counts 1 subset instead of 2.  158 more
were re-recorded when resize and single-state avoid lost their
decision-only routes and the extend-total witness began to come from its
search alone; no witness changed.  4 ``cerny4`` resize ``|decision``
entries answer ``unknown-budget`` instead of "yes", since the search
respects the budget: ``0`` and ``0,1,2`` at ``--budget=2``, ``1,2`` at
``--budget=2`` and ``--budget=3``.  23 more resize ``|decision`` entries
change ``method`` to ``poly`` and gain ``stats`` (19 also
``preimage_size``): those on ``cerny4`` and ``chain2`` with no option,
``--method=poly``, ``--budget=2`` or ``--budget=3``, and the three on
``random40_sync``.  37 extend-total entries that ask for a word change
``method`` from ``fast-path`` to ``poly`` (8 also ``stats``): the
``--witness`` entries on ``cerny4``, ``chain2`` and ``random40_sync`` with
no option, ``--method=poly``, ``--budget=2`` or ``--budget=3``, and the
``--max-len`` entries that the oracle's cut search does not settle
(``cerny4||…`` at 0 and 2, ``chain2|0`` at 0 and 2, ``chain2|1`` at 2).  12 single-state avoid
``|decision`` entries (``--method=poly``, ``--budget=2``, ``--budget=3`` on
``cerny4|0``, ``chain2|0``, ``chain2|1`` and ``random40_rank2|0``) gain
``stats``, 9 of them also ``preimage_size``.  82 change only
``classification.synchronizing``, to null, since no route computes it any
more: every ``perm3`` extend-total entry, the ``random40_rank2``
extend-total entries that ask for a word, the ``perm3`` and
``random40_rank2`` resize ``|decision`` entries without ``--max-len``, and
the extend-total ``--max-len`` entries that the oracle's cut search
settles (``cerny4`` ``0``, ``1,2``, ``0,1,2``; ``chain2|1`` at 0).  A later change that alters an answer, a witness, a preimage size or a ``stats``
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
