"""Decision reports: the JSON surface of the command-line interface.

Reports are deterministic (sorted keys, no timestamps unless explicitly
requested) so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Optional

from .automaton import Automaton, StateSet, Word, preimage_word, problem_goal

ANSWER_YES = "yes"
ANSWER_NO = "no"
ANSWER_UNKNOWN = "unknown-budget"


class WitnessReport:
    __slots__ = ("problem", "answer", "subset_size", "method", "witness", "witness_length",
                 "preimage_size", "stats", "classification", "max_len", "note")

    def __init__(self, problem: str, answer: str, subset_size: int,
                 method: Optional[str] = None,          # poly | oracle | fast-path
                 witness: Optional[str] = None, witness_length: Optional[int] = None,
                 preimage_size: Optional[int] = None,   # |S . w^-1| under the witness
                 stats: Optional[dict] = None, classification: Optional[dict] = None,
                 max_len: Optional[int] = None, note: Optional[str] = None):
        self.problem, self.answer, self.subset_size = problem, answer, subset_size
        self.method, self.witness, self.witness_length = method, witness, witness_length
        self.preimage_size, self.max_len, self.note = preimage_size, max_len, note
        self.stats = {} if stats is None else stats
        self.classification = {} if classification is None else classification

    def to_dict(self) -> dict:
        """Every field, ``stats`` and ``classification`` copied; ``max_len`` and ``note`` if set."""
        d = {key: getattr(self, key) for key in self.__slots__}
        d["stats"], d["classification"] = dict(self.stats), dict(self.classification)
        for key in ("max_len", "note"):
            if d[key] is None:
                del d[key]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def validate_report(d: dict) -> None:
    """Structural schema check; raises ValueError on the first violation."""
    required = {
        "problem": str,
        "answer": str,
        "subset_size": int,
        "stats": dict,
        "classification": dict,
    }
    for key, typ in required.items():
        if key not in d:
            raise ValueError(f"report missing key {key!r}")
        if not isinstance(d[key], typ):
            raise ValueError(f"report key {key!r} must be {typ.__name__}")
    if d["answer"] not in (ANSWER_YES, ANSWER_NO, ANSWER_UNKNOWN):
        raise ValueError(f"bad answer value {d['answer']!r}")
    for key, typ in (("witness", str), ("witness_length", int),
                     ("preimage_size", int), ("max_len", int), ("note", str)):
        if d.get(key) is not None and not isinstance(d[key], typ):
            raise ValueError(f"report key {key!r} must be {typ.__name__} or null")
    if d.get("method") not in (None, "poly", "oracle", "fast-path"):
        raise ValueError(f"bad method value {d['method']!r}")
    if (d.get("witness") is None) != (d.get("witness_length") is None):
        raise ValueError("witness and witness_length must be present together")


def witness_holds(aut: Automaton, s: StateSet, problem: str, w: Word) -> bool:
    """Re-verify a claimed witness from its preimage ``S . w^-1``: Q . w
    misses S exactly when no state maps into S, so avoid reads it too."""
    return problem_goal(problem, aut.n, s.size)(preimage_word(aut, s, w).bits)
