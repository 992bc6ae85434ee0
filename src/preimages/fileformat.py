"""The plain-text transition-table format.

Header line ``n k`` (two positive decimal integers), then n rows of k
decimal integers: row q, column a holds the successor of state q under
letter a, 0-based.  ``#`` starts a comment running to end of line; tokens
are whitespace-separated and may wrap lines.  Parsing and serialization are
mutually inverse up to comments and whitespace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .automaton import Automaton, StateSet

if TYPE_CHECKING:  # gadgets is imported only by the routes that build gadgets
    from .gadgets import GadgetOutput


class AutomatonFormatError(ValueError):
    """Malformed automaton text; carries the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _tokens(text: str):
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, line_no


def parse_automaton(text: str) -> Automaton:
    stream = _tokens(text)

    def next_int(what: str, line_hint: int) -> tuple[int, int]:
        try:
            tok, line_no = next(stream)
        except StopIteration:
            raise AutomatonFormatError(f"unexpected end of input, expected {what}", line_hint)
        try:
            return int(tok), line_no
        except ValueError:
            raise AutomatonFormatError(f"expected {what}, got {tok!r}", line_no)

    n, line = next_int("state count", 1)
    k, line = next_int("letter count", line)
    if n < 1 or k < 1:
        raise AutomatonFormatError(f"header must hold two positive integers, got {n} {k}", line)

    rows = []
    for q in range(n):
        row = []
        for a in range(k):
            entry, line = next_int(f"transition ({q},{a})", line)
            if not 0 <= entry < n:
                raise AutomatonFormatError(
                    f"transition ({q},{a}) -> {entry} out of range [0, {n})", line)
            row.append(entry)
        rows.append(row)

    leftover = next(stream, None)
    if leftover is not None:
        raise AutomatonFormatError(
            f"expected {n} rows of {k} entries, found extra token {leftover[0]!r}", leftover[1])
    return Automaton(rows)


def parse_automaton_file(path: str) -> Automaton:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_automaton(fh.read())


def serialize_automaton(aut: Automaton, names: Optional[tuple[str, ...]] = None,
                        subset: Optional[StateSet] = None) -> str:
    lines = [f"{aut.n} {aut.k}"]
    width = len(str(aut.n - 1))
    for q in range(aut.n):
        row = " ".join(str(p).rjust(width) for p in aut.rows[q])
        if names is not None:
            row += f"   # q{q} = {names[q]}"
        lines.append(row)
    if subset is not None:
        lines.append("# subset: " + ",".join(str(q) for q in subset))
    return "\n".join(lines) + "\n"


def serialize_gadget(out: GadgetOutput) -> str:
    return serialize_automaton(out.automaton, names=out.state_names, subset=out.subset)
