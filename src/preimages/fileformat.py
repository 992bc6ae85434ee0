"""The plain-text transition-table format.

Header line ``n k`` (two positive decimal integers), then n rows of k
decimal integers: row q, column a holds the successor of state q under
letter a, 0-based.  An integer is ASCII decimal, ``-?[0-9]+``: ``int``'s
other spellings (``+1``, ``1_0``, non-ASCII digits) are malformed.  ``#``
starts a comment running to end of line; tokens are whitespace-separated
and may wrap lines.  Parsing and serialization are mutually inverse up to
comments and whitespace.
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


def decimal(token: str) -> int:
    """``int(token)`` for a token ``-?[0-9]+``; ValueError for any other spelling."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _line_of(bodies: list[str], i: int) -> int:
    """1-based line of token ``i``; past the last token, that token's line."""
    line = 1
    for line_no, body in enumerate(bodies, start=1):
        count = len(body.split())
        if count:
            line = line_no
            if i < count:
                break
            i -= count
    return line


def parse_automaton(text: str) -> Automaton:
    bodies = text.splitlines()
    if "#" in text:
        bodies = [line.split("#", 1)[0] for line in bodies]
    tokens = " ".join(bodies).split()

    def fail(message: str, i: int):
        raise AutomatonFormatError(message, _line_of(bodies, i))

    def value(i: int, what: str) -> int:
        if i >= len(tokens):
            fail(f"unexpected end of input, expected {what}", i)
        try:
            return decimal(tokens[i])
        except ValueError:
            fail(f"expected {what}, got {tokens[i]!r}", i)

    n, k = value(0, "state count"), value(1, "letter count")
    if n < 1 or k < 1:
        fail(f"header must hold two positive integers, got {n} {k}", 1)
    end = 2 + n * k
    body = tokens[2:end]
    digits = "".join(body)  # all of [0-9] iff every entry is [0-9]+
    entries = list(map(int, body)) if digits.isascii() and digits.isdecimal() else []
    if not (len(entries) == n * k and max(entries) < n):  # the first bad entry, in reading order
        for i in range(2, end):
            q, a = divmod(i - 2, k)
            entry = value(i, f"transition ({q},{a})")
            if not 0 <= entry < n:
                fail(f"transition ({q},{a}) -> {entry} out of range [0, {n})", i)
    if len(tokens) > end:
        fail(f"expected {n} rows of {k} entries, found extra token {tokens[end]!r}", end)
    return Automaton([entries[i:i + k] for i in range(0, n * k, k)])


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
