"""Answer checking that shares no code with the ``preimages`` package.

Everything here works on the transition table as parsed from the file text:
``rows[q][a]`` is the successor of state ``q`` under letter ``a``.  Subsets
are Python ints used as bit sets.  The benchmark uses these routines twice:
to build each workload's table of expected answers, and to re-verify every
witness a query process prints.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional

EXIT_OF_ANSWER = {"yes": 0, "no": 1}
GOALS = ("extend", "extend-total", "avoid", "resize")


def parse_aut(text: str) -> list[list[int]]:
    tokens = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    n, k = int(tokens[0]), int(tokens[1])
    body = [int(t) for t in tokens[2:]]
    if len(body) != n * k or not all(0 <= x < n for x in body):
        raise ValueError("malformed automaton text")
    return [body[q * k:(q + 1) * k] for q in range(n)]


def serialize(rows: list[list[int]]) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def bits_of(states) -> int:
    bits = 0
    for q in states:
        bits |= 1 << q
    return bits


def _premasks(rows: list[list[int]]) -> list[list[int]]:
    """premask[a][q] = bit set of the states that letter a sends to q."""
    n, k = len(rows), len(rows[0])
    pre = [[0] * n for _ in range(k)]
    for p, row in enumerate(rows):
        for a, q in enumerate(row):
            pre[a][q] |= 1 << p
    return pre


def _union_of(masks: list[int], bits: int) -> int:
    out = 0
    while bits:
        low = bits & -bits
        out |= masks[low.bit_length() - 1]
        bits ^= low
    return out


def image(rows: list[list[int]], states: set, word: list[int]) -> set:
    for a in word:
        states = {rows[q][a] for q in states}
    return states


def preimage_bits(rows: list[list[int]], bits: int, word: list[int]) -> int:
    """S . w^-1 as a bit set, peeling letters from the right."""
    pre = _premasks(rows)
    for a in reversed(word):
        bits = _union_of(pre[a], bits)
    return bits


def parse_word(text: str, k: int) -> list[int]:
    text = text.strip()
    if not text:
        return []
    if k > 26:
        return [int(tok) for tok in text.split()]
    return [ord(ch) - ord("a") for ch in text]


def witness_holds(rows: list[list[int]], problem: str, s_bits: int, word: list[int]) -> bool:
    n = len(rows)
    if any(not 0 <= a < len(rows[0]) for a in word):
        return False
    if problem in ("extend-total", "avoid", "reset"):
        img = bits_of(image(rows, set(range(n)), word))
        if problem == "extend-total":
            return img & ~s_bits == 0
        if problem == "avoid":
            return img & s_bits == 0
        return img.bit_count() == 1
    size = preimage_bits(rows, s_bits, word).bit_count()
    if problem == "extend":
        return size > s_bits.bit_count()
    return size != s_bits.bit_count()  # resize


def _goal_test(goal: str, size: int, full: int):
    if goal == "extend":
        return lambda bits, depth: bits.bit_count() > size
    if goal == "extend-total":
        return lambda bits, depth: bits == full
    if goal == "avoid":
        return lambda bits, depth: bits == 0
    if goal == "resize":
        return lambda bits, depth: depth > 0 and bits.bit_count() != size
    raise ValueError(goal)


def backward_search(rows: list[list[int]], s_bits: int, goal: str,
                    node_cap: int = 1_000_000) -> Optional[int]:
    """Length of a shortest word for ``goal``, or None; stops at the first hit.

    Walks S . w^-1 over growing w, so it is cheap exactly when the preimages
    met before the answer stay small (|S| <= 3 extend queries, singleton
    resize queries).  Raises when the reachable space exceeds ``node_cap``.
    """
    n, k = len(rows), len(rows[0])
    pre = _premasks(rows)
    hit = _goal_test(goal, s_bits.bit_count(), (1 << n) - 1)
    if hit(s_bits, 0):
        return 0
    seen = {s_bits}
    frontier = [s_bits]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for bits in frontier:
            for a in range(k):
                child = _union_of(pre[a], bits)
                if hit(child, depth):
                    return depth
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if len(seen) > node_cap:
            raise RuntimeError(f"expected-answer search passed {node_cap} subsets")
        frontier = nxt
    return None


def _chunk_tables(masks_by_letter: list[list[int]]) -> list[list[list[int]]]:
    """Per letter, per 8-state chunk: OR of the masks selected by each byte."""
    n = len(masks_by_letter[0])
    tables = []
    for masks in masks_by_letter:
        per_chunk = []
        for base in range(0, n, 8):
            table = [0] * 256
            for byte in range(1, 256):
                low = byte & -byte
                i = base + low.bit_length() - 1
                table[byte] = table[byte ^ low] | (masks[i] if i < n else 0)
            per_chunk.append(table)
        tables.append(per_chunk)
    return tables


def _full_bfs(tables: list[list[list[int]]], start: int) -> dict[int, int]:
    """Every subset reachable from ``start``, with its BFS depth."""
    depth_of = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for bits in frontier:
            for chunks in tables:
                child = 0
                b = bits
                for table in chunks:
                    child |= table[b & 255]
                    b >>= 8
                if child not in depth_of:
                    depth_of[child] = depth
                    nxt.append(child)
        frontier = nxt
    return depth_of


def oracle_lengths(rows: list[list[int]], s_bits: int) -> tuple[dict, int]:
    """Exhaustive backward search from S: shortest length per goal (None if
    impossible) and the number of reached subsets.  Desk scale only."""
    n = len(rows)
    reached = _full_bfs(_chunk_tables(_premasks(rows)), s_bits)
    lengths = {}
    for goal in GOALS:
        hit = _goal_test(goal, s_bits.bit_count(), (1 << n) - 1)
        depths = [d for bits, d in reached.items() if hit(bits, d)]
        lengths[goal] = min(depths) if depths else None
    return lengths, len(reached)


def shortest_reset(rows: list[list[int]]) -> tuple[Optional[int], int]:
    """Exhaustive forward search from Q: shortest reset length and the
    number of reached subsets.  Desk scale only."""
    n = len(rows)
    succ_masks = [[1 << rows[q][a] for q in range(n)] for a in range(len(rows[0]))]
    reached = _full_bfs(_chunk_tables(succ_masks), (1 << n) - 1)
    depths = [d for bits, d in reached.items() if bits.bit_count() == 1]
    return (min(depths) if depths else None), len(reached)


def reset_certificate(rows: list[list[int]], rng) -> Optional[list[int]]:
    """Some reset word, or None when the automaton is not synchronizing.

    A random walk shrinks Q quickly on random automata; pairs that survive it
    are merged by a breadth-first search over state pairs, which also
    detects an unmergeable pair.
    """
    n, k = len(rows), len(rows[0])
    word: list[int] = []
    states = set(range(n))
    for _ in range(50 * n):
        if len(states) == 1:
            return word
        a = rng.randrange(k)
        word.append(a)
        states = {rows[q][a] for q in states}
    while len(states) > 1:
        p, q = sorted(states)[:2]
        prev = {(p, q): None}
        queue = deque([(p, q)])
        merged = None
        while queue and merged is None:
            pair = queue.popleft()
            for a in range(k):
                x, y = rows[pair[0]][a], rows[pair[1]][a]
                if x == y:
                    merged = (pair, a)
                    break
                nxt = (x, y) if x < y else (y, x)
                if nxt not in prev:
                    prev[nxt] = (pair, a)
                    queue.append(nxt)
        if merged is None:
            return None
        pair, a = merged
        piece = [a]
        while prev[pair] is not None:
            pair, letter = prev[pair]
            piece.append(letter)
        piece.reverse()
        word.extend(piece)
        states = image(rows, states, piece)
    return word


def closure(rows: list[list[int]], start: int) -> set:
    """States reachable from ``start``; for the image of a reset word this
    is the unique sink component."""
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for p in rows[q]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def check_output(query: dict, rows: list[list[int]], rc: int, stdout: str) -> tuple[list[str], dict]:
    """Compare one query process's exit code and output with the expected
    table entry and re-verify its witness.  Returns (problems, report)."""
    problems: list[str] = []
    s_bits = bits_of(query["subset"])
    want = query["expect"]
    if query["problem"] == "reset":
        report = {}
        for line in stdout.splitlines():
            key, _, value = line.partition(": ")
            report[key] = value
        answer = "yes" if report.get("answer") == "yes" else "no"
        word_text = report.get("word") if answer == "yes" else None
        length = int(report["length"]) if "length" in report else None
    else:
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            return [f"exit {rc}, output is not a JSON report"], {}
        answer = report.get("answer")
        word_text = report.get("witness")
        length = report.get("witness_length")
    if answer != want["answer"]:
        problems.append(f"answer {answer!r}, expected {want['answer']!r}")
    if rc != EXIT_OF_ANSWER.get(want["answer"]):
        problems.append(f"exit code {rc}")
    if answer == "yes" and query["witness"]:
        if word_text is None:
            problems.append("no witness printed")
        else:
            word = parse_word(word_text, len(rows[0]))
            if len(word) != length:
                problems.append(f"witness has {len(word)} letters, report says {length}")
            if not witness_holds(rows, query["problem"], s_bits, word):
                problems.append("witness fails independent re-verification")
            if want.get("length") is not None and len(word) != want["length"]:
                problems.append(f"witness length {len(word)}, shortest is {want['length']}")
    return problems, report
