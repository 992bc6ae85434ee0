"""Seeded query sets for the four benchmark workloads.

A workload is a list of queries, each a ``preimages`` command line over a
generated ``.aut`` file plus its expected answer.  Sizes are fixed per
workload; the seed picks state labels, random transition tables and subsets,
so every seed costs about the same.  Expected answers come from the
independent routines in ``verify`` (exhaustive search at desk scale, a
bounded backward search where preimages stay small) or from closed forms
for the structured families; where both routes exist they must agree.

Hardness floors: ``build`` raises ``FloorError`` when an input is easier
than its workload allows (pair-table n, oracle subsets, enumerated sources,
a resize basis that must fill).  Floors that only the program's statistics
show (``basis_size``, ``nodes``, ``letters``) ride along in each query and
the runner compares them with every report.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path

import verify

WORKLOADS = ("resize-basis", "subset-search", "pair-table", "oracle-desk")

# Layers whose self-time share a workload is named for (see METRICS.md).
INTENT = {
    "resize-basis": ("resize",),
    "subset-search": ("extend", "avoid"),
    "pair-table": ("pairs",),
    "oracle-desk": ("oracle", "cli"),
}

HARD_NODES = 10_000
HARD_SUBSETS = 10_000
HARD_LETTERS = 10_000
PAIR_TABLE_MIN_N = 600


class FloorError(RuntimeError):
    """A generated query is easier than its workload's hardness floor."""


# --- automaton families (rows[q][a] = successor) ---------------------------

def defect_cycle(n):
    """Cycle plus one merge of state 1 into 0; from {j} the shortest
    resizing word has exactly j letters."""
    return [[(q + 1) % n, 0 if q == 1 else q] for q in range(n)]


def cerny(n):
    return [[(q + 1) % n, 0 if q == n - 1 else q] for q in range(n)]


def two_transitive(rows):
    """Do the letters (all permutations) reach every ordered state pair from
    (0, 1)?  Then the characteristic vectors of the orbit of any subset S
    with 0 < |S| < n span all n dimensions, so the resize basis fills."""
    n = len(rows)
    seen = {(0, 1)}
    stack = [(0, 1)]
    while stack:
        p, q = stack.pop()
        for a in range(len(rows[0])):
            pair = (rows[p][a], rows[q][a])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return len(seen) == n * (n - 1)


def random_permutations(n, rng):
    """Two uniform permutations, redrawn until they act 2-transitively."""
    while True:
        cols = []
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            cols.append(perm)
        rows = [[cols[0][q], cols[1][q]] for q in range(n)]
        if two_transitive(rows):
            return rows


def near_permutation(n, rng):
    """Two random permutations, then one state of the second letter sent
    where another state goes: a letter of rank n-1."""
    rows = random_permutations(n, rng)
    q, p = rng.sample(range(n), 2)
    rows[q][1] = rows[p][1]
    return rows


def random_rows(n, rng):
    return [[rng.randrange(n), rng.randrange(n)] for _ in range(n)]


def disjoint_union(a, b):
    m = len(a)
    return a + [[x + m for x in row] for row in b]


def relabel(rows, rng):
    """The same automaton with states renamed by a random permutation."""
    pi = list(range(len(rows)))
    rng.shuffle(pi)
    out = [None] * len(rows)
    for q, row in enumerate(rows):
        out[pi[q]] = [pi[p] for p in row]
    return out, pi


# --- workload generators ---------------------------------------------------

class _QuerySet:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: dict[str, str] = {}
        self.queries: list[dict] = []

    def automaton(self, rows) -> str:
        name = f"a{len(self.files):02d}.aut"
        self.files[name] = verify.serialize(rows)
        return name

    def query(self, family, fname, rows, problem, argv, subset, answer, length=None,
              witness=True, floor=None):
        self.queries.append({
            "id": f"q{len(self.queries):02d}-{family}",
            "family": family,
            "file": fname,
            "n": len(rows),
            "problem": problem,
            "subset": sorted(subset),
            "argv": [argv[0], fname, *argv[1:]],
            "witness": witness,
            "expect": {"answer": answer, "length": length},
            "floor": floor or {},
        })

    def check(self, family, fname, rows, problem, subset, answer, length=None,
              witness=True, method=None, floor=None):
        argv = ["check", "--subset", ",".join(map(str, sorted(subset))),
                "--problem", problem, "--json"]
        if witness:
            argv.append("--witness")
        if method:
            argv += ["--method", method]
        self.query(family, fname, rows, problem, argv, subset, answer, length, witness, floor)


def _draw(make, accept, tries=200):
    """Draw candidates until ``accept`` returns something other than None."""
    for _ in range(tries):
        case = make()
        got = accept(case)
        if got is not None:
            return case, got
    raise FloorError(f"no acceptable draw in {tries} tries")


def _answer(length):
    return "no" if length is None else "yes"


def _resize_basis(b: _QuerySet):
    rng = b.rng
    # Sizes interleave the two families' costs evenly, so the median query
    # does not sit in a gap between cost levels.  The seed moves S only a
    # little, because a defect cycle's cost grows fast with j.
    for n in (150, 170, 190, 210, 230, 250, 270):
        j = n - 1 - rng.randrange(3)
        rows, pi = relabel(defect_cycle(n), rng)
        s = [pi[j]]
        found = verify.backward_search(rows, verify.bits_of(s), "resize")
        if found != j:
            raise AssertionError(f"defect cycle n={n}: search says {found}, closed form {j}")
        b.check("defect-cycle", b.automaton(rows), rows, "resize", s, "yes", length=j,
                floor={"basis_size": n // 2})
    for n in (80, 86, 92, 98, 104, 110, 116):
        rows = random_permutations(n, rng)
        s = rng.sample(range(n), n // 2)
        b.check("permutation", b.automaton(rows), rows, "resize", s, "no",
                floor={"basis_size": n // 2})


def _subset_search(b: _QuerySet):
    rng = b.rng
    for family, make in (("defect-cycle", defect_cycle), ("cerny", cerny)):
        for n in (240, 280, 320):
            base = [n // 2 + rng.randrange(3), n - 1 - rng.randrange(3)]
            rows, pi = relabel(make(n), rng)
            s = [pi[q] for q in base]
            length = verify.backward_search(rows, verify.bits_of(s), "extend")
            b.check(family, b.automaton(rows), rows, "extend", s, _answer(length), length,
                    floor={"nodes": HARD_NODES})
    for n in (50, 55, 60):
        base = [n // 3 + rng.randrange(2), 2 * n // 3 + rng.randrange(2), n - 1]
        rows, pi = relabel(defect_cycle(n), rng)
        s = [pi[q] for q in base]
        length = verify.backward_search(rows, verify.bits_of(s), "extend")
        b.check("defect-cycle-3", b.automaton(rows), rows, "extend", s, _answer(length), length,
                floor={"nodes": HARD_NODES})
    # Permutation automata never extend or avoid: both searches run dry.
    for n in (60, 70, 80):
        rows = random_permutations(n, rng)
        s = rng.sample(range(n), 3)
        if sum(comb(n, j) for j in range(1, 4)) < HARD_NODES:
            raise FloorError(f"extend sources for n={n} below floor")
        b.check("permutation", b.automaton(rows), rows, "extend", s, "no")
    for n in (50, 60, 70):
        rows = random_permutations(n, rng)
        s = rng.sample(range(n), 3)
        if comb(n, 3) < HARD_NODES:
            raise FloorError(f"avoid sources for n={n} below floor")
        b.check("permutation", b.automaton(rows), rows, "avoid", s, "no",
                floor={"nodes": comb(n, 3)})


def _pair_table(b: _QuerySet):
    rng = b.rng
    for i, n in enumerate((600, 650, 700)):
        rows, word = _draw(lambda: random_rows(n, rng),
                           lambda rows: verify.reset_certificate(rows, rng))
        sink = verify.closure(rows, next(iter(verify.image(rows, set(range(n)), word))))
        fname = b.automaton(rows)
        transient = sorted(set(range(n)) - sink)
        # extend-total: yes iff S meets the sink component (synchronizing
        # case); the middle automaton asks about transient states only.
        s = rng.sample(transient if i == 1 and len(transient) >= 2 else range(n), 2)
        b.check("random", fname, rows, "extend-total", s,
                "yes" if set(s) & sink else "no", witness=False)
        # resize without witness: a reset word pulls S to Q or to the empty set.
        s = rng.sample(range(n), 2)
        b.check("random", fname, rows, "resize", s, "yes", witness=False)
        # avoid: yes iff S leaves some sink-component state uncovered.
        s = rng.sample(range(n), 2)
        b.check("random", fname, rows, "avoid", s, "no" if sink <= set(s) else "yes")
    for n in (80, 90):
        rows, _ = relabel(cerny(n), rng)
        s = rng.sample(range(n), 2)
        b.check("cerny", b.automaton(rows), rows, "extend-total", s, "yes",
                floor={"letters": HARD_LETTERS})
    for m1, m2 in ((60, 70), (70, 80)):
        rows, pi = relabel(disjoint_union(cerny(m1), cerny(m2)), rng)
        first = [pi[q] for q in range(m1)]
        second = [pi[q] for q in range(m1, m1 + m2)]
        fname = b.automaton(rows)
        # Every image meets both components; each component alone resets and
        # then reaches any of its states.
        part = rng.sample(first, m1 // 2)
        b.check("cerny-union", fname, rows, "avoid", part, "yes",
                floor={"letters": HARD_LETTERS})
        if m1 == 60:
            s = first + [rng.choice(second)]
            b.check("cerny-union", fname, rows, "extend-total", s, "yes",
                    floor={"letters": HARD_LETTERS})


def _oracle_queries(b: _QuerySet, family, rows, s, goals, lengths, subcommand):
    fname = b.automaton(rows)
    for goal in goals:
        if subcommand:
            name = {"extend": "extending", "extend-total": "totally-extending",
                    "avoid": "avoiding", "resize": "resizing"}[goal]
            argv = ["oracle", "--subset", ",".join(map(str, sorted(s))), "--goal", name,
                    "--json", "--witness"]
            b.query(family, fname, rows, goal, argv, s, _answer(lengths[goal]), lengths[goal])
        else:
            b.check(family, fname, rows, goal, s, _answer(lengths[goal]), lengths[goal],
                    method="oracle")


def _hard_oracle(rows, s_bits):
    lengths, reached = verify.oracle_lengths(rows, s_bits)
    if reached < HARD_SUBSETS:
        raise FloorError(f"oracle query reaches only {reached} subsets")
    return lengths


def _oracle_desk(b: _QuerySet):
    rng = b.rng
    # Permutation automata: |S| = n/2 sweeps all C(n, n/2) subsets.
    for n, goals, sub in ((20, ("resize",), False), (18, ("extend", "avoid"), False),
                          (17, ("extend", "extend-total", "avoid", "resize"), True)):
        rows = random_permutations(n, rng)
        s = rng.sample(range(n), n // 2)
        lengths = _hard_oracle(rows, verify.bits_of(s))
        if any(lengths[g] is not None for g in ("extend", "avoid", "resize")):
            raise AssertionError("a permutation automaton answered yes")
        _oracle_queries(b, "permutation", rows, s, goals, lengths, sub)
    # Near-permutation automata (one merging pair) reach almost every subset
    # both ways; drawn again if a search stays below the floor.
    for n, goals, sub in ((15, ("extend", "extend-total", "avoid", "resize"), True),
                          (16, ("extend", "resize"), False)):
        def hard(case):
            lengths, reached = verify.oracle_lengths(case[0], verify.bits_of(case[1]))
            return lengths if reached >= HARD_SUBSETS else None

        (rows, s), lengths = _draw(lambda: (near_permutation(n, rng), rng.sample(range(n), n // 2)),
                                   hard)
        _oracle_queries(b, "near-permutation", rows, s, goals, lengths, sub)
    # Forward power-set search for exact reset words.
    for family, n in (("cerny", 14), ("near-permutation", 15), ("near-permutation", 16)):
        def hard_reset(rows):
            length, reached = verify.shortest_reset(rows)
            return length if length is not None and reached >= HARD_SUBSETS else None

        rows, length = _draw(
            lambda: relabel(cerny(n), rng)[0] if family == "cerny" else near_permutation(n, rng),
            hard_reset)
        b.query(family, b.automaton(rows), rows, "reset", ["reset", "--method", "oracle"],
                [], "yes", length)
    # Desk-scale checks through the default router.
    tiny = [("cerny-4", cerny(4)), ("perm3", [[1, 1], [2, 0], [0, 2]])]
    tiny += [(f"random-{n}", random_rows(n, rng)) for n in (5, 6, 7, 8, 8)]
    for family, rows in tiny:
        n = len(rows)
        fname = b.automaton(rows)
        for goal in verify.GOALS:
            s = rng.sample(range(n), rng.randrange(1, n))
            lengths, _ = verify.oracle_lengths(rows, verify.bits_of(s))
            exact = lengths[goal] if goal in ("extend", "resize") else None
            b.check(family, fname, rows, goal, s, _answer(lengths[goal]), exact)


def _probe(b: _QuerySet):
    """Tiny queries that between them reach every layer.  The traced run
    replays them after each workload, so a layer the workload leaves idle
    reads near zero rather than exactly zero."""
    for family, rows in (("cerny-4", cerny(4)), ("perm3", [[1, 1], [2, 0], [0, 2]])):
        s = [1, 2]
        lengths, _ = verify.oracle_lengths(rows, verify.bits_of(s))
        fname = b.automaton(rows)
        for goal in verify.GOALS:
            exact = lengths[goal] if goal in ("extend", "resize") else None
            b.check(family, fname, rows, goal, s, _answer(lengths[goal]), exact)
    rows = cerny(4)
    _oracle_queries(b, "cerny-4", rows, [1, 2], ("resize",),
                    verify.oracle_lengths(rows, 0b110)[0], True)
    b.query("cerny-4", b.automaton(rows), rows, "reset", ["reset", "--method", "oracle"],
            [], "yes", verify.shortest_reset(rows)[0])


_GENERATORS = {
    "resize-basis": _resize_basis,
    "subset-search": _subset_search,
    "pair-table": _pair_table,
    "oracle-desk": _oracle_desk,
    "probe": _probe,
}


def build(workload: str, seed: int, root: Path) -> tuple[list[dict], str]:
    """Write the workload's automaton files under ``root``; return its
    queries and the SHA-256 of the files plus the query table."""
    b = _QuerySet(workload, seed)
    _GENERATORS[workload](b)
    for q in b.queries:
        if q["family"] == "random" and workload == "pair-table" and q["n"] < PAIR_TABLE_MIN_N:
            raise FloorError(f"{q['id']}: pair-table automaton has n={q['n']}")
    root.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(b.files):
        (root / name).write_text(b.files[name], encoding="utf-8")
        digest.update(name.encode() + b"\0" + b.files[name].encode())
    digest.update(json.dumps(b.queries, sort_keys=True).encode())
    for q in b.queries:
        q["file"] = q["argv"][1] = str(root / q["file"])
    return b.queries, digest.hexdigest()


def floor_problems(query: dict, report: dict) -> list[str]:
    """Floors that only the program's own statistics can show."""
    problems = []
    stats = report.get("stats", {})
    for key, least in query["floor"].items():
        if key == "letters":
            got = report.get("witness_length") or 0
        else:
            got = stats.get(key, 0)
        if got < least:
            problems.append(f"{key} {got} below the hardness floor {least}")
    return problems
