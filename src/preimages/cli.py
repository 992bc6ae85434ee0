"""Command-line interface.

Exit codes: 0 = yes, 1 = no, 2 = unknown (budget- or method-limited),
3 = usage error, 4 = input/file error, 5 = internal error.  Every witness is
re-verified before it is printed; a verification failure is an internal
error.  ``check`` takes one route per query (see ``_decide``), and one node
budget bounds all of the query's searches together; ``--method poly`` is a
synonym of ``auto``, and the oracle state cap binds only ``--method
oracle`` and ``reset --method oracle``.  The budget and the cap honor the
environment variables PREIMAGES_BUDGET and PREIMAGES_ORACLE_CAP unless
flags override them.  A process imports only the modules its route runs:
``pairs``, ``extend``, ``avoid``, ``resize``, ``oracle`` and ``gadgets`` are
imported on first use, so the extend and resize searches, the oracle and
the permutation route load no ``pairs``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from typing import NamedTuple, Optional

from .automaton import (CONSTRAINTS, PROBLEMS, Automaton, StateSet, Word, apply_word,
                        preimage_word, problem_goal, is_permutation_automaton,
                        is_strongly_connected, known_synchronizing, sink_state)
from .errors import BudgetExceededError, DEFAULT_NODE_BUDGET, DEFAULT_ORACLE_STATE_CAP
from .fileformat import AutomatonFormatError, parse_automaton_file, serialize_automaton, serialize_gadget
from .report import (ANSWER_NO, ANSWER_UNKNOWN, ANSWER_YES, WitnessReport, witness_holds)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_DATA = 4
EXIT_INTERNAL = 5

_PROBLEM_OF = {"extending": "extend", "totally-extending": "extend-total", "avoiding": "avoid",
               "resizing": "resize"}  # ``oracle --goal`` name -> problem


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2, which we reserve
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _int_at_least(least: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
        return value
    return parse


_LIMITS = {  # args attribute -> (environment variable, default, flag/variable parser)
    "budget": ("PREIMAGES_BUDGET", DEFAULT_NODE_BUDGET, _int_at_least(1)),
    "oracle_cap": ("PREIMAGES_ORACLE_CAP", DEFAULT_ORACLE_STATE_CAP, _int_at_least(0)),
}


def _limit(args, name: str) -> int:
    """``--budget`` / ``--oracle-cap`` if given, else its environment variable,
    else the default; an invalid environment value is a usage error."""
    flag = getattr(args, name)
    if flag is not None:
        return flag
    env, default, parse = _LIMITS[name]
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        return parse(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"environment variable {env} {exc}")


def _parse_subset(aut: Automaton, text: str) -> StateSet:
    text = text.strip()
    if text == "":
        return StateSet.empty(aut.n)
    try:
        states = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad subset {text!r}: expected comma-separated state indices")
    return aut.state_set(states)


def _is_synchronizing(aut: Automaton) -> bool:
    """``pairs.is_synchronizing``, importing ``pairs`` on first use."""
    from .pairs import is_synchronizing
    return is_synchronizing(aut)


def _classification(aut: Automaton, want_sync: bool) -> dict:
    sync = known_synchronizing(aut)
    if sync is None and want_sync:
        sync = _is_synchronizing(aut)
    return {
        "strongly_connected": is_strongly_connected(aut),
        "synchronizing": sync,
        "permutation": is_permutation_automaton(aut),
        "sink_state": sink_state(aut),
    }


class Route(NamedTuple):
    """The answer one method gave, and why it is unknown."""

    answer: str
    word: Optional[Word]
    method: str
    note: Optional[str] = None


# problem -> (module, search function).  Modules load on first use, and
# route functions are looked up on them at call time, so a wrapper installed
# on a module (bench/spans.py) sees the call.
_SEARCH = {
    "extend": ("extend", "shortest_extending_word_small"),
    "extend-total": ("extend", "totally_extending_word_small"),
    "avoid": ("avoid", "avoiding_word"),
    "resize": ("resize", "shortest_resizing_word"),
}


def _yes_no(decision: bool) -> str:
    return ANSWER_YES if decision else ANSWER_NO


def _decide(aut: Automaton, s: StateSet, problem: str, method: str, budget: int,
            oracle_cap: int, want_witness: bool, max_len: Optional[int], stats: dict) -> Route:
    """Answer the whole query along one route, under one node budget.
    Only extend-total's route depends on ``--witness``: without it and
    without ``--max-len`` no word is needed.  The routes, in order:

    - ``--method oracle``: the power-set oracle, capped at ``oracle_cap``
      states unless L = ``--max-len`` cuts it at a depth whose 1 + k + ... +
      k^L subsets fit in what the cap admits.
    - Permutation automata: |S·w⁻¹| = |S| for every word w, so only the
      empty word can answer.  O(nk), no search, no budget; without it the
      ``subset-search`` workload's six extend and avoid queries on 3-subsets
      of permutation automata (n = 50-80) would each search ~C(n, 3) subsets.
    - Extend-total on a synchronizing automaton, no word asked for: S is
      totally extensible iff it meets the sink component: 2.1-3.4 ms against
      11-13 ms for the search on the ``pair-table`` workload's three.
    - Else (``auto``, or its synonym ``poly``) the ``_SEARCH`` function, which
      answers for words of at most L letters: extend and resize cut their
      shortest-word searches at L, and avoid and extend-total race a search
      cut at L against their unbounded ones."""
    try:
        if method == "oracle":
            from . import oracle
            word = oracle.oracle_shortest(aut, s, problem, budget, oracle_cap, max_len, stats)
            return Route(_yes_no(word is not None), word, "oracle")
        if is_permutation_automaton(aut):
            hit = problem_goal(problem, aut.n, s.size)(s.bits)
            return Route(_yes_no(hit), Word() if hit else None, "fast-path")
        if (problem == "extend-total" and not want_witness and max_len is None
                and _is_synchronizing(aut)):
            from . import extend
            return Route(_yes_no(extend.totally_extensible_synchronizing(aut, s)), None,
                         "fast-path")
        module, name = _SEARCH[problem]
        search = getattr(importlib.import_module(f".{module}", __package__), name)
        word = search(aut, s, budget=budget, stats=stats, max_len=max_len)
        return Route(_yes_no(word is not None), word, "poly")
    except BudgetExceededError as exc:
        if method == "oracle":
            return Route(ANSWER_UNKNOWN, None, "oracle", str(exc))
        return Route(ANSWER_UNKNOWN, None, "poly", "node budget exceeded")


def _emit(report: WitnessReport, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(report.to_json())
        return
    lines = [f"problem: {report.problem}", f"answer: {report.answer}"]
    if report.method:
        lines.append(f"method: {report.method}")
    if report.witness is not None:
        lines.append(f"witness: {report.witness} (length {report.witness_length})")
    if report.preimage_size is not None:
        lines.append(f"preimage size: {report.preimage_size} (|S| = {report.subset_size})")
    if report.note:
        lines.append(f"note: {report.note}")
    sys.stdout.write("\n".join(lines) + "\n")


_EXIT_OF = {ANSWER_YES: EXIT_YES, ANSWER_NO: EXIT_NO, ANSWER_UNKNOWN: EXIT_UNKNOWN}


def _cmd_check(args) -> int:
    """Decide the query, re-verify the witness, then build and emit the report."""
    aut = parse_automaton_file(args.file)
    s = _parse_subset(aut, args.subset)
    budget, cap = _limit(args, "budget"), _limit(args, "oracle_cap")
    stats: dict = {}
    t0 = time.perf_counter()
    route = _decide(aut, s, args.problem, args.method, budget, cap, args.witness, args.max_len,
                    stats)
    word = route.word if route.answer == ANSWER_YES else None
    shown = word if args.witness else None
    preimage_size = None
    if word is not None:  # both calls read one word map (automaton.word_map)
        if not witness_holds(aut, s, args.problem, word):
            raise RuntimeError(f"witness {word.text(aut.k)!r} failed re-verification")
        preimage_size = preimage_word(aut, s, word).size
    if args.timing:
        stats["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    report = WitnessReport(
        problem=args.problem,
        answer=route.answer,
        subset_size=s.size,
        method=route.method,
        witness=None if shown is None else shown.text(aut.k),
        witness_length=None if shown is None else len(shown),
        preimage_size=preimage_size,
        stats=stats,
        classification=_classification(aut, want_sync=False),
        max_len=args.max_len,
        note=route.note,
    )
    _emit(report, args.json)
    return _EXIT_OF[route.answer]


def _cmd_oracle(args) -> int:
    """``oracle --goal G`` is ``check --problem P --method oracle``."""
    args.problem = _PROBLEM_OF[args.goal]
    return _cmd_check(args)


def _cmd_classify(args) -> int:
    aut = parse_automaton_file(args.file)
    info = _classification(aut, want_sync=True)
    if args.json:
        sys.stdout.write(json.dumps(info, sort_keys=True, indent=2) + "\n")
    else:
        for key in ("strongly_connected", "synchronizing", "permutation"):
            sys.stdout.write(f"{key.replace('_', '-')}: {'yes' if info[key] else 'no'}\n")
        sink = info["sink_state"]
        sys.stdout.write(f"sink-state: {sink if sink is not None else 'none'}\n")
    return EXIT_YES


def _cmd_rank(args) -> int:
    from .pairs import minimal_rank_word
    aut = parse_automaton_file(args.file)
    result = minimal_rank_word(aut)
    if args.json:
        payload = {
            "rank": result.rank,
            "word": result.word.text(aut.k),
            "word_length": len(result.word),
            "image": sorted(result.image),
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(f"rank: {result.rank}\nword: {result.word.text(aut.k)}\n"
                         f"image: {result.image!r}\n")
    return EXIT_YES


def _cmd_reset(args) -> int:
    aut = parse_automaton_file(args.file)
    if args.method == "greedy":
        from .pairs import greedy_reset_word
        word = greedy_reset_word(aut)
    else:
        from . import oracle
        word = oracle.oracle_shortest_reset(aut, node_limit=_limit(args, "budget"),
                                            state_cap=_limit(args, "oracle_cap"))
    if word is None:
        sys.stdout.write("answer: no (not synchronizing)\n")
        return EXIT_NO
    if apply_word(aut, StateSet.full(aut.n), word).size != 1:
        raise RuntimeError("reset word failed re-verification")
    sys.stdout.write(f"answer: yes\nword: {word.text(aut.k)}\nlength: {len(word)}\n")
    return EXIT_YES


def _cmd_gadget(args) -> int:
    from . import gadgets
    if args.kind != "intersection" and not args.file:
        raise ValueError(f"gadget {args.kind} needs an automaton file")
    if args.kind == "intersection":
        if not args.dfa:
            raise ValueError("gadget intersection needs at least one --dfa FILE INITIAL ACCEPTING")
        dfas = []
        for path, initial, accepting in args.dfa:
            aut = parse_automaton_file(path)
            if not initial.strip().isdecimal():
                raise ValueError(f"bad initial state {initial!r}")
            dfas.append(gadgets.DfaWithAcceptance(aut, int(initial), _parse_subset(aut, accepting)))
        out = gadgets.intersection_gadget(dfas)
    elif args.kind == "binarize":
        aut = parse_automaton_file(args.file)
        out = gadgets.binarize(aut, _parse_subset(aut, args.subset))
    elif args.kind == "sink":
        aut = parse_automaton_file(args.file)
        out = gadgets.sink_binarize(aut)
    else:  # large-extend
        aut = parse_automaton_file(args.file)
        out = gadgets.large_extend_gadget(aut, _parse_subset(aut, args.subset), args.target)
    text = serialize_gadget(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_random(args) -> int:
    from . import gadgets
    aut = gadgets.random_automaton(args.states, args.letters, args.seed, args.constraint)
    sys.stdout.write(serialize_automaton(aut))
    return EXIT_YES


@functools.cache  # built on first use, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="preimages",
                     description="Decide and witness preimage problems for complete DFAs")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide extend / extend-total / avoid / resize")
    check.add_argument("file")
    check.add_argument("--subset", required=True, help="comma-separated state indices")
    check.add_argument("--problem", required=True, choices=PROBLEMS)
    check.add_argument("--method", default="auto", choices=("auto", "poly", "oracle"))
    check.set_defaults(func=_cmd_check)

    orc = sub.add_parser("oracle", help="exhaustive shortest-word queries (desk scale)")
    orc.add_argument("file")
    orc.add_argument("--subset", required=True, help="comma-separated state indices")
    orc.add_argument("--goal", required=True, choices=tuple(_PROBLEM_OF))
    orc.set_defaults(func=_cmd_oracle, method="oracle", timing=False)

    for cmd in (check, orc):
        cmd.add_argument("--max-len", type=_int_at_least(0), default=None)
        cmd.add_argument("--witness", action="store_true")
        cmd.add_argument("--json", action="store_true")
        cmd.add_argument("--budget", type=_int_at_least(1), default=None)
        cmd.add_argument("--oracle-cap", type=_int_at_least(0), default=None)
    check.add_argument("--timing", action="store_true")

    classify = sub.add_parser("classify", help="structural flags of an automaton")
    classify.add_argument("file")
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    rank = sub.add_parser("rank", help="minimal rank and a witnessing word")
    rank.add_argument("file")
    rank.add_argument("--json", action="store_true")
    rank.set_defaults(func=_cmd_rank)

    reset = sub.add_parser("reset", help="reset word (greedy or exhaustive-shortest)")
    reset.add_argument("file")
    reset.add_argument("--method", default="greedy", choices=("greedy", "oracle"))
    reset.add_argument("--oracle-cap", type=_int_at_least(0), default=None)
    reset.set_defaults(func=_cmd_reset, budget=None)  # PREIMAGES_BUDGET only

    gadget = sub.add_parser("gadget", help="reduction constructions")
    gadget.add_argument("kind", choices=("intersection", "binarize", "sink", "large-extend"))
    gadget.add_argument("file", nargs="?")
    gadget.add_argument("--dfa", nargs=3, action="append", metavar=("FILE", "INITIAL", "ACCEPTING"),
                        help="intersection input (repeatable)")
    gadget.add_argument("--subset", default="")
    gadget.add_argument("--target", type=int, default=0, help="anchor state for large-extend")
    gadget.add_argument("--output", default=None)
    gadget.set_defaults(func=_cmd_gadget)

    rand = sub.add_parser("random", help="seeded random automaton")
    rand.add_argument("--states", type=int, required=True)
    rand.add_argument("--letters", type=int, required=True)
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("--constraint", default="none", choices=CONSTRAINTS)
    rand.set_defaults(func=_cmd_random)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (AutomatonFormatError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNKNOWN
    except RuntimeError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
