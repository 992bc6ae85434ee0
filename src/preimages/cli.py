"""Command-line interface.

Exit codes: 0 = yes, 1 = no, 2 = unknown (budget- or method-limited),
3 = usage error, 4 = input/file error, 5 = internal error: a failed
re-verification or any other exception.  Every witness and rank word is
re-verified before it is printed.  ``check`` takes one route per query (see
``_decide``), and one node budget bounds all of the query's searches
together; ``--method poly`` is a synonym of ``auto``, and the oracle state
cap binds only ``--method oracle`` and ``reset --method oracle``.  The
budget and the cap honor the environment variables PREIMAGES_BUDGET and
PREIMAGES_ORACLE_CAP unless flags override them.  A process imports only the
modules its route runs: ``pairs``, ``extend``, ``avoid``, ``resize``,
``oracle`` and ``gadgets`` are imported on first use, so the extend and
resize searches, the oracle and the permutation route load no ``pairs``.
"""

from __future__ import annotations

import atexit
import importlib
import os
import sys
import time
import types
from typing import NamedTuple, NoReturn, Optional

from .automaton import (CONSTRAINTS, PROBLEMS, Automaton, StateSet, Word, apply_word,
                        preimage_word, problem_goal, is_permutation_automaton,
                        is_strongly_connected, known_synchronizing, sink_state)
from .errors import (BudgetExceededError, DEFAULT_NODE_BUDGET, DEFAULT_ORACLE_STATE_CAP,
                     UsageError)
from .fileformat import (AutomatonFormatError, decimal, parse_automaton_file, serialize_automaton,
                         serialize_gadget)
from .report import ANSWER_NO, ANSWER_UNKNOWN, ANSWER_YES, WitnessReport, dumps, witness_holds

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_DATA = 4
EXIT_INTERNAL = 5

_PROBLEM_OF = {"extending": "extend", "totally-extending": "extend-total", "avoiding": "avoid",
               "resizing": "resize"}  # ``oracle --goal`` name -> problem


def _int_at_least(least: int):
    def parse(text: str) -> int:
        value = decimal(text)
        if value < least:
            raise ValueError(f"must be an integer >= {least}, got {text!r}")
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
    except ValueError as exc:
        raise UsageError(f"environment variable {env} {exc}")


def _checked(build, *args):
    """``build(*args)``, whose ValueError is its check of the input it was given."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_subset(aut: Automaton, text: str) -> StateSet:
    text = text.strip()
    if text == "":
        return StateSet.empty(aut.n)
    try:
        states = [decimal(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"bad subset {text!r}: expected comma-separated state indices")
    return _checked(aut.state_set, states)


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
        sys.stdout.write(dumps(info) + "\n")
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
    image = apply_word(aut, StateSet.full(aut.n), result.word)
    if image != result.image or image.size != result.rank:
        raise RuntimeError("rank word failed re-verification")
    if args.json:
        payload = {
            "rank": result.rank,
            "word": result.word.text(aut.k),
            "word_length": len(result.word),
            "image": sorted(result.image),
        }
        sys.stdout.write(dumps(payload) + "\n")
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
        raise UsageError(f"gadget {args.kind} needs an automaton file")
    if args.kind == "intersection":
        if not args.dfa:
            raise UsageError("gadget intersection needs at least one --dfa FILE INITIAL ACCEPTING")
        dfas = []
        for path, initial, accepting in args.dfa:
            aut = parse_automaton_file(path)
            if not (initial.strip().isascii() and initial.strip().isdecimal()):
                raise UsageError(f"bad initial state {initial!r}")
            dfas.append(_checked(gadgets.DfaWithAcceptance, aut, int(initial),
                                 _parse_subset(aut, accepting)))
        out = _checked(gadgets.intersection_gadget, dfas)
    elif args.kind == "binarize":
        aut = parse_automaton_file(args.file)
        out = _checked(gadgets.binarize, aut, _parse_subset(aut, args.subset))
    elif args.kind == "sink":
        aut = parse_automaton_file(args.file)
        out = _checked(gadgets.sink_binarize, aut)
    else:  # large-extend
        aut = parse_automaton_file(args.file)
        out = _checked(gadgets.large_extend_gadget, aut, _parse_subset(aut, args.subset),
                       args.target)
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


_QUERY_OPTIONS = {"--max-len": _int_at_least(0), "--witness": bool, "--json": bool,
                  "--budget": _int_at_least(1), "--oracle-cap": _int_at_least(0)}
# command -> (handler, help line, {positional or option: converter}, required, defaults by option
# or attribute); a converter is a callable, bool (a flag), choices (a tuple) or 3 (values, appended)
_COMMANDS = {
    "check": (_cmd_check, "decide extend / extend-total / avoid / resize",
              {"file": str, "--subset": str, "--problem": PROBLEMS,
               "--method": ("auto", "poly", "oracle"), **_QUERY_OPTIONS, "--timing": bool},
              ("file", "--subset", "--problem"), {"--method": "auto"}),
    "oracle": (_cmd_oracle, "exhaustive shortest-word queries (desk scale)",
               {"file": str, "--subset": str, "--goal": tuple(_PROBLEM_OF), **_QUERY_OPTIONS},
               ("file", "--subset", "--goal"), {"method": "oracle", "timing": False}),
    "classify": (_cmd_classify, "structural flags of an automaton",
                 {"file": str, "--json": bool}, ("file",), {}),
    "rank": (_cmd_rank, "minimal rank and a witnessing word", {"file": str, "--json": bool},
             ("file",), {}),
    "reset": (_cmd_reset, "reset word (greedy or exhaustive-shortest)",
              {"file": str, "--method": ("greedy", "oracle"), "--oracle-cap": _int_at_least(0)},
              ("file",), {"--method": "greedy", "budget": None}),  # PREIMAGES_BUDGET only
    "gadget": (_cmd_gadget, "reduction constructions", {"kind": ("intersection", "binarize",
               "sink", "large-extend"), "file": str, "--dfa": 3, "--subset": str,
               "--target": decimal, "--output": str}, ("kind",), {"--subset": "", "--target": 0}),
    "random": (_cmd_random, "seeded random automaton", {"--states": _int_at_least(1),
               "--letters": _int_at_least(1), "--seed": decimal, "--constraint": CONSTRAINTS},
               ("--states", "--letters", "--seed"), {"--constraint": "none"}),
}
_NO_COMMAND = (None, "\n".join(f"  {cmd:<10}{entry[1]}" for cmd, entry in _COMMANDS.items()), {},
               ("command",), {})


def _usage(name: Optional[str]) -> str:
    if name is None:
        return "usage: preimages [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, _, spec, required, _ = _COMMANDS[name]
    words = []
    for arg, convert in spec.items():
        value = ("{" + ",".join(convert) + "}" if isinstance(convert, tuple) else
                 "FILE INITIAL ACCEPTING" if convert == 3 else arg.lstrip("-").upper())
        word = value if arg[0] != "-" else arg if convert is bool else f"{arg} {value}"
        words.append(word if arg in required else f"[{word}]")
    return f"usage: preimages {name} [-h] {' '.join(words)}"


def _parse(name: Optional[str], argv: list[str]) -> Optional[types.SimpleNamespace]:
    """The arguments of command ``name`` in ``argv``, or None for ``-h``; UsageError for a
    command line its ``_COMMANDS`` entry rejects.  With no command, only ``-h`` passes."""
    def is_option(arg: str) -> bool:  # "-" and negative numbers are values, not options
        return arg.startswith("-") and arg != "-" and not arg[1:].replace(".", "", 1).isdecimal()

    _, _, spec, required, defaults = _COMMANDS.get(name, _NO_COMMAND)
    cut = argv.index("--") if "--" in argv else len(argv)  # what comes after "--" is positional
    if any(arg == "-h" or len(arg) > 2 and "--help".startswith(arg) for arg in argv[:cut]):
        return None
    positionals, args = iter([arg for arg in spec if arg[0] != "-"]), {}
    rest = iter([(i > cut, arg) for i, arg in enumerate(argv) if i != cut])
    for after, arg in rest:
        if after or not is_option(arg):
            option, values = next(positionals, None), [arg]
        else:  # an option in full or by a unique prefix, with "=value" or the values after it
            given, explicit, value = arg.partition("=")
            hits = [given] if given in spec else [opt for opt in spec if opt.startswith(given)]
            if len(hits) > 1:
                raise UsageError(f"ambiguous option: {given} could match {', '.join(hits)}")
            option = hits[0] if hits else None
            count = 0 if spec.get(option) is bool else 3 if spec.get(option) == 3 else 1
            values = [value] if explicit else [
                text for _, (past, text) in zip(range(count), rest) if not past]
            if option and (len(values) != count or not explicit and any(map(is_option, values))):
                raise UsageError(f"argument {option}: expected {count} argument(s)")
        if option is None:
            raise UsageError(f"unrecognized arguments: {arg}")
        convert = spec[option]
        try:
            if isinstance(convert, tuple) and values[0] not in convert:
                raise ValueError(f"invalid choice {values[0]!r}: choose from {', '.join(convert)}")
            args[option] = (True if convert is bool else values[0] if isinstance(convert, tuple)
                            else args.get(option, []) + [values] if convert == 3
                            else convert(values[0]))
        except ValueError as exc:
            raise UsageError(f"argument {option}: {exc}") from None
    if missing := [arg for arg in required if arg not in args]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    args = {a: False if convert is bool else None for a, convert in spec.items()} | defaults | args
    return types.SimpleNamespace(**{a.lstrip("-").replace("-", "_"): v for a, v in args.items()})


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv.pop(0) if argv and argv[0] in _COMMANDS else None
    args = None  # a UsageError while it is None is the command line's: print the usage line
    try:
        args = _parse(name, argv)
        if args is None:  # a failed write of the help maps like any other
            sys.stdout.write(f"{_usage(name)}\n\n{_COMMANDS.get(name, _NO_COMMAND)[1]}\n")
        code = EXIT_YES if args is None else _COMMANDS[name][0](args)
        try:  # a reader gone before the flush maps like a failed write
            sys.stdout.flush()
        except OSError:  # the bytes stay buffered: os.devnull takes the flushes still to come
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
        return code
    except (AutomatonFormatError, OSError, UnicodeDecodeError) as exc:
        code, message = EXIT_DATA, f"error: {exc}"
    except UsageError as exc:
        usage = f"{_usage(name)}\n" if args is None else ""
        code, message = EXIT_USAGE, f"{usage}error: {exc}"
    except BudgetExceededError as exc:
        code, message = EXIT_UNKNOWN, f"error: {exc}"
    except Exception as exc:  # a fault, never an answer: exit 1 would read "no"
        code, message = EXIT_INTERNAL, f"internal error: {str(exc) or type(exc).__name__}"
    try:
        sys.stderr.write(f"{message}\n")
    except OSError:  # a broken stderr: the exit code alone reports the failure
        pass
    return code


def _observed() -> bool:
    """Whether a tracer or profiler watches this process: ``sys.settrace`` and
    ``sys.setprofile`` hooks (coverage, cProfile up to 3.11) or, from 3.12, any
    ``sys.monitoring`` tool (cProfile, coverage's sysmon core, debuggers)."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None and any(monitoring.get_tool(i) is not None
                                              for i in range(6)))


def run() -> NoReturn:
    """The ``preimages`` console script and ``python -m preimages.cli``: ``main()`` on
    ``sys.argv``, then the end of the process without the interpreter's teardown.  Once
    the answer is out, freeing every object and module takes 7 ms of a 66 ms resize
    query process (Python 3.11.7, 2 vCPUs); so, as the interpreter's own shutdown does,
    this runs the ``atexit`` callbacks and flushes stdout and stderr, then ends with
    ``os._exit``.  ``main`` has flushed the answer already, so these flushes carry only
    what the callbacks wrote.  A process under a tracer or profiler, or one whose flush
    fails here, exits by ``SystemExit`` instead, so that the tool writes its report and
    the interpreter reports the failed flush as it always has."""
    code = main()
    if not _observed():
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (AttributeError, OSError, ValueError):  # no stream, a broken or a closed one
            pass
        else:
            os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
