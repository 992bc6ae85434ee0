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
modules its route runs: ``pairs``, ``search`` (the subset kernel),
``extend``, ``avoid``, ``resize``, ``oracle``, ``gadgets`` and ``commands``
(``classify``, ``rank``, ``gadget``, ``random`` and the usage text) are
imported on first use, so the extend and resize searches, the oracle and the
permutation route load no ``pairs``, and the permutation route no ``search``.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
import types
from typing import NoReturn, Optional

from .automaton import (CONSTRAINTS, PROBLEMS, Automaton, StateSet, Word, _classification,
                        apply_word, preimage_word, problem_goal, is_permutation_automaton)
from .errors import (BudgetExceededError, DEFAULT_NODE_BUDGET, DEFAULT_ORACLE_STATE_CAP,
                     UsageError)
from .fileformat import AutomatonFormatError, _parse_subset, decimal, parse_automaton_file
from .report import ANSWER_NO, ANSWER_UNKNOWN, ANSWER_YES, WitnessReport, witness_holds

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


# problem -> (module, search function).  Modules load on first use, by the import
# statement's own machinery (which -X importtime reports), and route functions are
# looked up on them at call time, so a wrapper installed on a module (bench/spans.py)
# sees the call.
_SEARCH = {
    "extend": ("extend", "shortest_extending_word_small"),
    "extend-total": ("extend", "totally_extending_word_small"),
    "avoid": ("avoid", "avoiding_word"),
    "resize": ("resize", "shortest_resizing_word"),
}


def _yes_no(decision: bool) -> str:
    return ANSWER_YES if decision else ANSWER_NO


def _decide(aut: Automaton, s: StateSet, problem: str, method: str, budget: int,
            oracle_cap: int, want_witness: bool, max_len: Optional[int], stats: dict) -> tuple:
    """Answer the whole query along one route, under one node budget: (answer,
    word or None, method, why it is unknown or None).
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
            return _yes_no(word is not None), word, "oracle", None
        if is_permutation_automaton(aut):
            hit = problem_goal(problem, aut.n, s.size)(s.bits)
            return _yes_no(hit), Word() if hit else None, "fast-path", None
        if problem == "extend-total" and not want_witness and max_len is None:
            from . import extend, pairs
            if pairs.is_synchronizing(aut):
                return (_yes_no(extend.totally_extensible_synchronizing(aut, s)), None,
                        "fast-path", None)
        module, name = _SEARCH[problem]
        search = getattr(__import__(module, globals(), level=1, fromlist=(name,)), name)
        word = search(aut, s, budget=budget, stats=stats, max_len=max_len)
        return _yes_no(word is not None), word, "poly", None
    except BudgetExceededError as exc:
        if method == "oracle":
            return ANSWER_UNKNOWN, None, "oracle", str(exc)
        return ANSWER_UNKNOWN, None, "poly", "node budget exceeded"


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
    answer, word, method, note = _decide(aut, s, args.problem, args.method, budget, cap,
                                         args.witness, args.max_len, stats)
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
        answer=answer,
        subset_size=s.size,
        method=method,
        witness=None if shown is None else shown.text(aut.k),
        witness_length=None if shown is None else len(shown),
        preimage_size=preimage_size,
        stats=stats,
        classification=_classification(aut, want_sync=False),
        max_len=args.max_len,
        note=note,
    )
    _emit(report, args.json)
    return _EXIT_OF[answer]


def _cmd_oracle(args) -> int:
    """``oracle --goal G`` is ``check --problem P --method oracle``."""
    args.problem = _PROBLEM_OF[args.goal]
    return _cmd_check(args)


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


_QUERY_OPTIONS = {"--max-len": _int_at_least(0), "--witness": bool, "--json": bool,
                  "--budget": _int_at_least(1), "--oracle-cap": _int_at_least(0)}
# command -> (handler, help line, {positional or option: converter}, required, defaults by option
# or attribute); a converter is a callable, bool (a flag), choices (a tuple) or 3 (values, appended).
# A handler named by a string is looked up in ``commands``, which loads on first use.
_COMMANDS = {
    "check": (_cmd_check, "decide extend / extend-total / avoid / resize",
              {"file": str, "--subset": str, "--problem": PROBLEMS,
               "--method": ("auto", "poly", "oracle"), **_QUERY_OPTIONS, "--timing": bool},
              ("file", "--subset", "--problem"), {"--method": "auto"}),
    "oracle": (_cmd_oracle, "exhaustive shortest-word queries (desk scale)",
               {"file": str, "--subset": str, "--goal": tuple(_PROBLEM_OF), **_QUERY_OPTIONS},
               ("file", "--subset", "--goal"), {"method": "oracle", "timing": False}),
    "classify": ("_cmd_classify", "structural flags of an automaton",
                 {"file": str, "--json": bool}, ("file",), {}),
    "rank": ("_cmd_rank", "minimal rank and a witnessing word", {"file": str, "--json": bool},
             ("file",), {}),
    "reset": (_cmd_reset, "reset word (greedy or exhaustive-shortest)",
              {"file": str, "--method": ("greedy", "oracle"), "--oracle-cap": _int_at_least(0)},
              ("file",), {"--method": "greedy", "budget": None}),  # PREIMAGES_BUDGET only
    "gadget": ("_cmd_gadget", "reduction constructions", {"kind": ("intersection", "binarize",
               "sink", "large-extend"), "file": str, "--dfa": 3, "--subset": str,
               "--target": decimal, "--output": str}, ("kind",), {"--subset": "", "--target": 0}),
    "random": ("_cmd_random", "seeded random automaton", {"--states": _int_at_least(1),
               "--letters": _int_at_least(1), "--seed": decimal, "--constraint": CONSTRAINTS},
               ("--states", "--letters", "--seed"), {"--constraint": "none"}),
}
_NO_COMMAND = (None, "", {}, ("command",), {})


def _load(handler):
    """``handler``, or the function of ``commands`` it names, loading that module."""
    if isinstance(handler, str):
        from . import commands
        handler = getattr(commands, handler)
    return handler


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
            sys.stdout.write(_load("_help")(_COMMANDS, name))
        code = EXIT_YES if args is None else _load(_COMMANDS[name][0])(args)
        try:  # a reader gone before the flush maps like a failed write
            sys.stdout.flush()
        except OSError:  # the bytes stay buffered: os.devnull takes the flushes still to come
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
        return code
    except (AutomatonFormatError, OSError, UnicodeDecodeError) as exc:
        code, message = EXIT_DATA, f"error: {exc}"
    except UsageError as exc:
        usage = f"{_load('_usage')(_COMMANDS, name)}\n" if args is None else ""
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
