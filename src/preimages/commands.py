"""The commands that answer no query (``classify``, ``rank``, ``gadget``,
``random``; exit 0 or an exception ``cli.main`` maps) and the usage text of
``cli._COMMANDS``, loaded on first use.  Nothing here imports ``cli``: under
``python -m preimages.cli`` that file is ``__main__``, and importing it would
compile and run it a second time."""

from __future__ import annotations

import sys
from typing import Optional

from .automaton import StateSet, _classification, apply_word
from .errors import UsageError, _checked
from .fileformat import _parse_subset, parse_automaton_file, serialize_automaton, serialize_gadget
from .report import dumps


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
    return 0


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
    return 0


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
            missed = gadgets.reachable(aut, dfas[-1].initial).complement()
            if missed:  # the gadget is strongly connected only on trimmed inputs
                raise UsageError(f"{path}: state {min(missed)} cannot be reached from initial "
                                 f"state {initial}; gadget intersection needs trimmed inputs")
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
    return 0


def _cmd_random(args) -> int:
    from . import gadgets
    try:
        aut = gadgets.random_automaton(args.states, args.letters, args.seed, args.constraint)
    except RuntimeError as exc:  # the rejection cap: no draw met the constraint
        if type(exc) is not RuntimeError:  # RecursionError and its kin stay faults
            raise
        raise UsageError(str(exc)) from exc
    sys.stdout.write(serialize_automaton(aut))
    return 0


def _usage(commands: dict, name: Optional[str]) -> str:
    """The usage line of command ``name`` in ``commands`` (``cli._COMMANDS``), or of the
    program when ``name`` is None."""
    if name is None:
        return "usage: preimages [-h] {" + ",".join(commands) + "} ..."
    _, _, spec, required, _ = commands[name]
    words = []
    for arg, convert in spec.items():
        value = ("{" + ",".join(convert) + "}" if isinstance(convert, tuple) else
                 "FILE INITIAL ACCEPTING" if convert == 3 else arg.lstrip("-").upper())
        word = value if arg[0] != "-" else arg if convert is bool else f"{arg} {value}"
        words.append(word if arg in required else f"[{word}]")
    return f"usage: preimages {name} [-h] {' '.join(words)}"


def _help(commands: dict, name: Optional[str]) -> str:
    """The usage line, then the help line of command ``name`` or, with none, of every one."""
    lines = (commands[name][1] if name is not None else
             "\n".join(f"  {cmd:<10}{entry[1]}" for cmd, entry in commands.items()))
    return f"{_usage(commands, name)}\n\n{lines}\n"
