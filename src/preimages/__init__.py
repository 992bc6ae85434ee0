"""Preimage problems for complete deterministic finite automata.

Given a subset S of states, the library decides - and witnesses - whether
some word extends S (larger preimage), totally extends it (preimage = all
states), avoids it (image disjoint from S), or resizes it (preimage of a
different cardinality), alongside the reduction gadgets relating these
questions and an exhaustive power-set oracle for desk-scale ground truth.

``import preimages`` loads no submodule: each public name is imported from
its submodule on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it provides
    "automaton": ("Automaton", "StateSet", "Word", "SccDecomposition", "apply_word",
                  "preimage_word", "scc", "is_strongly_connected", "is_permutation_automaton",
                  "sink_state", "letter_name", "SubsetBfsResult"),
    "pairs": ("PairTable", "RankResult", "pair_table", "is_synchronizing", "greedy_reset_word",
              "minimal_rank_word", "avoidable_state"),
    "extend": ("shortest_extending_word_small", "totally_extending_word_small",
               "totally_extensible_synchronizing"),
    "avoid": ("avoiding_word",),
    "resize": ("RationalBasis", "shortest_resizing_word", "resizable_decision_fast"),
    "oracle": ("backward_subset_bfs", "forward_subset_bfs", "oracle_shortest",
               "oracle_shortest_reset"),
    "gadgets": ("DfaWithAcceptance", "GadgetOutput", "intersection_gadget", "binarize",
                "sink_binarize", "large_extend_gadget", "random_automaton", "languages_intersect"),
    "fileformat": ("parse_automaton", "parse_automaton_file", "serialize_automaton",
                   "serialize_gadget", "AutomatonFormatError"),
    "report": ("WitnessReport", "validate_report", "witness_holds"),
    "errors": ("BudgetExceededError", "NotSynchronizingError", "DEFAULT_NODE_BUDGET",
               "DEFAULT_ORACLE_STATE_CAP"),
    "reference": ("cerny_automaton", "perm3", "chain2"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
