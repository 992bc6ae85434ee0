"""Preimage problems for complete deterministic finite automata.

Given a subset S of states, the library decides - and witnesses - whether
some word extends S (larger preimage), totally extends it (preimage = all
states), avoids it (image disjoint from S), or resizes it (preimage of a
different cardinality), alongside the reduction gadgets relating these
questions and an exhaustive power-set oracle for desk-scale ground truth.
"""

from .automaton import (Automaton, SccDecomposition, StateSet, Word, apply_word,
                        is_permutation_automaton, is_strongly_connected, letter_name,
                        preimage_word, scc, sink_state)
from .avoid import RankPartition, avoiding_word, rank_partition
from .errors import (BudgetExceededError, DEFAULT_NODE_BUDGET, DEFAULT_ORACLE_STATE_CAP,
                     NotSynchronizingError)
from .extend import (shortest_extending_word_small, totally_extending_word_small,
                     totally_extensible_synchronizing)
from .fileformat import (AutomatonFormatError, parse_automaton, parse_automaton_file,
                         serialize_automaton, serialize_gadget)
from .gadgets import (DfaWithAcceptance, GadgetOutput, binarize, intersection_gadget,
                      languages_intersect, large_extend_gadget, random_automaton,
                      sink_binarize)
from .oracle import (SubsetBfsResult, backward_subset_bfs, forward_subset_bfs,
                     oracle_min_rank, oracle_shortest, oracle_shortest_reset)
from .pairs import (PairTable, RankResult, avoidable_state, greedy_reset_word,
                    is_synchronizing, minimal_rank_word, pair_table)
from .reference import cerny_automaton, chain2, perm3
from .report import WitnessReport, validate_report, witness_holds
from .resize import RationalBasis, resizable_decision_fast, shortest_resizing_word

__version__ = "0.1.0"

__all__ = [
    "Automaton", "StateSet", "Word", "SccDecomposition", "apply_word", "preimage_word",
    "scc", "is_strongly_connected", "is_permutation_automaton", "sink_state", "letter_name",
    "PairTable", "RankResult", "pair_table", "is_synchronizing", "greedy_reset_word",
    "minimal_rank_word", "avoidable_state",
    "shortest_extending_word_small", "totally_extending_word_small",
    "totally_extensible_synchronizing",
    "RankPartition", "rank_partition", "avoiding_word",
    "RationalBasis", "shortest_resizing_word", "resizable_decision_fast",
    "SubsetBfsResult", "backward_subset_bfs", "forward_subset_bfs", "oracle_shortest",
    "oracle_shortest_reset", "oracle_min_rank",
    "DfaWithAcceptance", "GadgetOutput", "intersection_gadget", "binarize", "sink_binarize",
    "large_extend_gadget", "random_automaton", "languages_intersect",
    "parse_automaton", "parse_automaton_file", "serialize_automaton", "serialize_gadget",
    "AutomatonFormatError", "WitnessReport", "validate_report", "witness_holds",
    "BudgetExceededError", "NotSynchronizingError",
    "DEFAULT_NODE_BUDGET", "DEFAULT_ORACLE_STATE_CAP",
    "cerny_automaton", "perm3", "chain2",
]
