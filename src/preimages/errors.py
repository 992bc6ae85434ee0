"""Shared exceptions and resource-limit defaults."""

# Default search-node budget (CLI default; individual calls may override).
DEFAULT_NODE_BUDGET = 50_000_000

# Power-set searches refuse automata larger than this unless told otherwise.
DEFAULT_ORACLE_STATE_CAP = 20


class BudgetExceededError(RuntimeError):
    """A search ran out of its node budget.

    Deliberately distinct from a negative answer: the caller learns that the
    question was not decided, never that the answer is "no".
    """

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


class NotSynchronizingError(ValueError):
    """A synchronizing-only fast path was invoked on a non-synchronizing automaton."""


class UsageError(ValueError):
    """Bad input on the command line or in the environment, subsets and gadget inputs included."""


def _checked(build, *args):
    """``build(*args)``, whose ValueError is its check of the input it was given."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
