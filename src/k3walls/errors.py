"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input for an operation.

    Carries a stable machine-readable ``code`` so the CLI can report errors
    consistently across releases.
    """

    def __init__(self, message, code="domain_error"):
        super().__init__(message)
        self.code = code


class OracleViolation(RuntimeError):
    """A cross-check between two independent computations failed.

    This signals a bug (or a genuinely false expectation), never bad input.
    """


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its budget (of nodes, or of the items it counts) before finishing."""

    def __init__(self, budget, nodes, unit="nodes"):
        super().__init__(f"search budget exhausted: {nodes} {unit} > limit {budget}")
        self.budget = budget
        self.nodes = nodes
