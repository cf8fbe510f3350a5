"""Exception hierarchy shared across the toolkit."""


class ConsensusToolkitError(Exception):
    """Base class for all toolkit errors."""


class GraphValidationError(ConsensusToolkitError, ValueError):
    """Invalid graph construction input."""


class SelfLoopError(GraphValidationError):
    """An edge connects a node to itself."""


class NodeIndexError(GraphValidationError):
    """An edge references a node outside [0, n)."""


class TooFewNodesError(GraphValidationError):
    """Graphs need at least two nodes."""


class DisconnectedGraphError(ConsensusToolkitError, ValueError):
    """Operation requires a connected graph."""


class EdgeListParseError(ConsensusToolkitError, ValueError):
    """Malformed edge-list file; message carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MatrixShapeError(ConsensusToolkitError, ValueError):
    """Matrix arguments have incompatible or non-square shapes."""


class HypothesisViolationError(ConsensusToolkitError, ValueError):
    """Inputs violate the hypotheses of a spectral identity (e.g. singular
    leading coefficient, indefinite middle coefficient)."""


class ScenarioError(ConsensusToolkitError, ValueError):
    """Invalid or inconsistent scenario file."""


class NumericalBlowupError(ConsensusToolkitError, RuntimeError):
    """A run produced a non-finite number: a state during integration,
    with ``t`` the time of failure, or the run-report values named in
    ``fields``."""

    def __init__(self, t: float | None = None, fields: tuple[str, ...] = ()):
        if fields:
            message = f"non-finite run report value: {', '.join(fields)}"
        else:
            message = f"non-finite state encountered at t={t:.6g}"
        super().__init__(message)
        self.t = t
        self.fields = fields
