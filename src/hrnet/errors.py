"""Exception types shared across the package."""


class ConfigError(Exception):
    """Run configuration is syntactically or semantically invalid."""


class MatchingError(ConfigError):
    """Boundary matching segments are inconsistent with the domain or each other."""


class SingularParameterError(ValueError):
    """A parameter value makes a requested formula singular (division by zero)."""


class IntegrationError(RuntimeError):
    """Time integration produced a non-finite state.

    Carries the failure time and the largest finite membrane-potential magnitude,
    plus whatever observation rows were recorded before the failure.
    """

    def __init__(self, t: float, max_abs_u: float, rows=None, note: str = ""):
        message = f"non-finite state at t={t:.6g} (max |u| seen: {max_abs_u:.6g})"
        if note:
            message = f"{message}; {note}"
        super().__init__(message)
        self.t = t
        self.max_abs_u = max_abs_u
        self.rows = rows if rows is not None else []
        self.note = note

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error (and any
        # attribute attached later) survives a process pool
        return (type(self), (self.t, self.max_abs_u, self.rows, self.note), self.__dict__)


class LinearSolveError(RuntimeError):
    """The implicit diffusion solve did not reach the requested tolerance.

    Raised out of ``simulate``, it carries the observation rows recorded
    before the failure as ``rows``, so partial output can still be flushed.
    """
