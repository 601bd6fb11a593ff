"""Exception types shared across the package."""


class ConfigError(Exception):
    """Run configuration is syntactically or semantically invalid."""


class MatchingError(ConfigError):
    """Boundary matching segments are inconsistent with the domain or each other."""


class SingularParameterError(ValueError):
    """A parameter value makes a requested formula singular (division by zero)."""


class RunFailure(RuntimeError):
    """A run that stopped before ``t_end``; ``rows`` holds the observation rows
    recorded before the failure, so partial output can still be flushed.

    Each kind names itself in ``report.txt`` (``report_word``) and in
    ``sweep.csv`` (``sweep_status``); a ``note`` naming the run ends the message.
    """

    report_word: str
    sweep_status: str

    def __init__(self, message: str, rows=None, note: str = ""):
        super().__init__(message)
        self.rows = rows if rows is not None else []
        self.note = note

    def __str__(self):
        return f"{super().__str__()}; {self.note}" if self.note else super().__str__()

    def report(self) -> str:
        """The failure as ``report.txt`` and ``verify`` word it."""
        return f"{self.report_word} failed: {self}"


class IntegrationError(RunFailure):
    """Time integration produced a non-finite state, at time ``t``, with
    ``max_abs_u`` the largest finite membrane-potential magnitude seen."""

    report_word, sweep_status = "integration", "failed"

    def __init__(self, t: float, max_abs_u: float, rows=None, note: str = ""):
        super().__init__(f"non-finite state at t={t:.6g} (max |u| seen: {max_abs_u:.6g})",
                         rows, note)
        self.t, self.max_abs_u = t, max_abs_u

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error (and any
        # attribute attached later) survives a process pool
        return (type(self), (self.t, self.max_abs_u, self.rows, self.note), self.__dict__)


class LinearSolveError(RunFailure):
    """The implicit diffusion solve did not reach the requested tolerance."""

    report_word, sweep_status = "linear solve", "failed(linear-solve)"
