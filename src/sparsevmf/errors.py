"""Exception hierarchy for sparsevmf."""


class SparseVmfError(Exception):
    """Base class for all sparsevmf errors."""


class DegenerateFitError(SparseVmfError):
    """An M step reached a degenerate model; status is the failed em.FitStatus
    that says which. fit_em returns that status in place of the error, so it
    leaves only direct calls to m_step and soft_threshold_mu."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class InitFailureError(SparseVmfError):
    """Random initialisation produced an empty cluster or a degenerate resultant."""


class NoIncrementAvailableError(SparseVmfError):
    """No coordinate satisfies kappa*|r| > beta: the path cannot advance."""


class CannotSparsifyError(SparseVmfError):
    """Could not produce distinct nonzero sparsified means within the retry budget."""


class ParseError(SparseVmfError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ZeroRowError(SparseVmfError):
    """Rows with zero norm cannot be normalised; carries their indices."""

    def __init__(self, rows):
        super().__init__(f"zero-norm rows cannot be normalised: {list(rows)}")
        self.rows = list(rows)


class NotBracketedError(SparseVmfError):
    """Overlap calibration target unreachable within the kappa search bracket."""
