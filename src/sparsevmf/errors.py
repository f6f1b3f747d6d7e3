"""Exception hierarchy for sparsevmf."""


class SparseVmfError(Exception):
    """Base class for all sparsevmf errors."""


class DegenerateFitError(SparseVmfError):
    """A random start or an M step reached a degenerate model; status is the
    failed em.FitStatus that says which. fit_em redraws such a start and
    returns the status of such an M step in place of the error, so it leaves
    only direct calls to init_random, m_step and soft_threshold_mu."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class InitFailureError(SparseVmfError):
    """Every random start of a fit failed, or every restart of a fit did."""


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
