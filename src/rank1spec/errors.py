"""Exception hierarchy for rank1spec.

Input-contract violations and numerical-certification failures are kept
apart so the CLI can map them to distinct exit codes.
"""


class Rank1Error(Exception):
    """Base class for all rank1spec errors."""


class InputError(Rank1Error):
    """Invalid or inconsistent user input (CLI exit code 1)."""


class GapViolation(InputError):
    """Two base eigenvalues are closer than the declared separation gap."""


class NonMonotone(InputError):
    """Base eigenvalue sequence is not strictly increasing."""


class NonReal(InputError):
    """Base eigenvalues must be real."""


class IndexMismatch(InputError):
    """Coefficient data does not fit the index set of the base spectrum."""


class NonSummable(InputError):
    """Coefficient tails are not square summable (beta <= 1/2)."""


class DegenerateIndex(InputError):
    """An explicit index has a_n = b_n = 0; inputs must be pre-reduced."""


class SchemaError(InputError):
    """Malformed JSON document (unknown fields, wrong types)."""


class PoleHit(Rank1Error):
    """Evaluation point coincides with a represented pole."""


class EpsOutOfRange(Rank1Error):
    """eps must lie strictly between 0 and d/2."""


class CertificationFailed(Rank1Error):
    """A count or a zero could not be certified, up to the largest n_trunc tried."""


class CountMismatch(Rank1Error):
    """Total multiplicity does not match the number of indices."""


class WindowExceeded(InputError):
    """Requested truncation window is not representable."""


class DimensionCap(InputError):
    """Dense eigensolve dimension exceeds the configured cap."""


class SolverFailure(Rank1Error):
    """The dense eigenvalue routine failed to converge."""


class CardinalityMismatch(InputError):
    """Spectra being compared have different total multiplicity."""


class ZeroCoefficientObstruction(InputError):
    """Fixed-phi reconstruction needs a finite c_n / conj(a_n), so a_n != 0,
    wherever c_n != 0."""


class BetaOutOfRange(InputError):
    """Decay exponent outside the admissible range."""
