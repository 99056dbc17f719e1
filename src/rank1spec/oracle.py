"""Independent verification via dense finite truncations.

The truncated operator in the eigenbasis of the unperturbed part is the
diagonal of lambda plus the rank-one outer product b conj(a)^T; its
eigenvalues come from a classical dense nonsymmetric solver and serve as
ground truth for desk-scale instances.  This module shares no code with
the characteristic-function path; it shares only the matching with
assembly (direct._assign).
"""

from dataclasses import dataclass

import numpy as np

from . import errors
from .direct import _assign

DEFAULT_DIMENSION_CAP = 1000


@dataclass(frozen=True)
class TruncatedOperator:
    indices: np.ndarray
    matrix: np.ndarray

    def trace_identity_residual(self, spec, coeffs):
        """|trace(M) - (sum lambda_n + sum c_n)| over the window."""
        lam = np.asarray(spec.lambda_at(self.indices), dtype=float)
        c = np.atleast_1d(coeffs.c_at(self.indices))
        return abs(np.trace(self.matrix) - (np.sum(lam) + np.sum(c)))


def build_truncation(spec, coeffs, n):
    """Dense matrix of the perturbed operator on the window |k| <= n."""
    if n < 1:
        raise errors.WindowExceeded("truncation radius must be positive")
    n = int(n)
    dimension = n - spec.first_index(n) + 1
    if dimension > DEFAULT_DIMENSION_CAP:
        raise errors.DimensionCap(f"dimension {dimension} exceeds the cap {DEFAULT_DIMENSION_CAP}")
    idx = spec.window_indices(n)
    lam = np.asarray(spec.lambda_at(idx), dtype=float)
    a = np.atleast_1d(coeffs.a_at(idx))
    b = np.atleast_1d(coeffs.b_at(idx))
    # b_m conj(a_n) can overflow where every c_n = conj(a_n) b_n is finite:
    # dense_eigenvalues then raises SolverFailure on the matrix
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.diag(lam.astype(complex)) + np.outer(b, np.conj(a))
    return TruncatedOperator(indices=idx, matrix=m)


def dense_eigenvalues(op):
    """Eigenvalues of the truncation, sorted by (real, imag)."""
    try:
        vals = np.linalg.eigvals(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise errors.SolverFailure(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def compare_spectra(computed, reference, tol):
    """Optimal-matching comparison of two eigenvalue multisets.

    computed may be a PerturbedSpectrum (expanded by multiplicity) or a
    plain sequence.  Returns (passed, max_matched_distance) over the
    matching of least total distance.  Equal values pair first, as
    multisets, and _assign matches only the rest: pairing L_i = R_j never
    raises the least total, as |L_b - R_a| <= |L_b - R_j| + |L_i - R_a|.
    Any perfect matching whose worst pair is below tol proves that the
    multisets agree within tol; optimality only sets which worst distance
    is reported.
    """
    if hasattr(computed, "eigenvalues"):
        left = np.asarray(computed.eigenvalues(), dtype=complex)
    else:
        left = np.asarray(computed, dtype=complex)
    right = np.asarray(reference, dtype=complex)
    if len(left) != len(right):
        raise errors.CardinalityMismatch(
            f"{len(left)} computed eigenvalues vs {len(right)} reference"
        )
    unpaired = {}  # each reference value's positions not yet paired
    for j, v in enumerate(right.tolist()):
        unpaired.setdefault(v, []).append(j)
    rest = []  # the computed values' positions left for the assignment
    for i, v in enumerate(left.tolist()):
        if unpaired.get(v):
            unpaired[v].pop()
        else:
            rest.append(i)
    if not rest:
        return True, 0.0
    cost = np.abs(left[rest, None] - right[[j for js in unpaired.values() for j in js]])
    rows, cols = _assign(cost)
    worst = float(cost[rows, cols].max())
    return worst < tol, worst
