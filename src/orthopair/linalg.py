"""Dense complex linear algebra kernel.

All operators in this package are plain numpy arrays of dtype complex128
(row-major, finite entries).  This module provides the handful of primitives
everything else is built on: spectral norms, the one residual gate and its
refusal :class:`OffVariety`, the one batched range factorisation of
idempotents, the one Gauss-Newton loop of the corrector and the complement
solver, and -- most importantly -- the one numerical rank rule every integer
answer of the package goes through.  :func:`decide_rank` uses a *relative*
threshold (tol times the largest singular value) with an explicit,
caller-controlled tolerance, and refuses with :class:`IndeterminateDimension`
when the singular-value gap at the cut is not decisive, so ill-conditioned
decisions are never silently trusted.  RANK_TOL is the package's one default
relative cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_matrix",
    "spectral_norm",
    "OffVariety",
    "worst_above",
    "GAP_RATIO_REQUIRED",
    "RANK_TOL",
    "IndeterminateDimension",
    "RankReport",
    "decide_rank",
    "range_factors",
    "rank1_projector",
    "lstsq_step",
    "gauss_newton",
]

GAP_RATIO_REQUIRED = 1e3
RANK_TOL = 1e-10  # default relative cut: tangent, defect, factor, projector and commutant ranks


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and check every entry is finite."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():  # on complex entries: both parts finite
        raise ValueError("matrix has non-finite entries")
    return m


def spectral_norm(a) -> float:
    """Largest singular value; a residual norm invariant under unitary conjugation."""
    return float(np.linalg.norm(as_matrix(a), 2))


class OffVariety(ValueError):
    """A point refused because a residual of its defining equations exceeds
    its gate, kept in ``residual``: a relation residual or unit-trace
    deviation above relations.RELATION_TOL, a unitarity residual above
    config.UNITARITY_TOL (above 0.5 at the corrector's basin gate), or a
    transition-matrix modulus deviation above 10 config.GAUGE_TOL."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def worst_above(stack, tol: float) -> tuple[int, float] | None:
    """(index, spectral norm) of the matrix of largest spectral norm in the
    k x m x n ``stack`` if that norm exceeds ``tol``, else None.

    The spectral norm is at most the Frobenius norm, so a stack whose
    Frobenius norms are all within ``tol`` passes without an SVD; any other
    stack is decided on its spectral norms, one batched SVD, so the verdict
    is that of comparing the norms themselves.
    """
    if np.linalg.norm(stack, axis=(1, 2)).max(initial=0.0) <= tol:
        return None
    norms = np.linalg.norm(stack, 2, axis=(1, 2))
    worst = int(np.argmax(norms))
    return (worst, float(norms[worst])) if norms[worst] > tol else None


@dataclass(frozen=True)
class RankReport:
    """Outcome of a numerical rank decision.

    ``rank`` counts singular values exceeding ``tolerance_used`` (an absolute
    threshold, already scaled by the largest singular value).  ``gap_ratio``
    is sigma_rank / sigma_{rank+1}, the evidence behind the count; it is at
    least GAP_RATIO_REQUIRED on every report :func:`decide_rank` returns.
    """

    singular_values: np.ndarray
    rank: int
    tolerance_used: float
    gap_ratio: float


class IndeterminateDimension(ArithmeticError):
    """Raised when a rank cut has no decisive singular-value gap."""

    def __init__(self, message: str, singular_values: np.ndarray, gap_ratio: float):
        super().__init__(message)
        self.singular_values = singular_values
        self.gap_ratio = gap_ratio


def decide_rank(s, tol: float, what: str) -> RankReport:
    """The package's one rank rule, applied to a descending spectrum ``s``.

    Counts the singular values above the relative cut ``tol * s[0]``.  The
    gap ratio is sigma_rank / sigma_{rank+1}, or s[-1] / cut when no value
    lies below the cut; a ratio below GAP_RATIO_REQUIRED raises
    :class:`IndeterminateDimension` carrying the spectrum, and ``what``
    names the decision in its message.  ``tol`` must lie in (0, 1).
    """
    if not 0 < tol < 1:  # also false for nan
        raise ValueError(f"rank tolerance must lie in (0, 1), got {tol!r}")
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] == 0.0:
        return RankReport(s, 0, 0.0, np.inf)
    thresh = tol * s[0]
    rank = int(np.sum(s > thresh))
    if rank == 0:
        gap = np.inf
    elif rank < s.size:
        below = s[rank]
        gap = s[rank - 1] / below if below > 0 else np.inf
    else:
        # no singular value below the cut; compare against the threshold itself
        gap = s[-1] / thresh
    if gap < GAP_RATIO_REQUIRED:
        raise IndeterminateDimension(
            f"{what}: singular-value gap ratio {gap:.2e} below {GAP_RATIO_REQUIRED:.0e}; "
            "dimension is numerically undecided",
            s, float(gap),
        )
    return RankReport(s, rank, thresh, float(gap))


def range_factors(stack: np.ndarray, tol: float, whats) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """(V, V^H m) for each matrix m of the k x m x n ``stack`` from one
    batched SVD, and the k spectra.  V holds the leading left singular
    vectors of m, as many as the rank :func:`decide_rank` finds at ``tol``
    (``whats`` names the k decisions).  At an idempotent m, m = V (V^H m)
    and (V^H m) V = I."""
    u, s, _ = np.linalg.svd(stack)
    vs = [ui[:, :decide_rank(si, tol, what).rank] for ui, si, what in zip(u, s, whats)]
    return [(v, v.conj().T @ m) for v, m in zip(vs, stack)], s


def rank1_projector(v) -> np.ndarray:
    """Projector v v^dag / (v^dag v) onto the line spanned by v.

    Idempotent and of unit trace up to rounding (<= 1e-13), invariant under
    rescaling of v, and Hermitian *exactly*: the outer product is
    symmetrised, which is a bitwise-exact operation on conjugate pairs.

    ``v`` may carry leading batch axes: a (..., n) stack of vectors gives
    the (..., n, n) stack of their projectors, each bit-equal to the
    projector of its vector alone (v^dag v is the row-by-column product,
    which rounds as ``np.vdot`` does).
    """
    v = np.atleast_1d(np.asarray(v, dtype=np.complex128))
    nrm2 = (v.conj()[..., None, :] @ v[..., :, None])[..., 0, 0].real
    if not (np.isfinite(nrm2) & (nrm2 != 0.0)).all():
        raise ValueError("cannot project onto the zero vector")
    p = v[..., :, None] * v.conj()[..., None, :] / nrm2[..., None, None]
    return (p + p.conj().swapaxes(-1, -2)) / 2.0


def lstsq_step(rcond: float):
    """The Gauss-Newton step for :func:`gauss_newton`: ``step(r, jacobian)``
    is the minimal-norm least-squares solution of J dx = -r, J =
    ``jacobian()``, with singular values below ``rcond`` times the largest
    dropped."""
    return lambda r, jacobian: np.linalg.lstsq(jacobian(), -r, rcond=rcond)[0]


def gauss_newton(fun, x, tol: float, max_iter: int, window: int, step):
    """The package's one Gauss-Newton loop, with the step taken by ``step``.

    ``fun(x)`` returns the residual r at ``x`` and a zero-argument callable
    that builds the Jacobian there (or None for a step that takes none);
    ``step(r, jacobian)`` returns the step from ``x``.  So a Jacobian is
    built only for a step that reads it: :func:`lstsq_step`, the
    minimal-norm least-squares step, does; a chord step -J+ r with a fixed
    pseudo-inverse J+ does not.  The loop stops once the residual norm is
    at most ``tol``; once it is not below half the norm ``window`` steps
    earlier (the run makes too little progress to converge); or after
    ``max_iter`` steps (the final iterate is still evaluated).  Returns
    (best iterate, its residual norm, steps taken, converged); the best
    iterate is the one of smallest norm.
    """
    best_x, best_r = x, np.inf
    norms = []
    for it in range(max_iter + 1):
        r, jacobian = fun(x)
        nr = float(np.linalg.norm(r))
        norms.append(nr)
        if nr < best_r:
            best_x, best_r = x, nr
        if nr <= tol:
            return x, nr, it, True
        if (it >= window and nr > 0.5 * norms[it - window]) or it == max_iter:
            return best_x, best_r, it, False
        x = x + step(r, jacobian)
