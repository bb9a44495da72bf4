"""Moduli invariants, involutions, the trace identity and companion solvers.

The scalar invariants attached to a rank-3 idempotent P and a triple of
rank-1 idempotents q_1, q_2, q_3 in dimension 6 are

    u1 = 36 (Tr Pq1Pq2 + Tr Pq1Pq3 + Tr Pq2Pq3)
    u2 = 216 (Tr Pq1Pq2Pq3 + Tr Pq1Pq3Pq2)
    u3 = (36 Tr Pq1Pq2 - 1)(36 Tr Pq2Pq3 - 1)(36 Tr Pq3Pq1 - 1)

together with z1 = Tr Pq1Pq2 and z2 = Tr Pq5Pq6 on full six-q points.  On
the sandwich relation locus (q_i P q_i = q_i / 2, q_i rank 1) all three
factor through (P, Q = sum q_i):

    u1 = (1/2) * 36 Tr(PQPQ) - 27/2
    u2 = 72 Tr(PQPQPQ) - 108 Tr(PQPQ) + 54

with constants fixed once by the exact-arithmetic oracle in
:mod:`orthopair.exact` (see U1_AFFINE / U2_AFFINE below).

On Hermitian inputs every reported invariant is real because each trace is
paired with the trace of the reversed word; the imaginary parts are kept as
a residue guard and non-Hermitian (genuinely complex) values are flagged
rather than truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import PairConfiguration, pair_from_matrices
from .linalg import adjoint, as_matrix, decide_rank, gauss_newton, spectral_norm
from .relations import an_residual, commutant_dimension

__all__ = [
    "InvariantVector",
    "IdentityReport",
    "U1_AFFINE",
    "U2_AFFINE",
    "u_invariants",
    "u_invariants_directional",
    "z_functions",
    "sigma",
    "tau",
    "theta",
    "identity_check",
    "ComplementResult",
    "solve_complement",
    "Membership",
    "MembershipResult",
    "membership_test",
]

# u1 = U1_AFFINE[0] * 36 Tr(PQPQ) + U1_AFFINE[1] on the sandwich locus;
# u2 = U2_AFFINE[0] Tr(PQPQPQ) + U2_AFFINE[1] Tr(PQPQ) + U2_AFFINE[2].
# Values fixed by exact.fit_u1_constants / exact.fit_u2_constants.
U1_AFFINE = (0.5, -13.5)
U2_AFFINE = (72.0, -108.0, 54.0)

IMAG_GUARD = 1e-10
IDENTITY_TOL = 1e-8  # identity_check: precondition tolerance on the two triples
COMPLEMENT_RESTARTS = 20
COMPLEMENT_TOL = 1e-11  # a solver start converges at this residual
COMPLEMENT_MAX_ITER = 60  # Gauss-Newton iterations per start
COMPLEMENT_STALL = 4  # a start gives up after this many non-decreasing norms in a row
COMPLEMENT_RCOND = 1e-12  # relative singular-value cut of the Gauss-Newton step
SANDWICH_PRECHECK_TOL = 1e-8  # solve_complement refuses (P, q) off the sandwich relations


@dataclass(frozen=True)
class InvariantVector:
    """Real parts of (u1, u2, u3) with the worst imaginary residue.

    ``imag_residue`` beyond ~1e-10 means the input was genuinely complex
    (non-Hermitian); ``is_complex`` flags that case and the full complex
    values are kept in ``complex_values``.
    """

    u1: float
    u2: float
    u3: float
    imag_residue: float
    complex_values: tuple[complex, complex, complex]

    @property
    def is_complex(self) -> bool:
        return self.imag_residue > IMAG_GUARD

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.u3])


def _tr(*mats) -> complex:
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
    return complex(np.trace(acc))


def u_invariants(P, q1, q2, q3) -> InvariantVector:
    """Evaluate (u1, u2, u3) by direct trace computation.

    Symmetric under any permutation of the three q's.  The relation
    residual of (P, q's) is deliberately not enforced here; callers that
    need on-locus guarantees check it themselves.
    """
    P, q1, q2, q3 = (as_matrix(m) for m in (P, q1, q2, q3))
    t12, t13, t23 = _tr(P, q1, P, q2), _tr(P, q1, P, q3), _tr(P, q2, P, q3)
    u1 = 36.0 * (t12 + t13 + t23)
    u2 = 216.0 * (_tr(P, q1, P, q2, P, q3) + _tr(P, q1, P, q3, P, q2))
    u3 = (36.0 * t12 - 1.0) * (36.0 * t23 - 1.0) * (36.0 * t13 - 1.0)
    residue = max(abs(u1.imag), abs(u2.imag), abs(u3.imag))
    return InvariantVector(u1.real, u2.real, u3.real, residue, (u1, u2, u3))


def u_invariants_directional(P, qs, dP, dqs) -> np.ndarray:
    """Analytic directional derivative of (u1, u2, u3).

    Inputs are the base point (P, q1..q3) and a tangent direction
    (dP, dq1..dq3); the derivative of each trace word is the sum over
    single-slot substitutions, so no finite differences are involved.
    """
    P = as_matrix(P)
    q = [as_matrix(m) for m in qs]
    dP = as_matrix(dP)
    dq = [as_matrix(m) for m in dqs]

    def d_tr4(i, j):
        return (_tr(dP, q[i], P, q[j]) + _tr(P, dq[i], P, q[j])
                + _tr(P, q[i], dP, q[j]) + _tr(P, q[i], P, dq[j]))

    def tr4(i, j):
        return _tr(P, q[i], P, q[j])

    def d_tr6(i, j, k):
        base = (P, q[i], P, q[j], P, q[k])
        dirs = (dP, dq[i], dP, dq[j], dP, dq[k])
        total = 0.0 + 0.0j
        for slot in range(6):
            word = list(base)
            word[slot] = dirs[slot]
            total += _tr(*word)
        return total

    dt12, dt13, dt23 = d_tr4(0, 1), d_tr4(0, 2), d_tr4(1, 2)
    du1 = 36.0 * (dt12 + dt13 + dt23)
    du2 = 216.0 * (d_tr6(0, 1, 2) + d_tr6(0, 2, 1))
    f12 = 36.0 * tr4(0, 1) - 1.0
    f23 = 36.0 * tr4(1, 2) - 1.0
    f13 = 36.0 * tr4(0, 2) - 1.0
    du3 = 36.0 * dt12 * f23 * f13 + f12 * 36.0 * dt23 * f13 + f12 * f23 * 36.0 * dt13
    return np.array([du1, du2, du3])


def z_functions(P, qs) -> tuple[float, float]:
    """(Tr Pq1Pq2, Tr Pq5Pq6) on a six-q point; real parts with residue guard."""
    if len(qs) != 6:
        raise ValueError("z functions need the full list of six q's")
    P = as_matrix(P)
    q = [as_matrix(m) for m in qs]
    z1 = _tr(P, q[0], P, q[1])
    z2 = _tr(P, q[4], P, q[5])
    return z1.real, z2.real


# ---------------------------------------------------------------------------
# Involutions.
# ---------------------------------------------------------------------------


def sigma(P) -> np.ndarray:
    """Complementary idempotent I - P; an exact involution."""
    P = as_matrix(P)
    if P.shape[0] != P.shape[1]:
        raise ValueError("sigma needs a square matrix")
    return np.eye(P.shape[0], dtype=np.complex128) - P


def tau(c: PairConfiguration) -> PairConfiguration:
    """Exchange the two projector systems; the relation set is symmetric."""
    return PairConfiguration(c.n, c.q, c.p)


def theta(c: PairConfiguration) -> PairConfiguration:
    """Replace every projector by its adjoint (anti-holomorphic involution)."""
    ps = [adjoint(p) for p in c.p]
    qs = [adjoint(q) for q in c.q]
    return pair_from_matrices(ps, qs)


# ---------------------------------------------------------------------------
# The ordered-pair trace identity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    gap: float


def identity_check(p_triple, q_triple) -> IdentityReport:
    """Both sides of the product identity at a pair of unbiased triples.

    Precondition: each triple consists of rank-1, pairwise-orthogonal
    idempotents and all nine cross traces equal 1/6 within IDENTITY_TOL (the
    identity is only claimed there).  The left side is the product over
    ordered pairs i != j of (36 Tr(P q_i P q_j) - 1) with P the sum of the
    p-triple; the right side exchanges the roles of the two triples.
    """
    p = [as_matrix(m) for m in p_triple]
    q = [as_matrix(m) for m in q_triple]
    if len(p) != 3 or len(q) != 3:
        raise ValueError("identity check needs two triples")
    for triple in (p, q):
        for i, a in enumerate(triple):
            if (spectral_norm(a @ a - a) > IDENTITY_TOL
                    or abs(np.trace(a) - 1.0) > IDENTITY_TOL):
                raise ValueError("triple member is not a rank-1 idempotent within tolerance")
            for j, b in enumerate(triple):
                if i != j and spectral_norm(a @ b) > IDENTITY_TOL:
                    raise ValueError("triple is not orthogonal within tolerance")
    for a in p:
        for b in q:
            if abs(np.trace(a @ b) - 1.0 / 6.0) > IDENTITY_TOL:
                raise ValueError("cross traces are not 1/6 within tolerance; identity not applicable")
    P = p[0] + p[1] + p[2]
    Q = q[0] + q[1] + q[2]
    lhs = 1.0 + 0.0j
    rhs = 1.0 + 0.0j
    for i in range(3):
        for j in range(3):
            if i != j:
                lhs *= 36.0 * _tr(P, q[i], P, q[j]) - 1.0
                rhs *= 36.0 * _tr(Q, p[i], Q, p[j]) - 1.0
    return IdentityReport(lhs.real, rhs.real, abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Complement solver: decompose I - P into a rank-1 unbiased triple.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplementResult:
    success: bool
    triple: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    residual: float
    attempts: int


def _complement_residual(vs, us, M, qs):
    r1 = np.array([us[i] @ vs[j] - (1.0 if i == j else 0.0) for i in range(3) for j in range(3)])
    r2 = (sum(np.outer(vs[k], us[k]) for k in range(3)) - M).ravel()
    r3 = np.array([us[i] @ qs[j] @ vs[i] - 1.0 / 6.0 for i in range(3) for j in range(6)])
    return np.concatenate([r1, r2, r3])


def _complement_jacobian(vs, us, qs):
    # columns: v_k at 6k + a, then u_k at 18 + 6k + a.  Every entry is written
    # once, as 0 + value, exactly as accumulating it entry by entry would
    d = 6
    J = np.zeros((9 + 36 + 18, 36), dtype=np.complex128)
    # rows (i, j): d(u_i . v_j)
    dual = J[:9].reshape(3, 3, 2, 3, d)
    i, j = np.divmod(np.arange(9), 3)
    dual[i, j, 0, j] += us[i]
    dual[i, j, 1, i] += vs[j]
    # rows (a, b): d(sum_k v_k u_k^T)[a, b]
    sums = J[9:45].reshape(d, d, 2, 3, d)
    a, b, k = np.arange(d)[:, None, None], np.arange(d)[None, :, None], np.arange(3)
    sums[a, b, 0, k, a] += us[k, b]
    sums[a, b, 1, k, b] += vs[k, a]
    # rows (i, j): d(u_i^T q_j v_i); the (1 x 6)(6 x 6) products are the
    # vector-matrix products of the loop, stacked
    Q = np.stack(qs)
    cross = J[45:].reshape(3, 6, 2, 3, d)
    i = np.arange(3)
    cross[i, :, 0, i] += (us[:, None, None, :] @ Q)[:, :, 0]
    cross[i, :, 1, i] += (Q @ vs[:, None, :, None])[..., 0]
    return J


def solve_complement(P, qs, seed: int) -> ComplementResult:
    """Find rank-1 idempotents p'_1 + p'_2 + p'_3 = I - P, orthogonal to each
    other and unbiased against all six q's.

    Each p'_i is factored as v_i u_i^T; the residual stacks the duality
    conditions u_i^T v_j = delta_ij, the sum condition, and the 18 cross
    traces, and is driven to zero by Gauss-Newton with a truncated
    pseudo-inverse (the factorisation carries a 3-dimensional scaling gauge,
    so the Jacobian is rank-deficient by design).  Starts are random
    orthonormal frames in the range of I - P and their dual rows; on
    exhaustion of the restart budget the best residual (the smallest norm
    of any iterate of any start) is reported and no triple is returned --
    never an unconverged one.
    """
    P = as_matrix(P)
    qs = [as_matrix(q) for q in qs]
    if len(qs) != 6 or P.shape != (6, 6):
        raise ValueError("complement solver works on six-dimensional points with six q's")
    pre = an_residual(P, qs, [float(np.trace(P).real) / 6.0] * 6)
    if pre > SANDWICH_PRECHECK_TOL:
        raise ValueError(f"(P, q) violates the sandwich relations: residual {pre:.3e}")
    M = np.eye(6, dtype=np.complex128) - P
    range_basis = np.linalg.svd(M)[0][:, :3]
    rng = np.random.default_rng(seed)

    def residual(x):  # x holds v_1, v_2, v_3, then u_1, u_2, u_3
        vs, us = x.reshape(2, 3, 6)
        return _complement_residual(vs, us, M, qs), lambda: _complement_jacobian(vs, us, qs)

    best = np.inf
    for attempt in range(1, COMPLEMENT_RESTARTS + 1):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        V, _ = np.linalg.qr(range_basis @ G)
        x0 = np.stack([V.T, V.conj().T @ M]).ravel()
        x, nr, _, converged = gauss_newton(residual, x0, COMPLEMENT_TOL, COMPLEMENT_MAX_ITER,
                                           COMPLEMENT_STALL, COMPLEMENT_RCOND)
        if converged:
            vs, us = x.reshape(2, 3, 6)
            return ComplementResult(True, tuple(np.outer(vs[i], us[i]) for i in range(3)),
                                    nr, attempt)
        best = min(best, nr)
    return ComplementResult(False, None, best, COMPLEMENT_RESTARTS)


# ---------------------------------------------------------------------------
# Membership of the real (mutually-unbiased) locus.
# ---------------------------------------------------------------------------


class Membership(Enum):
    NOT_THETA_STABLE = "not_theta_stable"
    THETA_STABLE_ONLY = "theta_stable_only"
    REAL_LOCUS = "real_locus"
    BOUNDARY_INDETERMINATE = "boundary_indeterminate"


@dataclass(frozen=True)
class MembershipResult:
    status: Membership
    conjugator: np.ndarray | None
    minors: tuple[float, ...] | None


def membership_test(c: PairConfiguration, tol: float = 1e-8) -> MembershipResult:
    """Classify a configuration against the adjoint involution.

    Solves the stacked linear system p^dag g = g p over all 2n projectors.
    No nonzero solution means the configuration is not equivalent to its
    adjoint.  Otherwise irreducibility makes the solution line unique; it is
    rotated to a Hermitian representative and the leading principal minors
    decide (Sylvester): all positive, or all of alternating sign starting
    negative (so -g is positive), certifies equivalence to a Hermitian
    configuration, i.e. a genuine pair of mutually unbiased bases.  Minors
    within tol * scale^k of zero make the strict inequalities undecidable
    and are flagged as boundary-indeterminate.  The irreducibility gate and
    the dimension of the solution space are rank decisions: without a
    decisive singular-value gap they raise IndeterminateDimension.
    """
    mats = c.matrices()
    if commutant_dimension(mats) != 1:
        raise ValueError("configuration is reducible; the conjugator is not unique")
    d = c.n
    eye = np.eye(d)
    blocks = [np.kron(m.conj().T, eye) - np.kron(eye, m.T) for m in mats]
    K = np.vstack(blocks)
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    nullity = K.shape[1] - decide_rank(s, tol, "conjugator space").rank
    if nullity == 0:
        return MembershipResult(Membership.NOT_THETA_STABLE, None, None)
    if nullity > 1:
        raise ValueError(f"conjugator space has dimension {nullity}; configuration degenerate")
    g = vh[-1].conj().reshape(d, d)
    # rotate the line so that g is Hermitian: if g^dag = c g with |c| = 1,
    # multiplying by exp(i arg(c)/2) lands on the Hermitian representative
    phase = np.vdot(g.ravel(), g.conj().T.ravel())
    g = g * np.exp(1j * np.angle(phase) / 2.0)
    herm_defect = spectral_norm(g - g.conj().T)
    g = (g + g.conj().T) / 2.0
    g = g / spectral_norm(g)
    if herm_defect > 1e-6:
        raise ArithmeticError(f"conjugator failed to normalise to Hermitian (defect {herm_defect:.3e})")
    scale = float(np.max(np.abs(g)))
    minors = []
    for k in range(1, d + 1):
        mk = np.linalg.det(g[:k, :k])
        minors.append(float(mk.real))
    thresholds = [tol * scale ** k for k in range(1, d + 1)]
    pos = all(m > t for m, t in zip(minors, thresholds))
    # -g positive definite: minors alternate in sign starting negative
    neg = all(((-1) ** k) * m > t for k, (m, t) in enumerate(zip(minors, thresholds), start=1))
    if pos or neg:
        return MembershipResult(Membership.REAL_LOCUS, g, tuple(minors))
    near_zero = any(abs(m) <= t for m, t in zip(minors, thresholds))
    if near_zero:
        return MembershipResult(Membership.BOUNDARY_INDETERMINATE, g, tuple(minors))
    return MembershipResult(Membership.THETA_STABLE_ONLY, g, tuple(minors))
