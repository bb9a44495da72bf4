"""Moduli invariants, the trace identity and companion solvers.

The scalar invariants attached to a rank-3 idempotent P and a triple of
rank-1 idempotents q_1, q_2, q_3 in dimension 6 are

    u1 = 36 (Tr Pq1Pq2 + Tr Pq1Pq3 + Tr Pq2Pq3)
    u2 = 216 (Tr Pq1Pq2Pq3 + Tr Pq1Pq3Pq2)
    u3 = (36 Tr Pq1Pq2 - 1)(36 Tr Pq2Pq3 - 1)(36 Tr Pq3Pq1 - 1)

together with z1 = Tr Pq1Pq2 and z2 = Tr Pq5Pq6 on full six-q points.  The
five trace words are written once, as U_WORDS; the differential of the u's is
the gradient of U_WORDS, contracted with a stack of directions at once.
Every trace word (U_WORDS, their gradient's cofactor words, the z words and
the identity's pair words) is multiplied out by the one product kernel,
:func:`orthopair.relations.word_products`.  On the sandwich relation locus
(q_i P q_i = q_i / 2, q_i rank 1) all three factor through (P, Q = sum q_i):

    u1 = (1/2) * 36 Tr(PQPQ) - 27/2
    u2 = 72 Tr(PQPQPQ) - 108 Tr(PQPQ) + 54

with constants fixed once by the exact-arithmetic oracle in
:mod:`orthopair.exact` (exact.fit_u1_constants, exact.fit_u2_constants).

On Hermitian inputs every reported invariant is real because each trace is
paired with the trace of the reversed word; the worst imaginary part is
reported as a residue, and non-Hermitian (genuinely complex) values are kept
whole in ``complex_values`` rather than truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .config import PairConfiguration
from .linalg import RANK_TOL, OffVariety, as_matrix, decide_rank, gauss_newton, lstsq_step, range_factors, spectral_norm
from .relations import (
    RELATION_TOL,
    bipartite_relation_terms,
    pair_relation_terms,
    require_relations,
    sandwich_relation_terms,
    word_products,
)

__all__ = [
    "InvariantVector",
    "IdentityReport",
    "U_WORDS",
    "u_word_traces",
    "u3_factors",
    "u_invariants",
    "u_invariants_directional",
    "z_functions",
    "identity_check",
    "ComplementResult",
    "solve_complement",
    "Membership",
    "MembershipResult",
    "membership_test",
]

COMPLEMENT_RESTARTS = 20
COMPLEMENT_TOL = 1e-11  # a solver start converges at this residual
COMPLEMENT_MAX_ITER = 60  # Gauss-Newton iterations per start
COMPLEMENT_WINDOW = 8  # a start gives up when its norm has not halved over this many steps
COMPLEMENT_RCOND = 1e-12  # relative singular-value cut of the Gauss-Newton step
COMPLEMENT_RANK_TOL = 1e-8  # solve_complement: the rank cut of I - P


@dataclass(frozen=True)
class InvariantVector:
    """Real parts of (u1, u2, u3) with the worst imaginary residue.

    ``imag_residue`` beyond ~1e-10 means the input was genuinely complex
    (non-Hermitian); the full complex values are kept in ``complex_values``.
    """

    u1: float
    u2: float
    u3: float
    imag_residue: float
    complex_values: tuple[complex, complex, complex]

    @classmethod
    def from_traces(cls, traces) -> InvariantVector:
        """(u1, u2, u3) of the five traces of U_WORDS at one point."""
        u1 = 36.0 * (traces[0] + traces[1] + traces[2])
        u2 = 216.0 * (traces[3] + traces[4])
        u3 = _u3(traces)
        residue = max(abs(u1.imag), abs(u2.imag), abs(u3.imag))
        return cls(u1.real, u2.real, u3.real, residue, (u1, u2, u3))


# The u's as trace words over the generators (P, q1, q2, q3): the pair words
# t12, t13, t23, then the two cubic words of u2.
U_WORDS = ((0, 1, 0, 2), (0, 1, 0, 3), (0, 2, 0, 3), (0, 1, 0, 2, 0, 3), (0, 1, 0, 3, 0, 2))
# slot s of U_WORDS[k] as (k, its generator, the cyclic product of the other slots)
_COFACTORS = tuple((k, g, word[s + 1:] + word[:s]) for k, word in enumerate(U_WORDS) for s, g in enumerate(word))
_COFACTOR_WORDS = tuple(w for _, _, w in _COFACTORS)
_Z_WORDS = ((0, 1, 0, 2), (0, 5, 0, 6))  # Tr Pq1Pq2 and Tr Pq5Pq6 over (P, q1..q6)


def u_word_traces(P, qs) -> list:
    """Traces of U_WORDS at (P, q1, q2, q3), each product taken left to right.

    The generators are matrices, or stacks of them with leading batch axes
    that broadcast together as in ``np.matmul``.  One entry per word: a
    Python complex number for matrices, the list of a stack's traces (nested
    as its batch axes) for stacks, whose traces are bit-equal to those of
    each point alone.
    """
    gens = [np.asarray(m, dtype=np.complex128) for m in (P, *qs)]
    for m in gens:  # a stack is checked as the matrix of all its rows
        as_matrix(m.reshape(-1, m.shape[-1]) if m.ndim > 2 else m)
    return np.trace(word_products(np.stack(np.broadcast_arrays(*gens)), U_WORDS), axis1=-2, axis2=-1).tolist()


def u3_factors(traces) -> tuple[complex, complex, complex]:
    """The factors 36 Tr(P q_i P q_j) - 1 of u3 for (i, j) = (1, 2), (1, 3), (2, 3)."""
    return tuple(36.0 * t - 1.0 for t in traces[:3])


def _u3(traces) -> complex:
    """u3 from the three pair traces of U_WORDS."""
    f12, f13, f23 = u3_factors(traces)
    return f12 * f23 * f13


def _u_chain(traces) -> np.ndarray:
    """The 3 x 5 derivative of (u1, u2, u3) in the traces of U_WORDS."""
    f12, f13, f23 = u3_factors(traces)
    return np.array([[36.0, 36.0, 36.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 216.0, 216.0],
                     [36.0 * f13 * f23, 36.0 * f12 * f23, 36.0 * f12 * f13, 0.0, 0.0]])


def u_invariants(P, q1, q2, q3) -> InvariantVector:
    """Evaluate (u1, u2, u3) from the traces of U_WORDS.

    Symmetric under any permutation of the three q's.  The relation
    residual of (P, q's) is deliberately not enforced here; callers that
    need on-locus guarantees check it themselves.
    """
    return InvariantVector.from_traces(u_word_traces(P, (q1, q2, q3)))


def _word_gradients(gens) -> np.ndarray:
    """G with d Tr(U_WORDS[k]) = sum over g of sum(G[k, g] * dX_g).

    Tr(A_1 ... dA_s ... A_L) = sum(dA_s * (A_{s+1} ... A_L A_1 ... A_{s-1})^T):
    each slot adds the transposed cyclic product of the other slots to the
    gradient of its generator.
    """
    G = np.zeros((len(U_WORDS), *gens.shape), dtype=np.complex128)
    for (k, g, _), prod in zip(_COFACTORS, word_products(gens, _COFACTOR_WORDS)):
        G[k, g] += prod.T
    return G


def u_invariants_directional(P, qs, dP, dqs) -> np.ndarray:
    """Analytic differential of (u1, u2, u3) on a stack of m directions.

    ``dP`` and each of the three ``dqs`` are d x d x m, direction k being
    (dP[..., k], dq1[..., k], dq2[..., k], dq3[..., k]); the result is 3 x m.
    The chain rule times the gradient of U_WORDS is one 3 x 4d^2 matrix,
    applied to all m directions in one product.
    """
    gens = np.stack([as_matrix(m) for m in (P, *qs)])
    traces = np.trace(word_products(gens, U_WORDS), axis1=1, axis2=2).tolist()
    grad = _u_chain(traces) @ _word_gradients(gens).reshape(len(U_WORDS), -1)
    return grad @ np.stack([dP, *dqs]).reshape(grad.shape[1], -1)


def z_functions(P, qs) -> tuple[float, float]:
    """The real parts of (Tr Pq1Pq2, Tr Pq5Pq6) on a six-q point; their
    imaginary parts are dropped unreported."""
    if len(qs) != 6:
        raise ValueError("z functions need the full list of six q's")
    z = word_products(np.stack([as_matrix(m) for m in (P, *qs)]), _Z_WORDS)
    return tuple(np.trace(z, axis1=1, axis2=2).real.tolist())


# ---------------------------------------------------------------------------
# The ordered-pair trace identity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    gap: float


def _require_system(mats, terms, what: str) -> np.ndarray:
    """The generator stack of ``mats``; OffVariety unless, within
    RELATION_TOL, they satisfy ``terms`` and have unit traces, which
    idempotency and products alone do not force (the residual is then the
    largest trace deviation)."""
    require_relations(mats, terms, what)
    gens = np.asarray(mats, dtype=np.complex128)
    if (dev := float(np.abs(np.trace(gens, axis1=1, axis2=2) - 1.0).max())) > RELATION_TOL:
        raise OffVariety(f"{what}: a member is not of unit trace within {RELATION_TOL:.1e}", dev)
    return gens


def identity_check(p_triple, q_triple) -> IdentityReport:
    """Both sides of the product identity at a pair of unbiased triples.

    The six matrices must be 6 x 6 (else ValueError).  Precondition, within
    RELATION_TOL: they satisfy the 3+3 graph relations at r = 1/6
    (idempotents, orthogonal within a triple, x_i x_j x_i = x_i / 6 across)
    and have unit traces; the identity is only claimed there.  The left side is the product over ordered pairs i != j
    of (36 Tr(P q_i P q_j) - 1) with P the sum of the p-triple; the right
    side exchanges the roles of the two triples.  By cyclicity the pairs
    (i, j) and (j, i) give the same factor, so each side is the square of u3
    of its triple, read from the three pair words of U_WORDS: one word
    product over the generators (P | Q, q_m | p_m), a side on its batch axis.
    """
    p, q = list(p_triple), list(q_triple)
    if len(p) != 3 or len(q) != 3:
        raise ValueError("identity check needs two triples")
    if any(np.shape(m) != (6, 6) for m in p + q):
        raise ValueError("identity check works on six-dimensional points")
    # the relation gate converts the six matrices, naming one that is not finite as as_matrix does
    gens = _require_system(p + q, bipartite_relation_terms(3, 3, 1.0 / 6.0),
                           "identity not applicable to these triples")
    triples = gens.reshape(2, 3, *gens.shape[1:])  # [side, member]: the p's, the q's
    sums = triples[:, 0] + triples[:, 1] + triples[:, 2]  # P, then Q
    stack = np.concatenate([sums[None], triples[::-1].swapaxes(0, 1)])  # [generator, side]
    traces = np.trace(word_products(stack, U_WORDS[:3]), axis1=2, axis2=3)  # [word, side]
    lhs, rhs = (_u3(t) ** 2 for t in traces.T.tolist())
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


def _cross_residual(A, X):
    """The 18 cross traces (A^-1 X_j A)_ii - 1/6, rows (i, j), and a callable
    for their Jacobian in A.  With W_j = A^-1 X_j and Y_j = W_j A,
    d(A^-1 X_j A) = W_j dA - A^-1 dA Y_j, so row (i, j) reads
    W_j[i, m] [l = i] - A^-1[i, m] Y_j[l, i] in dA[m, l]."""
    Ainv = np.linalg.inv(A)
    W = Ainv @ X
    Y = W @ A
    i = np.arange(3)

    def jacobian():
        J = -Ainv[:, None, :, None] * Y.transpose(2, 0, 1)[:, :, None, :]
        J[i, :, :, i] += W[:, i].transpose(1, 0, 2)
        return J.reshape(18, 9)

    return Y[:, i, i].T.ravel() - 1.0 / 6.0, jacobian


def solve_complement(P, qs, seed: int) -> ComplementResult:
    """Find rank-1 idempotents p'_1 + p'_2 + p'_3 = I - P, orthogonal to each
    other and unbiased against all six q's.

    (P, q) must satisfy the sandwich relations within RELATION_TOL (else
    OffVariety).  The rank of M = I - P is decided by
    :func:`~orthopair.linalg.range_factors` at COMPLEMENT_RANK_TOL, and only a
    decisive rank 3 is solved.  With B the top three left singular vectors
    of M and C = B^H M (so M = B C and C B = I), p'_k = v_k u_k^T for
    v_k the columns of B A and u_k the rows of A^-1 C, A in GL(3).  Duality
    u_i^T v_j = delta_ij and the sum then hold identically, which leaves the
    18 cross traces (A^-1 X_j A)_ii - 1/6, X_j = C q_j B, in 9 unknowns.
    Gauss-Newton with a truncated pseudo-inverse solves them (A -> A D, D
    diagonal, is a gauge).  Starts are random orthonormal frames V of the
    range of M, A = B^H V.  ``residual`` is the norm of the 18 cross traces;
    after the last failed start it is the smallest norm of any iterate, and
    no triple is returned -- never an unconverged one.
    """
    P = as_matrix(P)
    qs = [as_matrix(q) for q in qs]
    if len(qs) != 6 or P.shape != (6, 6):
        raise ValueError("complement solver works on six-dimensional points with six q's")
    require_relations([P] + qs, sandwich_relation_terms(6, float(np.trace(P).real) / 6.0),
                      "(P, q) violates the sandwich relations")
    [(B, C)], _ = range_factors((np.eye(6) - P)[None], COMPLEMENT_RANK_TOL, ["rank of I - P"])
    if B.shape[1] != 3:
        raise ValueError(f"I - P has rank {B.shape[1]}; the complement triple needs rank 3")
    X = C @ np.stack(qs) @ B
    rng = np.random.default_rng(seed)

    best = np.inf
    for attempt in range(1, COMPLEMENT_RESTARTS + 1):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        V, _ = np.linalg.qr(B @ G)
        x, nr, _, converged = gauss_newton(lambda x: _cross_residual(x.reshape(3, 3), X),
                                           (B.conj().T @ V).ravel(), COMPLEMENT_TOL,
                                           COMPLEMENT_MAX_ITER, COMPLEMENT_WINDOW, lstsq_step(COMPLEMENT_RCOND))
        if converged:  # p'_k is the outer product of column k of B A and row k of A^-1 C
            A = x.reshape(3, 3)
            triple = np.einsum("ak,kb->kab", B @ A, np.linalg.inv(A) @ C)
            return ComplementResult(True, tuple(triple), nr, attempt)
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
    eigenvalues: tuple[float, ...] | None


@lru_cache
def _p_relation_terms(n: int) -> tuple:
    """The relations of pair_relation_terms(n) among the p's alone."""
    return tuple(rel for rel in pair_relation_terms(n) if all(g < n for _, w in rel[1] for g in w))


def membership_test(c: PairConfiguration, tol: float = 1e-8) -> MembershipResult:
    """Classify a configuration against the adjoint involution.

    Solves p^dag g = g p over all 2n projectors in the basis of the p's,
    which must be a complete system of rank-1 idempotents within
    RELATION_TOL (else OffVariety).  The p equations then hold exactly on
    the span of G_k = p_k^dag p_k, and the commutant of the p's is the span
    of the p_k: column k of the conjugator operator stacks q_j^dag G_k -
    G_k q_j over j, of the commutant operator p_k q_j - q_j p_k, and one
    batched SVD factorises both.  No nonzero solution means the
    configuration is not equivalent to its adjoint.  Otherwise
    irreducibility makes the solution line unique; it is rotated to a
    Hermitian representative g, scaled so that its eigenvalue of largest
    modulus is 1, and its inertia, which conjugation leaves unchanged,
    decides: ``eigenvalues`` (ascending) all positive certify equivalence to
    a Hermitian configuration, i.e. a genuine pair of mutually unbiased
    bases; both signs leave it theta-stable only, and one within tol of
    zero boundary-indeterminate.  The irreducibility gate and the dimension
    of the solution space are rank decisions: without a decisive
    singular-value gap they raise IndeterminateDimension.
    """
    n = c.n
    p = _require_system(c.p, _p_relation_terms(n), "the p's are not a complete system of rank-1 idempotents")
    q = np.stack(c.q)[:, None]  # p[k], q[j, 0]
    G = p.conj().transpose(0, 2, 1) @ p  # G_k = p_k^dag p_k
    ops = np.stack([q.conj().transpose(0, 1, 3, 2) @ G - G @ q, p @ q - q @ p])  # [operator, j, k]
    _, s, vh = np.linalg.svd(np.moveaxis(ops, 2, -1).reshape(2, -1, n), full_matrices=False)
    if n - decide_rank(s[1], RANK_TOL, "joint commutant").rank != 1:
        raise ValueError("configuration is reducible; the conjugator is not unique")
    nullity = n - decide_rank(s[0], tol, "conjugator space").rank
    if nullity == 0:
        return MembershipResult(Membership.NOT_THETA_STABLE, None, None)
    if nullity > 1:
        raise ValueError(f"conjugator space has dimension {nullity}; configuration degenerate")
    g = np.tensordot(vh[0, -1].conj(), G, 1)
    g = g / np.linalg.norm(g)
    # rotate the line so that g is Hermitian: if g^dag = c g with |c| = 1,
    # multiplying by exp(i arg(c)/2) lands on the Hermitian representative
    phase = np.vdot(g.ravel(), g.conj().T.ravel())
    g = g * np.exp(1j * np.angle(phase) / 2.0)
    herm_defect = spectral_norm(g - g.conj().T)
    if herm_defect > 1e-6:
        raise ArithmeticError(f"conjugator failed to normalise to Hermitian (defect {herm_defect:.3e})")
    g = (g + g.conj().T) / 2.0
    lam = np.linalg.eigvalsh(g)
    scale = lam[np.argmax(np.abs(lam))]  # the line's sign: its largest |lambda| becomes +1
    g, lam = g / scale, np.sort(lam / scale)
    if np.min(np.abs(lam)) <= tol:
        return MembershipResult(Membership.BOUNDARY_INDETERMINATE, g, tuple(lam.tolist()))
    definite = lam[0] > 0  # ascending, and lam[-1] = 1: all of one sign
    return MembershipResult(Membership.REAL_LOCUS if definite else Membership.THETA_STABLE_ONLY, g,
                            tuple(lam.tolist()))
