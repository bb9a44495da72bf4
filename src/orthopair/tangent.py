"""Zariski tangent computations at representation points.

The relation systems of :mod:`orthopair.relations` are polynomial (hence
complex-analytic) maps in the generator-matrix entries.  Their analytic
Jacobians are assembled term by term: the derivative of a word with respect
to one generator is the sum over its occurrences of prefix (x) suffix^T in
row-major vec convention.

Dimension decisions are never taken on faith: every rank cut goes through
:func:`orthopair.linalg.decide_rank`, which refuses with
:class:`IndeterminateDimension` carrying the full spectrum unless the cut
exhibits a singular-value gap ratio of at least GAP_RATIO_REQUIRED.

The moduli tangent dimension at a point with scalar stabiliser is the
(complex) nullity of the relation Jacobian minus the dimension of the
conjugation-orbit tangent, span{([xi, m_1], ..., [xi, m_k])}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HadamardPoint, PairConfiguration
from .linalg import GAP_RATIO_REQUIRED, IndeterminateDimension, as_matrix, decide_rank
from .relations import (
    AlgebraRepPoint,
    Relation,
    commutant_dimension,
    evaluate_relations,
    evaluate_word,
    pair_relation_terms,
)

__all__ = [
    "GAP_RATIO_REQUIRED",
    "IndeterminateDimension",
    "JacobianSystem",
    "TangentReport",
    "rep_jacobian",
    "relation_residual_vector",
    "orbit_tangent_dim",
    "moduli_tangent_report",
    "a6_moduli_tangent_report",
    "x33_moduli_tangent_report",
    "phase_constraints",
    "defect_report",
    "FiberRankReport",
    "fiber_rank_check",
]

RESIDUAL_GATE = 1e-8


# ---------------------------------------------------------------------------
# Relation Jacobians.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianSystem:
    """Complex analytic Jacobian of a relation system at a base point.

    ``jacobian`` has one block of d^2 rows per relation and one block of
    d^2 columns per generator in ``matrices``, both in row-major vec order.
    """

    matrices: list[np.ndarray]
    jacobian: np.ndarray
    relation_names: tuple[str, ...]
    base_residual: float


def relation_residual_vector(mats, relations: list[Relation]) -> np.ndarray:
    """Stacked complex residual vector of all relations (row-major blocks)."""
    mats = [as_matrix(m) for m in mats]
    d = mats[0].shape[0]
    out = []
    for _, terms in relations:
        acc = np.zeros((d, d), dtype=np.complex128)
        for coeff, word in terms:
            acc += coeff * evaluate_word(mats, word, d)
        out.append(acc.ravel())
    return np.concatenate(out)


def _complex_jacobian(mats, relations: list[Relation]) -> np.ndarray:
    d = mats[0].shape[0]
    nv = len(mats)
    J = np.zeros((len(relations) * d * d, nv * d * d), dtype=np.complex128)
    for ri, (_, terms) in enumerate(relations):
        rows = slice(ri * d * d, (ri + 1) * d * d)
        for coeff, word in terms:
            for pos, v in enumerate(word):
                pre = evaluate_word(mats, word[:pos], d)
                suf = evaluate_word(mats, word[pos + 1:], d)
                J[rows, v * d * d:(v + 1) * d * d] += coeff * np.kron(pre, suf.T)
    return J


def _generators(point) -> tuple[list[np.ndarray], list[Relation] | None]:
    """Generator matrices of a point and its relation terms.

    A plain sequence of matrices has no relation terms (None); only the
    conjugation orbit, which needs none, accepts one.
    """
    if isinstance(point, PairConfiguration):
        return point.matrices(), pair_relation_terms(point.n)
    if isinstance(point, AlgebraRepPoint):
        return [as_matrix(m) for m in point.matrices], point.relation_terms()
    return [as_matrix(m) for m in point], None


def rep_jacobian(point) -> JacobianSystem:
    """Analytic Jacobian of the point's relation system.

    Refuses points whose relation residual exceeds the gate: tangent
    analysis at non-solutions is meaningless.
    """
    mats, terms = _generators(point)
    if terms is None:
        raise TypeError(f"cannot build a relation Jacobian for {type(point).__name__}")
    residual, _ = evaluate_relations(mats, terms)
    if residual > RESIDUAL_GATE:
        raise ValueError(f"relation residual {residual:.3e} exceeds {RESIDUAL_GATE:.1e}; "
                         "not a representation point")
    return JacobianSystem(mats, _complex_jacobian(mats, terms),
                          tuple(name for name, _ in terms), residual)


def _variable_scales(mats) -> np.ndarray:
    """Per-variable column scaling (unit spectral norm); preserves nullity."""
    scales = []
    for m in mats:
        nrm = float(np.linalg.norm(m, 2))
        scales.append(nrm if nrm > 0 else 1.0)
    return np.array(scales)


def orbit_tangent_dim(point, tol: float = 1e-10) -> int:
    """Dimension of the conjugation-orbit tangent at the point.

    The orbit tangent is span{([xi, m] for all generators m)}, the image of
    the commutator map, so its dimension is d^2 minus the joint commutant
    dimension.  Accepts a point or a plain sequence of generator matrices.
    """
    mats, _ = _generators(point)
    d = mats[0].shape[0]
    return d * d - commutant_dimension(mats, tol)


@dataclass(frozen=True)
class TangentReport:
    """Moduli tangent dimension with the evidence behind the decision."""

    nullity: int
    orbit_dim: int
    moduli_dim: int
    gap_ratio: float
    singular_values: np.ndarray
    base_residual: float

    def to_json_dict(self) -> dict:
        return {
            "nullity": self.nullity,
            "orbit_dim": self.orbit_dim,
            "moduli_dim": self.moduli_dim,
            "gap_ratio": self.gap_ratio,
            "singular_values": [float(x) for x in self.singular_values],
        }


def _moduli_report(point, tol: float, what: str) -> TangentReport:
    system = rep_jacobian(point)
    d = system.matrices[0].shape[0]
    col_scale = np.repeat(_variable_scales(system.matrices), d * d)
    s = np.linalg.svd(system.jacobian * col_scale[None, :], compute_uv=False)
    cut = decide_rank(s, tol, what)
    nullity = system.jacobian.shape[1] - cut.rank
    orbit = orbit_tangent_dim(system.matrices, tol)
    return TangentReport(nullity, orbit, nullity - orbit, cut.gap_ratio, s, system.base_residual)


def moduli_tangent_report(c: PairConfiguration, tol: float = 1e-10) -> TangentReport:
    """Moduli tangent dimension of a full pair configuration."""
    return _moduli_report(c, tol, "pair moduli tangent")


def a6_moduli_tangent_report(point: AlgebraRepPoint, tol: float = 1e-10) -> TangentReport:
    """Moduli tangent dimension of a sandwich-algebra point (P, q_1..q_6).

    The point must be irreducible (scalar commutant); reducible points have
    non-unique orbit bookkeeping and are refused.
    """
    if point.algebra != "sandwich":
        raise ValueError("expected a sandwich-algebra point")
    if commutant_dimension(point.matrices) != 1:
        raise ValueError("point is reducible; moduli tangent undefined here")
    return _moduli_report(point, tol, "sandwich moduli tangent")


def x33_moduli_tangent_report(point: AlgebraRepPoint, tol: float = 1e-10) -> TangentReport:
    """Moduli tangent dimension of a bipartite 3+3 graph point in dimension 6.

    No sum constraints are imposed; the rank-1 conditions are checked via
    the traces of the generators.
    """
    if point.algebra != "graph" or len(point.matrices) != 6:
        raise ValueError("expected a graph point on the 3+3 complete bipartite graph")
    for m in point.matrices:
        if abs(np.trace(m) - 1.0) > RESIDUAL_GATE:
            raise ValueError("graph point generators must be rank-1 idempotents")
    return _moduli_report(point, tol, "bipartite 3+3 moduli tangent")


# ---------------------------------------------------------------------------
# Dephased Hadamard defect.
# ---------------------------------------------------------------------------


def phase_constraints(h: HadamardPoint) -> tuple[np.ndarray, np.ndarray]:
    """Unitarity constraints and their real Jacobian in phase coordinates.

    The reconstructed matrix has all entry moduli pinned to 1/sqrt(n), so
    the diagonal Gram conditions hold identically; the constraints are the
    off-diagonal Gram entries G_jk (j < k), split into real and imaginary
    parts.  Returns (c, J) with c of length n(n-1) and J of shape
    (n(n-1), (n-1)^2); dG_jk / dphi_ab = i conj(U_aj) U_ak (delta_kb - delta_jb).
    """
    u = h.reconstruct()
    n = h.n
    idx = np.arange(n)
    j, k = np.nonzero(idx[:, None] < idx)  # constraint rows (j, k), j < k, row-major
    rows = np.arange(j.size)
    cvec = (u.conj().T @ u)[j, k]
    # v[a-1, r] = i conj(U_aj) U_ak for row r = (j, k), written in the real
    # arithmetic of the scalar complex product so that J stays bit-identical
    # to accumulating it entry by entry
    x, y = u[1:, j], u[1:, k]
    v = np.empty(x.shape, dtype=np.complex128)
    v.real = x.imag * y.real - x.real * y.imag
    v.imag = x.imag * y.imag + x.real * y.real
    # phase (a, b) is column (a-1)(n-1) + (b-1); the pinned column b = 0 has none
    col = idx[:-1, None] * (n - 1) - 1
    Jc = np.zeros((j.size, (n - 1) ** 2), dtype=np.complex128)
    Jc[rows, col + k] += v
    free = j >= 1
    Jc[rows[free], (col + j)[:, free]] -= v[:, free]
    return np.concatenate([cvec.real, cvec.imag]), np.vstack([Jc.real, Jc.imag])


@dataclass(frozen=True)
class DefectReport:
    """Dephased defect: the real nullity of the unitarity Jacobian in phase
    coordinates, i.e. the dimension of the local family of complex Hadamard
    matrices through the point with all gauge freedom removed.

    ``kernel`` holds an orthonormal basis of that kernel as columns.
    """

    defect: int
    gap_ratio: float
    singular_values: np.ndarray
    unitarity_residual: float
    kernel: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "nullity": self.defect,
            "orbit_dim": 0,
            "moduli_dim": self.defect,
            "gap_ratio": self.gap_ratio,
            "singular_values": [float(x) for x in self.singular_values],
        }


def defect_report(h: HadamardPoint, tol: float = 1e-10) -> DefectReport:
    res = h.unitarity_residual()
    if res > RESIDUAL_GATE:
        raise ValueError(f"unitarity residual {res:.3e} exceeds {RESIDUAL_GATE:.1e}")
    _, J = phase_constraints(h)
    _, s, vt = np.linalg.svd(J)
    cut = decide_rank(s, tol, "dephased defect")
    return DefectReport(J.shape[1] - cut.rank, cut.gap_ratio, s, res, vt[cut.rank:].T)


# ---------------------------------------------------------------------------
# Rank of the invariant map on the moduli tangent (fiber dimension check).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberRankReport:
    rank: int
    singular_values: np.ndarray
    moduli_dim: int
    degenerate_u3: bool


def fiber_rank_check(point: AlgebraRepPoint, tol: float = 1e-10) -> FiberRankReport:
    """Rank of d(u1, u2, u3) on the kernel of the 3+3 graph relation Jacobian.

    The u's are conjugation-invariant, so orbit directions contribute
    nothing and the rank equals the rank on the moduli tangent; generically
    it is 3, making the fibers of the invariant map curves.  Points where
    two factors of u3 vanish simultaneously can drop rank and are flagged
    (``degenerate_u3``) rather than asserted against.

    The invariant differential has its own looser cut (at least 1e-8) and
    counts as rank 0 below an absolute floor.
    """
    from .invariants import u_invariants_directional

    if point.algebra != "graph" or len(point.matrices) != 6:
        raise ValueError("fiber rank is computed on 3+3 graph restriction points")
    system = rep_jacobian(point)
    mats, Jc = system.matrices, system.jacobian
    _, s, vh = np.linalg.svd(Jc, full_matrices=False)
    nullity = Jc.shape[1] - decide_rank(s, tol, "graph relation kernel").rank
    d = mats[0].shape[0]
    P = mats[0] + mats[1] + mats[2]
    qs = mats[3:]
    columns = []
    for kv in range(nullity):
        vec = vh[-1 - kv].conj()
        dm = [vec[i * d * d:(i + 1) * d * d].reshape(d, d) for i in range(6)]
        dP = dm[0] + dm[1] + dm[2]
        columns.append(u_invariants_directional(P, qs, dP, dm[3:]))
    D = np.array(columns).T
    sd = np.linalg.svd(D, compute_uv=False)
    if sd.size == 0 or sd[0] < 1e-12:
        rank = 0
    else:
        rank = decide_rank(sd, max(tol, 1e-8), "invariant differential rank").rank
    factors = []
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        t = np.trace(P @ qs[i] @ P @ qs[j])
        factors.append(abs(36.0 * t - 1.0))
    degenerate = sum(1 for f in factors if f < 1e-6) >= 2
    orbit = orbit_tangent_dim(mats, tol)
    return FiberRankReport(rank, sd, nullity - orbit, degenerate)
