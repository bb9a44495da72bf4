"""Zariski tangent computations at representation points.

The relation systems of :mod:`orthopair.relations` are polynomial (hence
complex-analytic) maps in the generator matrices.  Every generator of these
systems is an idempotent, so it has constant rank k_a near the point and is
factored as X_a = V_a W_a^T with V_a of d x k_a orthonormal columns and
W_a^T V_a = I.  The tangent kernel is computed in these factors:

* a relation whose words all start with generator a and end with generator c
  equals V_a C W_c^T, so it reduces to its k_a x k_c core C, a polynomial in
  the Gram blocks G_ab = W_a^T V_b: idempotency becomes G_aa - I, a non-edge
  G_ij, an edge or sandwich relation G_ij G_ji - r I;
* any other relation (the sum-to-identity relations) is pulled back whole,
  X_a -> V_a W_a^T.

Jacobians are assembled term by term from the same ``relation_terms`` that
drive the residuals: the derivative of a product with respect to one factor
is the sum over its occurrences of prefix (x) suffix^T in row-major vec
convention.  At an n = 6 pair this is a 216 x 144 complex matrix (144 rank-1
cores and 36 rows per sum relation; 2d columns per generator) where the
dense Jacobian in the generator entries is 5256 x 432.

The idempotency relations confine the dense tangent to the rank-k_a tangent
of every generator, and the factor map (V_a, W_a^T) -> V_a W_a^T is onto that
tangent with kernel the GL(k_a) gauge (V_a g, g^-1 W_a^T).  Hence

    dense Zariski nullity = factored nullity - sum_a k_a^2,

12 at an n = 6 pair and 9 + 6 at a sandwich point with P of rank 3.  The
moduli tangent dimension at a point with scalar stabiliser is that nullity
minus the dimension of the conjugation-orbit tangent,
span{([xi, m_1], ..., [xi, m_k])}, taken from the joint commutant.

Dimension decisions are never taken on faith: every rank cut -- each
generator's factor rank included -- goes through
:func:`orthopair.linalg.decide_rank`, which refuses with
:class:`IndeterminateDimension` carrying the full spectrum unless the cut
exhibits a singular-value gap ratio of at least GAP_RATIO_REQUIRED.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HadamardPoint, PairConfiguration
from .invariants import u_invariants_directional
from .linalg import GAP_RATIO_REQUIRED, IndeterminateDimension, as_matrix, decide_rank
from .relations import (
    AlgebraRepPoint,
    Relation,
    commutant_dimension,
    evaluate_relations,
    pair_relation_terms,
)

__all__ = [
    "GAP_RATIO_REQUIRED",
    "IndeterminateDimension",
    "JacobianSystem",
    "TangentReport",
    "rep_jacobian",
    "factored_residual_vector",
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
FACTOR_TOL = 1e-10  # relative cut of each generator's factor rank


# ---------------------------------------------------------------------------
# Rank-factored relation Jacobians.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianSystem:
    """Complex analytic Jacobian of a relation system in rank factors.

    ``factors[a]`` is (V_a, W_a^T) with X_a = V_a W_a^T.  ``jacobian`` has
    one block of rows per relation (its core, or d^2 rows for a relation
    pulled back whole) and, per generator, a block of d k_a columns for
    vec(V_a) followed by one for vec(W_a^T), all in row-major vec order.
    """

    matrices: list[np.ndarray]
    factors: list[tuple[np.ndarray, np.ndarray]]
    jacobian: np.ndarray
    relation_names: tuple[str, ...]
    base_residual: float

    @property
    def gauge_dim(self) -> int:
        """sum k_a^2: the GL(k_a) directions that leave every generator fixed."""
        return sum(v.shape[1] ** 2 for v, _ in self.factors)


def _factored_relations(relations: list[Relation], factors):
    """Each relation as (rows, cols, terms) over the factor list
    [V_0, W_0^T, V_1, W_1^T, ...]; a term is (coefficient, factor word).

    A relation whose words all start with generator a and end with c becomes
    its core: word (a, b, ..., c) is W_a^T V_b W_b^T ... V_c and the
    one-letter word the identity I_{k_a}.  Any other relation is pulled back
    whole, word (a, b, ...) being V_a W_a^T V_b W_b^T ... and the empty word
    the identity I_d.
    """
    d = factors[0][0].shape[0]
    ranks = [v.shape[1] for v, _ in factors]
    out = []
    for _, terms in relations:
        words = [word for _, word in terms]
        if all(words) and len({(w[0], w[-1]) for w in words}) == 1:
            a, c = words[0][0], words[0][-1]
            out.append((ranks[a], ranks[c],
                        [(coeff, tuple(f for x, y in zip(w, w[1:]) for f in (2 * x + 1, 2 * y)))
                         for coeff, w in terms]))
        else:
            out.append((d, d, [(coeff, tuple(f for x in w for f in (2 * x, 2 * x + 1)))
                               for coeff, w in terms]))
    return out


def _flat(factors) -> list[np.ndarray]:
    return [m for pair in factors for m in pair]


def factored_residual_vector(factors, relations: list[Relation]) -> np.ndarray:
    """Stacked complex residual of all relations in rank factors.

    ``factors`` is a list of (V_a, W_a^T); each relation contributes its core
    or, if it has none, its full d x d residual, in row-major order.
    """
    flat = _flat(factors)
    out = []
    for rows, cols, terms in _factored_relations(relations, factors):
        acc = np.zeros((rows, cols), dtype=np.complex128)
        for coeff, word in terms:
            prod = np.eye(rows, dtype=np.complex128)
            for f in word:
                prod = prod @ flat[f]
            acc += coeff * prod
        out.append(acc.ravel())
    return np.concatenate(out)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its generic n-d bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _factored_jacobian(factors, relations: list[Relation]) -> np.ndarray:
    flat = _flat(factors)
    frels = _factored_relations(relations, factors)
    offsets = np.cumsum([0] + [m.size for m in flat])
    J = np.zeros((sum(rows * cols for rows, cols, _ in frels), offsets[-1]), dtype=np.complex128)
    r0 = 0
    for rows, cols, terms in frels:
        block = J[r0:r0 + rows * cols]
        for coeff, word in terms:
            # prefix[p] = product of word[:p], suffix[-1 - p] = product of word[p+1:]
            prefix = [np.eye(rows, dtype=np.complex128)]
            for f in word[:-1]:
                prefix.append(prefix[-1] @ flat[f])
            suffix = [np.eye(cols, dtype=np.complex128)]
            for f in reversed(word[1:]):
                suffix.append(flat[f] @ suffix[-1])
            for pos, f in enumerate(word):
                block[:, offsets[f]:offsets[f + 1]] += coeff * _kron(prefix[pos], suffix[-1 - pos].T)
        r0 += rows * cols
    return J


def _generators(point) -> tuple[list[np.ndarray], list[Relation] | None, tuple[str, ...]]:
    """Generator matrices of a point, its relation terms and generator names.

    A plain sequence of matrices has no relation terms (None); only the
    conjugation orbit, which needs none, accepts one.
    """
    if isinstance(point, PairConfiguration):
        names = tuple(f"p{i + 1}" for i in range(point.n)) + tuple(f"q{j + 1}" for j in range(point.n))
        return point.matrices(), pair_relation_terms(point.n), names
    if isinstance(point, AlgebraRepPoint):
        return [as_matrix(m) for m in point.matrices], point.relation_terms(), point.names
    return [as_matrix(m) for m in point], None, ()


def _factor(m: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(V, W^T) with V the leading left singular vectors of m and W^T = V^H m;
    the rank is a gap-checked decision."""
    u, s, _ = np.linalg.svd(m)
    k = decide_rank(s, FACTOR_TOL, f"factor rank of generator {name}").rank
    v = u[:, :k]
    return v, v.conj().T @ m


def rep_jacobian(point) -> JacobianSystem:
    """Rank-factored analytic Jacobian of the point's relation system.

    Refuses points whose relation residual exceeds the gate, before any
    factoring: tangent analysis at non-solutions is meaningless.
    """
    mats, terms, names = _generators(point)
    if terms is None:
        raise TypeError(f"cannot build a relation Jacobian for {type(point).__name__}")
    residual, _ = evaluate_relations(mats, terms)
    if residual > RESIDUAL_GATE:
        raise ValueError(f"relation residual {residual:.3e} exceeds {RESIDUAL_GATE:.1e}; "
                         "not a representation point")
    factors = [_factor(m, name) for m, name in zip(mats, names)]
    return JacobianSystem(mats, factors, _factored_jacobian(factors, terms),
                          tuple(name for name, _ in terms), residual)


def _variable_scales(factors) -> np.ndarray:
    """Per-variable column scaling, preserving nullity: V_a is orthonormal and
    W_a^T carries the spectral norm of its generator."""
    parts = []
    for v, wt in factors:
        nrm = float(np.linalg.norm(wt, 2)) if wt.size else 1.0
        parts += [np.ones(v.size), np.full(wt.size, nrm)]
    return np.concatenate(parts)


def orbit_tangent_dim(point, tol: float = 1e-10) -> int:
    """Dimension of the conjugation-orbit tangent at the point.

    The orbit tangent is span{([xi, m] for all generators m)}, the image of
    the commutator map, so its dimension is d^2 minus the joint commutant
    dimension.  Accepts a point or a plain sequence of generator matrices.
    """
    mats, _, _ = _generators(point)
    d = mats[0].shape[0]
    return d * d - commutant_dimension(mats, tol)


@dataclass(frozen=True)
class TangentReport:
    """Moduli tangent dimension with the evidence behind the decision.

    ``nullity`` is the Zariski nullity in the generator entries (the
    factored nullity minus the gauge); ``singular_values`` and ``gap_ratio``
    are those of the column-scaled factored Jacobian.
    """

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


def _moduli_report(system: JacobianSystem, tol: float, what: str) -> TangentReport:
    J = system.jacobian * _variable_scales(system.factors)[None, :]
    s = np.linalg.svd(J, compute_uv=False)
    cut = decide_rank(s, tol, what)
    nullity = J.shape[1] - cut.rank - system.gauge_dim
    orbit = orbit_tangent_dim(system.matrices, tol)
    return TangentReport(nullity, orbit, nullity - orbit, cut.gap_ratio, s, system.base_residual)


def moduli_tangent_report(c: PairConfiguration, tol: float = 1e-10) -> TangentReport:
    """Moduli tangent dimension of a full pair configuration."""
    return _moduli_report(rep_jacobian(c), tol, "pair moduli tangent")


def a6_moduli_tangent_report(point: AlgebraRepPoint, tol: float = 1e-10) -> TangentReport:
    """Moduli tangent dimension of a sandwich-algebra point (P, q_1..q_6).

    The point must be irreducible (scalar commutant); reducible points have
    non-unique orbit bookkeeping and are refused.
    """
    if point.algebra != "sandwich":
        raise ValueError("expected a sandwich-algebra point")
    if commutant_dimension(point.matrices) != 1:
        raise ValueError("point is reducible; moduli tangent undefined here")
    return _moduli_report(rep_jacobian(point), tol, "sandwich moduli tangent")


def x33_moduli_tangent_report(point: AlgebraRepPoint, tol: float = 1e-10) -> TangentReport:
    """Moduli tangent dimension of a bipartite 3+3 graph point in dimension 6.

    No sum constraints are imposed; every generator must have factor rank 1.
    """
    if point.algebra != "graph" or len(point.matrices) != 6:
        raise ValueError("expected a graph point on the 3+3 complete bipartite graph")
    system = rep_jacobian(point)
    if any(v.shape[1] != 1 for v, _ in system.factors):
        raise ValueError("graph point generators must be rank-1 idempotents")
    return _moduli_report(system, tol, "bipartite 3+3 moduli tangent")


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


def _tangent_image(factors, vectors: np.ndarray) -> np.ndarray:
    """Images dX_a = dV_a W_a^T + V_a dW_a^T of factored tangent vectors (the
    columns of ``vectors``), stacked in row-major vec blocks of d^2 rows."""
    blocks = []
    o = 0
    for v, wt in factors:
        d, k = v.shape
        dv = vectors[o:o + d * k].reshape(d, k, -1)
        dwt = vectors[o + d * k:o + 2 * d * k].reshape(k, d, -1)
        o += 2 * d * k
        dx = np.einsum("akn,kb->abn", dv, wt) + np.einsum("ak,kbn->abn", v, dwt)
        blocks.append(dx.reshape(d * d, -1))
    return np.vstack(blocks)


def fiber_rank_check(point: AlgebraRepPoint, tol: float = 1e-10) -> FiberRankReport:
    """Rank of d(u1, u2, u3) on the kernel of the 3+3 graph relation Jacobian.

    The kernel of the factored Jacobian is mapped to the generator entries
    by dX = dV W^T + V dW^T, whose image is the Zariski tangent (the gauge
    directions map to zero), and orthonormalised there; the invariant
    differential is applied to that basis, so its singular values do not
    depend on the factorisation.  The u's are conjugation-invariant, so
    orbit directions contribute nothing and the rank equals the rank on the
    moduli tangent; generically it is 3, making the fibers of the invariant
    map curves.  Points where two factors of u3 vanish simultaneously can
    drop rank and are flagged (``degenerate_u3``) rather than asserted
    against.

    The invariant differential has its own looser cut (at least 1e-8) and
    counts as rank 0 below an absolute floor.
    """
    if point.algebra != "graph" or len(point.matrices) != 6:
        raise ValueError("fiber rank is computed on 3+3 graph restriction points")
    system = rep_jacobian(point)
    mats, J = system.matrices, system.jacobian
    _, s, vh = np.linalg.svd(J)
    j_rank = decide_rank(s, tol, "graph relation kernel").rank
    nullity = J.shape[1] - j_rank - system.gauge_dim
    image = _tangent_image(system.factors, vh[j_rank:].conj().T)
    basis = np.linalg.svd(image, full_matrices=False)[0][:, :nullity]
    d = mats[0].shape[0]
    P, qs = mats[0] + mats[1] + mats[2], mats[3:]
    columns = []
    for vec in basis.T:
        dm = vec.reshape(6, d, d)
        columns.append(u_invariants_directional(P, qs, dm[0] + dm[1] + dm[2], dm[3:]))
    D = np.array(columns).T
    sd = np.linalg.svd(D, compute_uv=False)
    if sd.size == 0 or sd[0] < 1e-12:
        rank = 0
    else:
        rank = decide_rank(sd, max(tol, 1e-8), "invariant differential rank").rank
    u3_factors = []
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        t = np.trace(P @ qs[i] @ P @ qs[j])
        u3_factors.append(abs(36.0 * t - 1.0))
    degenerate = sum(1 for f in u3_factors if f < 1e-6) >= 2
    orbit = orbit_tangent_dim(mats, tol)
    return FiberRankReport(rank, sd, nullity - orbit, degenerate)
