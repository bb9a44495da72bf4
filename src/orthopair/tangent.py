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
* a sum-to-identity relation sum_{a in S} x_a - 1 over distinct
  generators whose factor ranks add up to d, a complete system S, is
  solved for exactly.  With V_S = [V_a] square and W_S^T = [W_a^T] over S
  the sum is V_S W_S^T - I, and V_S W_S^T = I forces W_S^T V_S = I, so
  the cores of S (the idempotency of each a and x_a x_b for a != b in S,
  the entries of W_S^T V_S - I) vanish whether the list names them or
  not.  They linearise to dW_S^T V_S + W_S^T dV_S, whose kernel is the
  graph of dW_S^T = -W_S^T dV_S V_S^-1, on which d(V_S W_S^T) =
  V_S d(W_S^T V_S) W_S^T vanishes too.  So J has no rows for the sum and
  the cores of S and no columns for the W_a^T of S, which that map
  eliminates, leaving the factored nullity as it is.  The relation gate
  keeps V_S invertible (:func:`_jacobian`);
* any other relation, a commutator say, is refused with ValueError.

Jacobians come from the same relation term lists that drive the residuals:
the derivative of a product with respect to one factor is the sum over its
occurrences of prefix (x) suffix^T in row-major vec convention.  A plan
compiled once per term tuple, factor ranks and d lists the occurrences; a
call multiplies out their prefixes and suffixes over the zero-padded factors
by :func:`orthopair.relations.word_products`, takes one outer product per
block shape and scatter-adds them all into J; one batched LU solve and
one contraction then eliminate the W_a^T of the complete systems.  At an
n = 6 pair J is 36 x 72, the complexified Hadamard defect system of
Tadej & Zyczkowski (Open Syst. Inf. Dyn. 13, 2006): the 36 rank-1 edge
cores, each pair of edge cores being one, in the d columns of each V_a.
At a sandwich point with P of rank 3 it is 15 x 72: P's idempotency and
the six sandwich cores, in the columns of P's factors and the q's V_a.

The idempotency relations confine the dense tangent to the rank-k_a tangent
of every generator, and the factor map (V_a, W_a^T) -> V_a W_a^T is onto that
tangent with kernel the GL(k_a) gauge (V_a g, g^-1 W_a^T).  Hence

    dense Zariski nullity = factored nullity - sum_a k_a^2,

12 at an n = 6 pair and 9 + 6 at a sandwich point with P of rank 3.  The
moduli tangent dimension at a point with scalar stabiliser is that nullity
minus the dimension of the conjugation-orbit tangent,
span{([xi, m_1], ..., [xi, m_k])}, taken from the joint commutant.  That
commutant lies in span{x_a : a in S} when a complete system S consists of
rank-1 idempotents, so at pair and sandwich points it is found in n
unknowns (a 216 x 6 operator at an n = 6 pair and 36 x 6 at a sandwich
point); the 3+3 report and the fiber check take the general d^2-unknown
operator.

Dimension decisions are never taken on faith: every rank cut -- each
generator's factor rank included -- goes through
:func:`orthopair.linalg.decide_rank`, which refuses with
:class:`IndeterminateDimension` carrying the full spectrum unless the cut
exhibits a singular-value gap ratio of at least GAP_RATIO_REQUIRED.  The
nullity, the orbit dimension and the refusal of a nullity below the orbit
are decided in one place, :func:`_moduli_report`, for every moduli report
and for the fiber check.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .config import HadamardPoint, PairConfiguration
from .invariants import u3_factors, u_invariants_directional, u_word_traces
from .linalg import (
    GAP_RATIO_REQUIRED,
    RANK_TOL,
    IndeterminateDimension,
    OffVariety,
    RankReport,
    as_matrix,
    decide_rank,
    range_factors,
)
from .relations import AlgebraRepPoint, Relation, commutant_dimension, pair_relation_terms, require_relations
from .relations import _plan, word_products

__all__ = [
    "GAP_RATIO_REQUIRED",
    "IndeterminateDimension",
    "OffVariety",
    "JacobianSystem",
    "TangentReport",
    "rep_jacobian",
    "orbit_tangent_dim",
    "moduli_tangent_report",
    "a6_moduli_tangent_report",
    "x33_moduli_tangent_report",
    "phase_constraints",
    "defect_report",
    "FiberRankReport",
    "fiber_rank_check",
]

# ---------------------------------------------------------------------------
# Rank-factored relation Jacobians.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianSystem:
    """Complex analytic Jacobian of a relation system in rank factors.

    ``factors[a]`` is (V_a, W_a^T) with X_a = V_a W_a^T.  ``jacobian`` has
    one block of rows per :func:`_factored_relations` entry and one column
    per factor variable it keeps: ``columns`` indexes them into the factor
    vector [vec(V_0), vec(W_0^T), vec(V_1), ...], each vec row-major with
    d k_a entries.  ``complete`` lists the complete systems S
    (:func:`_complete_sums`) whose sum and cores J has no rows for and
    whose W_a^T columns it has eliminated: J is 36 x 72 at an n = 6 pair
    (180 x 144 with every row and column) and 15 x 72 at a sandwich point.
    ``scales`` scales the columns, by 1 on V_a and by the spectral norm of
    X_a on W_a^T, preserving the nullity.
    """

    matrices: list[np.ndarray]
    factors: list[tuple[np.ndarray, np.ndarray]]
    jacobian: np.ndarray
    complete: tuple[tuple[int, ...], ...]
    columns: np.ndarray
    scales: np.ndarray

    @property
    def gauge_dim(self) -> int:
        """sum k_a^2: the GL(k_a) directions that leave every generator fixed."""
        return sum(v.shape[1] ** 2 for v, _ in self.factors)


def _core_terms(S: tuple[int, ...]) -> set[frozenset]:
    """The term sets of the relations whose cores are the blocks of
    W_S^T V_S - I: the idempotency x_a^2 - x_a of every a in S and the
    non-edge x_a x_b of every a != b in S."""
    return {frozenset({(1.0, (a, a)), (-1.0, (a,))}) if a == b else frozenset({(1.0, (a, b))})
            for a in S for b in S}


def _complete_sums(relations: Sequence[Relation], ranks: tuple[int, ...], d: int) -> dict[int, tuple[int, ...]]:
    """{index: S} of the sum-to-identity relations sum_{a in S} x_a - 1 of
    ``relations`` over distinct generators whose factor ranks add up to d:
    the complete systems S that :func:`_jacobian` solves for with their
    cores, listed or not.  Inside the relation gate the ranks always add
    up, a near-idempotent's rank being its trace.  A set that shares a
    generator with an earlier one is not listed."""
    out, used = {}, set()
    for index, (_, terms) in enumerate(relations):
        S = tuple(w[0] for _, w in terms if w)
        if (len(set(S)) == len(S) == len(terms) - 1 and sum(ranks[a] for a in S) == d
                and set(terms) == {(-1.0, ())} | {(1.0, (a,)) for a in S} and used.isdisjoint(S)):
            out[index] = S
            used.update(S)
    return out


def _factored_relations(relations: Sequence[Relation], ranks: tuple[int, ...], d: int):
    """Each relation as (rows, cols, terms) over the factor list
    [V_0, W_0^T, V_1, W_1^T, ...] of generators of factor ranks ``ranks``
    in dimension d; a term is (coefficient, factor word).

    A relation whose words all start with generator a and end with c becomes
    its core: word (a, b, ..., c) is W_a^T V_b W_b^T ... V_c and the
    one-letter word the identity I_{k_a}.  The sum of a complete system S
    (:func:`_complete_sums`) and the cores of S the list names, the entries
    of W_S^T V_S - I, are dropped: :func:`_jacobian` solves them exactly.
    Any other relation, such as a commutator or a second sum over a
    generator that an earlier sum solves, raises ValueError naming it.
    Cores of rank-1 letters are polynomials in the commuting scalars
    G_ab = W_a^T V_b, so two with equal terms as (coefficient, multiset of
    pairs (a, b)), such as x_i x_j x_i - r x_i and x_j x_i x_j - r x_j, are
    one: it is listed once, its coefficients scaled by the root of its
    multiplicity, which leaves J^H J alike.
    """
    complete = _complete_sums(relations, ranks, d)
    solved = set().union(*map(_core_terms, complete.values()))
    merged = {}
    for key, (name, terms) in enumerate(relations):  # key: the index, or the polynomial of a rank-1 core
        if key in complete or frozenset(terms) in solved:
            continue
        words = [word for _, word in terms]
        if not all(words) or len({(w[0], w[-1]) for w in words}) != 1:
            raise ValueError(f"relation {name!r} is neither a core nor the sum of a complete system")
        rows, cols = ranks[words[0][0]], ranks[words[0][-1]]
        fwords = [tuple(f for x, y in zip(w, w[1:]) for f in (2 * x + 1, 2 * y)) for w in words]
        if all(ranks[g] == 1 for w in words for g in w):
            key = frozenset(Counter((c, tuple(sorted(zip(w, w[1:])))) for (c, _), w in zip(terms, words)).items())
        merged.setdefault(key, [0, rows, cols, [(c, w) for (c, _), w in zip(terms, fwords)]])[0] += 1
    return [(rows, cols, [(np.sqrt(copies) * c, w) for c, w in terms]) for copies, rows, cols, terms in merged.values()]


@functools.lru_cache
def _jacobian_plan(relations: tuple[Relation, ...], ranks: tuple[int, ...], d: int):
    """The plan of :func:`_jacobian`: the distinct prefix and suffix words,
    the shape of J before the elimination, one group of factor occurrences
    per block shape (coefficients, prefix and suffix places in the words),
    the index of every entry they add in J's float64 view, its real and
    imaginary parts side by side; the complete systems S
    (:func:`_complete_sums`), the columns of each S's W_S^T and V_S in J,
    both row-major, and the columns J keeps."""
    shapes = [shape for k in ranks for shape in ((d, k), (k, d))]  # of V_0, W_0^T, V_1, ...
    offsets = np.cumsum([0] + [m * n for m, n in shapes])
    found, r0 = {}, 0  # block shape -> occurrences
    for rows, cols, terms in _factored_relations(relations, ranks, d):
        for coeff, word in terms:
            for pos, f in enumerate(word):
                found.setdefault((rows, cols, *shapes[f]), []).append(
                    (coeff, word[:pos], word[pos + 1:], r0 * offsets[-1] + offsets[f]))
        r0 += rows * cols
    at = {w: i for i, w in enumerate(dict.fromkeys(w for occ in found.values() for o in occ for w in o[1:3]))}
    groups, index = [], []
    for (rows, cols, m, n), occ in found.items():
        coeffs, prefixes, suffixes, starts = zip(*occ)
        # J[r0 + r cols + c, c0 + i n + j] += coeff prefix[r, i] suffix[j, c]; starts index J[r0, c0]
        r, c, i, j = np.ix_(range(rows), range(cols), range(m), range(n))
        index.append((np.reshape(starts, (-1, 1, 1, 1, 1)) + (r * cols + c) * offsets[-1] + i * n + j).ravel())
        groups.append(((rows, cols, m, n), np.array(coeffs)[:, None, None, None, None],
                       np.array([at[w] for w in prefixes]), np.array([at[w] for w in suffixes])))
    complete = tuple(_complete_sums(relations, ranks, d).values())
    # W_S^T stacks the W_a^T of S, so its row-major entries are theirs in turn;
    # column l of V_S is column l - start_a of the V_a it falls in
    wcols = np.array([[offsets[2 * a + 1] + i for a in S for i in range(ranks[a] * d)] for S in complete],
                     dtype=np.intp)
    vcols = np.array([[offsets[2 * a] + k * ranks[a] + c for k in range(d) for a in S for c in range(ranks[a])]
                      for S in complete], dtype=np.intp)
    keep = np.ones(offsets[-1], dtype=bool)
    keep[wcols] = False
    return (tuple(at), (r0, int(offsets[-1])), groups, (2 * np.concatenate(index)[:, None] + [0, 1]).ravel(),
            complete, wcols, vcols, np.flatnonzero(keep))


def _jacobian(factors, relations: Sequence[Relation]) -> tuple[np.ndarray, tuple[tuple[int, ...], ...], np.ndarray]:
    """The factored Jacobian from its compiled plan, the plan's complete
    systems S and the columns J keeps (:class:`JacobianSystem`).

    The word products of the factors, zero-padded to d x d (exact in their
    leading blocks), give one broadcast outer product per block shape and
    one scatter-add.  Then each S's W_S^T columns are eliminated by
    dW_S^T = -W_S^T dV_S V_S^-1 (module docstring), so a kernel vector of J
    lifted by that map is one of the full Jacobian: J's columns for W_S^T
    act on dV_S as B -> -W_S B V_S^-T, one batched contraction over every S.

    V_S^-1 is (W_S^T V_S)^-1 W_S^T, by one batched LU solve.  The relation
    gate of :func:`rep_jacobian` bounds the sum's residual,
    ||V_S W_S^T - I||_2 <= RELATION_TOL < 1, so V_S W_S^T and with it the
    square V_S are invertible, whatever the factor ranks; and
    W_S^T V_S - I = V_S^-1 (V_S W_S^T - I) V_S, so W_S^T V_S is within
    cond(V_S) RELATION_TOL of I.  W_S^T itself is not the inverse: its
    error would lift the zero singular values of J by O(residual).
    """
    d = factors[0][0].shape[0]
    words, shape, groups, index, complete, wcols, vcols, keep = _plan(
        _jacobian_plan, relations, tuple(v.shape[1] for v, _ in factors), d)
    flat = np.zeros((len(factors), 2, d, d), dtype=np.complex128)
    for a, (v, wt) in enumerate(factors):
        flat[a, 0, :, :v.shape[1]], flat[a, 1, :wt.shape[0]] = v, wt
    prods = word_products(flat.reshape(-1, d, d), words)
    values = np.concatenate([(coeffs * prods[pre, :r, None, :m, None]
                              * prods[suf, :n, :c].transpose(0, 2, 1)[:, None, :, None, :]).ravel()
                             for (r, c, m, n), coeffs, pre, suf in groups])
    J = np.bincount(index, values.view(np.float64), 2 * shape[0] * shape[1]).view(np.complex128).reshape(shape)
    if complete:
        vs = np.stack([np.hstack([factors[a][0] for a in S]) for S in complete])
        wts = np.stack([np.vstack([factors[a][1] for a in S]) for S in complete])
        vinv = np.linalg.solve(wts @ vs, wts)
        B = J[:, wcols].reshape(shape[0], len(complete), d, d)
        J[:, vcols] -= (wts.swapaxes(1, 2) @ B @ vinv.swapaxes(1, 2)).reshape(shape[0], -1, d * d)
        J = J[:, keep]
    return J, complete, keep


def _generators(point) -> tuple[list[np.ndarray], Sequence[Relation], tuple[str, ...]]:
    """Generator matrices of a point, its relation terms and generator names."""
    if isinstance(point, PairConfiguration):
        names = tuple(f"p{i + 1}" for i in range(point.n)) + tuple(f"q{j + 1}" for j in range(point.n))
        return point.matrices(), pair_relation_terms(point.n), names
    if isinstance(point, AlgebraRepPoint):
        return [as_matrix(m) for m in point.matrices], point.relations, point.names
    raise TypeError(f"cannot build a relation Jacobian for {type(point).__name__}")


def rep_jacobian(point) -> JacobianSystem:
    """Rank-factored analytic Jacobian of the point's relation system.

    Refuses points whose relation residual exceeds RELATION_TOL (OffVariety),
    before any factoring: tangent analysis at non-solutions is meaningless.
    Any relation :func:`_factored_relations` cannot factor is a ValueError.
    """
    mats, terms, names = _generators(point)
    require_relations(mats, terms, "relation residual exceeds the gate; not a representation point")
    factors, spectra = range_factors(np.stack(mats), RANK_TOL, [f"factor rank of generator {x}" for x in names])
    scales = np.concatenate([np.full(v.size, x) for (v, _), s in zip(factors, spectra) for x in (1.0, s[0])])
    J, complete, columns = _jacobian(factors, terms)
    return JacobianSystem(mats, factors, J, complete, columns, scales[columns])


def orbit_tangent_dim(mats, tol: float = RANK_TOL) -> int:
    """Dimension of the conjugation-orbit tangent at the generator matrices.

    The orbit tangent is span{([xi, m] for all generators m)}, the image of
    the commutator map, so its dimension is d^2 minus the joint commutant
    dimension.
    """
    d = mats[0].shape[0]
    return d * d - commutant_dimension(mats, tol)


def _span_orbit_dim(mats, S: tuple[int, ...], tol: float) -> int:
    """:func:`orbit_tangent_dim` at generators of which those in S are a
    complete system of rank-1 idempotents, taken in |S| unknowns.

    The commutant of such a system is span{x_a : a in S}, so the joint
    commutant is the kernel of the d^2 (k - |S|) x |S| operator whose column
    a stacks vec([x_a, m]) over the k - |S| other generators m.
    """
    gens = np.stack(mats)
    x, others = gens[list(S), None], np.delete(gens, S, axis=0)
    s = np.linalg.svd((x @ others - others @ x).reshape(len(S), -1).T, compute_uv=False)  # column a: [x_a, m]
    d = gens.shape[1]
    return d * d - (len(S) - decide_rank(s, tol, "joint commutant").rank)


@dataclass(frozen=True)
class TangentReport:
    """Moduli tangent dimension with the evidence behind the decision.

    ``nullity`` is the Zariski nullity in the generator entries (the
    factored nullity minus the gauge); ``singular_values`` and ``gap_ratio``
    are those of the column-scaled factored Jacobian, one value per row
    where it has fewer rows than columns: 36 at an n = 6 pair, whose
    Jacobian keeps only the edge rows in the columns of the V_a.
    ``orbit_dim`` is the conjugation-orbit dimension.  The dephased defect
    (:func:`defect_report`) is the same report on the phase Jacobian, with
    ``orbit_dim`` 0.
    """

    nullity: int
    orbit_dim: int
    moduli_dim: int
    gap_ratio: float
    singular_values: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "nullity": self.nullity,
            "orbit_dim": self.orbit_dim,
            "moduli_dim": self.moduli_dim,
            "gap_ratio": self.gap_ratio,
            "singular_values": [float(x) for x in self.singular_values],
        }


def _moduli_report(system: JacobianSystem, tol: float, what: str, s: np.ndarray | None = None) -> TangentReport:
    """The one decision of a Zariski nullity, an orbit dimension and their
    difference.  ``s`` is the spectrum of the column-scaled Jacobian, when
    the caller has already factorised it.  The orbit is taken in |S|
    unknowns (:func:`_span_orbit_dim`) for the first complete set S of
    rank-1 generators, else from the general commutator operator."""
    if s is None:
        s = np.linalg.svd(system.jacobian * system.scales, compute_uv=False)
    cut = decide_rank(s, tol, what)
    nullity = system.jacobian.shape[1] - cut.rank - system.gauge_dim
    rank1 = [S for S in system.complete if all(system.factors[a][0].shape[1] == 1 for a in S)]
    orbit = _span_orbit_dim(system.matrices, rank1[0], tol) if rank1 else orbit_tangent_dim(system.matrices, tol)
    if nullity < orbit:  # the orbit tangent lies in the kernel: the cut counted residual noise as rank
        raise IndeterminateDimension(f"{what}: nullity {nullity} < orbit dimension {orbit}", s, cut.gap_ratio)
    return TangentReport(nullity, orbit, nullity - orbit, cut.gap_ratio, s)


def moduli_tangent_report(c: PairConfiguration, tol: float = RANK_TOL) -> TangentReport:
    """Moduli tangent dimension of a full pair configuration."""
    return _moduli_report(rep_jacobian(c), tol, "pair moduli tangent")


def a6_moduli_tangent_report(point: AlgebraRepPoint) -> TangentReport:
    """Moduli tangent dimension of a sandwich-algebra point (P, q_1..q_6).

    The q's are a complete system of rank-1 idempotents, so the report
    takes a pair's path: J keeps P's idempotency and the sandwich cores
    (15 x 72 with P of rank 3), and the orbit is taken in the 6 unknowns
    of span{q_a}.  The point must be irreducible (scalar commutant, so an
    orbit of dimension d^2 - 1); reducible points have non-unique orbit
    bookkeeping and are refused.
    """
    if point.algebra != "sandwich":
        raise ValueError("expected a sandwich-algebra point")
    report = _moduli_report(rep_jacobian(point), RANK_TOL, "sandwich moduli tangent")
    if report.orbit_dim != point.matrices[0].shape[0] ** 2 - 1:
        raise ValueError("point is reducible; moduli tangent undefined here")
    return report


def _graph33_system(point: AlgebraRepPoint) -> JacobianSystem:
    """Factored Jacobian of a 3+3 graph point in dimension 6, refused unless
    every generator has factor rank 1.  No sum constraints are imposed."""
    if point.algebra != "graph" or len(point.matrices) != 6:
        raise ValueError("expected a graph point on the 3+3 complete bipartite graph")
    system = rep_jacobian(point)
    if any(v.shape[1] != 1 for v, _ in system.factors):
        raise ValueError("graph point generators must be rank-1 idempotents")
    return system


def x33_moduli_tangent_report(point: AlgebraRepPoint) -> TangentReport:
    """Moduli tangent dimension of a bipartite 3+3 graph point in dimension 6."""
    return _moduli_report(_graph33_system(point), RANK_TOL, "bipartite 3+3 moduli tangent")


# ---------------------------------------------------------------------------
# Dephased Hadamard defect.
# ---------------------------------------------------------------------------


def phase_constraints(h: HadamardPoint, u: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Unitarity constraints and their real Jacobian in phase coordinates.

    The reconstructed matrix has all entry moduli pinned to 1/sqrt(n), so
    the diagonal Gram conditions hold identically; the constraints are the
    off-diagonal Gram entries G_jk (j < k), split into real and imaginary
    parts.  Returns (c, J) with c of length n(n-1) and J of shape
    (n(n-1), (n-1)^2); dG_jk / dphi_ab = i conj(U_aj) U_ak (delta_kb - delta_jb).
    ``u`` is the reconstruction of ``h`` where the caller has it already.
    """
    if u is None:
        u = h.reconstruct()
    j, k, free, plus, minus = _constraint_plan(h.n)
    # v[a-1, r] = i conj(U_aj) U_ak for row r = (j, k), written in the real
    # arithmetic of the scalar complex product so that J stays bit-identical
    # to accumulating it entry by entry
    x, y = u[1:, j], u[1:, k]
    v = np.empty(x.shape, dtype=np.complex128)
    v.real = x.imag * y.real - x.real * y.imag
    v.imag = x.imag * y.imag + x.real * y.real
    Jc = np.zeros((j.size, (h.n - 1) ** 2), dtype=np.complex128)
    Jc[plus] += v
    Jc[minus] -= v[:, free]
    return _gram_constraints(u.conj().T @ u), np.vstack([Jc.real, Jc.imag])


def _gram_constraints(gram: np.ndarray) -> np.ndarray:
    """The constraints c of :func:`phase_constraints` from the Gram matrix
    U^dag U: its entries G_jk, j < k, in row-major order, real parts then
    imaginary parts.  What a chord step of the corrector evaluates."""
    j, k = _constraint_plan(gram.shape[0])[:2]
    g = gram[j, k]
    return np.concatenate([g.real, g.imag])


@functools.lru_cache
def _constraint_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple, tuple]:
    """The index arrays of :func:`phase_constraints`, built once per n and
    read-only: the constraint rows (j, k), j < k, in row-major order; the
    rows whose j is a free phase column (j >= 1); and the entries of J's
    complex block that phase (a, k) adds to and phase (a, j), j >= 1,
    subtracts from, one row of indices per a.  Phase (a, b) is column
    (a-1)(n-1) + (b-1); the pinned column b = 0 has none."""
    idx = np.arange(n)
    j, k = np.nonzero(idx[:, None] < idx)
    rows = np.arange(j.size)
    col = idx[:-1, None] * (n - 1) - 1
    free = j >= 1
    plus, minus = (rows, col + k), (rows[free], (col + j)[:, free])
    for a in (j, k, free, *plus, *minus):
        a.flags.writeable = False
    return j, k, free, plus, minus


def _defect_kernel(J: np.ndarray, tol: float) -> tuple[RankReport, np.ndarray, Callable[[], np.ndarray]]:
    """The one defect decision on a phase Jacobian: one SVD, the gap-checked
    cut, the kernel basis as columns, and a zero-argument callable that
    builds the truncated pseudo-inverse J+ = V_r S_r^-1 U_r^T at the same
    cut (r the rank) from that SVD."""
    u, s, vt = np.linalg.svd(J)
    cut = decide_rank(s, tol, "dephased defect")
    r = cut.rank
    return cut, vt[r:].T, lambda: (vt[:r].T / s[:r]) @ u[:, :r].T


def defect_report(h: HadamardPoint, tol: float = RANK_TOL) -> TangentReport:
    """The dephased defect of ``h``: the real nullity of the unitarity
    Jacobian in phase coordinates, i.e. the dimension of the local family of
    complex Hadamard matrices through the point with all gauge freedom
    removed.  Phase coordinates have no orbit to subtract, so it is reported
    as nullity and moduli dimension alike with ``orbit_dim`` 0.  OffVariety
    through :meth:`HadamardPoint.unitary`."""
    h.unitary()
    cut, kernel, _ = _defect_kernel(phase_constraints(h)[1], tol)
    defect = kernel.shape[1]
    return TangentReport(defect, 0, defect, cut.gap_ratio, cut.singular_values)


# ---------------------------------------------------------------------------
# Rank of the invariant map on the moduli tangent (fiber dimension check).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberRankReport:
    """:func:`fiber_rank_check`: the ``rank`` of d(u1, u2, u3) on the
    moduli tangent, its ``singular_values``, the 3+3 report's
    ``moduli_dim``, and ``degenerate_u3``, set where two factors of u3
    vanish and the rank may drop."""

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


def fiber_rank_check(point: AlgebraRepPoint) -> FiberRankReport:
    """Rank of d(u1, u2, u3) on the kernel of the 3+3 graph relation Jacobian.

    The kernel is decided once, by the 3+3 moduli report: one SVD of the
    column-scaled factored Jacobian gives both the report's spectrum and
    the kernel, scaled back to the factor variables.  The kernel is mapped
    to the generator entries by dX = dV W^T + V dW^T, whose image is the
    Zariski tangent (the gauge directions map to zero), and orthonormalised
    there; the invariant differential is applied to that whole basis in one
    product, so its singular values do not depend on the factorisation.
    The u's are conjugation-invariant, so orbit directions contribute
    nothing and the rank equals the rank on the moduli tangent; generically
    it is 3, making the fibers of the invariant map curves.  Points where
    two factors of u3 vanish simultaneously can drop rank and are flagged
    (``degenerate_u3``) rather than asserted against.

    The invariant differential has its own looser cut, 1e-8, and counts as
    rank 0 below an absolute floor.
    """
    system = _graph33_system(point)
    _, s, vh = np.linalg.svd(system.jacobian * system.scales)
    report = _moduli_report(system, RANK_TOL, "bipartite 3+3 moduli tangent", s)
    nullity = report.nullity
    kernel = system.scales[:, None] * vh[vh.shape[0] - nullity - system.gauge_dim:].conj().T
    basis = np.linalg.svd(_tangent_image(system.factors, kernel), full_matrices=False)[0][:, :nullity]
    mats = system.matrices
    d = mats[0].shape[0]
    P, qs = mats[0] + mats[1] + mats[2], mats[3:]
    dm = basis.reshape(6, d, d, nullity)
    D = u_invariants_directional(P, qs, dm[0] + dm[1] + dm[2], dm[3:])
    sd = np.linalg.svd(D, compute_uv=False)
    if sd.size == 0 or sd[0] < 1e-12:
        rank = 0
    else:
        rank = decide_rank(sd, 1e-8, "invariant differential rank").rank
    degenerate = sum(abs(f) < 1e-6 for f in u3_factors(u_word_traces(P, qs))) >= 2
    return FiberRankReport(rank, sd, report.moduli_dim, degenerate)
