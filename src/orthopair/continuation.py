"""Predictor-corrector tracing of the four-dimensional Hadamard family.

Working coordinates are the dephased phases: 25 real unknowns at n = 6,
with all gauge freedom (basis phases and simultaneous conjugation) removed
exactly, so the kernel of the unitarity Jacobian *is* the family tangent
and no orbit subtraction is needed.

The corrector is Gauss-Newton with a truncated pseudo-inverse: on the
family the Jacobian is rank-deficient by exactly the four tangent
directions, so singular values below 1e-10 of the largest are dropped and
the step is the minimal-norm one, i.e. orthogonal to the family.  That
makes predictor steps of size h land back on the manifold a distance ~h
from where they started.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice, permutations

import numpy as np

from .config import HadamardPoint, dephased_phases
from .invariants import u_invariants
from .linalg import gauss_newton, rank1_projector
from .tangent import defect_report, phase_constraints

__all__ = [
    "CorrectorResult",
    "tangent_frame",
    "newton_correct",
    "PathResult",
    "trace_path",
    "FamilySample",
    "sample_family",
    "canonical_reduce",
    "family_jsonl_records",
]

FAMILY_DIM = 4
PINV_CUTOFF = 1e-10
DEFAULT_STEP_SCALE = 5e-3
CORRECTOR_TOL = 1e-12  # newton_correct converges at this norm of the unitarity constraints
CORRECTOR_MAX_ITER = 20
CORRECTOR_STALL = 3  # newton_correct gives up after this many non-decreasing norms in a row
STEP_HALVINGS = 5  # a continuation move halves its step at most this often before it gives up
KEY_GRID = 1e-6  # the canonical key compares phases rounded to this grid
KEY_PERM_BLOCK = 720  # column permutations searched per batch: all of them up to n = 7


def _point_from_vector(n: int, x: np.ndarray) -> HadamardPoint:
    return HadamardPoint(n, x.reshape(n - 1, n - 1))


def _phase_distance(a: HadamardPoint, b: HadamardPoint) -> float:
    d = a.phases - b.phases
    d = np.mod(d + np.pi, 2 * np.pi) - np.pi
    return float(np.linalg.norm(d))


def tangent_frame(h: HadamardPoint, tol: float = 1e-10,
                  prev: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of the family tangent at an on-manifold point.

    Returns a ((n-1)^2, 4) array of kernel vectors of the unitarity
    Jacobian.  When ``prev`` is given the basis is rotated (orthogonal
    Procrustes) to match it as closely as possible, which keeps frames
    continuous along a path.  Points whose defect is not 4 are off the
    family or singular and are refused.
    """
    report = defect_report(h, tol)
    if report.defect != FAMILY_DIM:
        raise ValueError(f"dephased defect is {report.defect}, not {FAMILY_DIM}; no 4-frame here")
    V = report.kernel
    if prev is not None:
        if prev.shape != V.shape:
            raise ValueError("previous frame has wrong shape")
        u, _, w = np.linalg.svd(V.T @ prev)
        V = V @ (u @ w)
    return V


@dataclass(frozen=True)
class CorrectorResult:
    point: HadamardPoint
    residual: float
    iterations: int
    converged: bool


def newton_correct(h: HadamardPoint) -> CorrectorResult:
    """Project an approximate point back onto the Hadamard variety.

    Gauss-Newton on the unitarity constraints; declares divergence when the
    residual fails to decrease CORRECTOR_STALL times in a row and then returns the
    best iterate flagged as failed, never a silently bad point.  Quadratic
    convergence is only guaranteed for starting residuals below ~0.1;
    grossly off-manifold starts are refused outright.
    """
    if h.unitarity_residual() > 0.5:
        raise ValueError("starting residual above 0.5; far outside any corrector basin")
    n = h.n

    def constraints(x):
        c, J = phase_constraints(_point_from_vector(n, x))
        return c, lambda: J

    x, r, steps, converged = gauss_newton(constraints, h.phases.ravel(), CORRECTOR_TOL,
                                          CORRECTOR_MAX_ITER, CORRECTOR_STALL, PINV_CUTOFF)
    return CorrectorResult(_point_from_vector(n, x), r, steps, converged)


def _corrected_step(current: HadamardPoint, scale: float, predict, min_move: float):
    """One continuation move: predict, correct, and halve the step on failure.

    ``predict(s)`` gives the phase step for step size ``s``; it is called
    afresh on every try.  A try succeeds when the corrector converges at a
    point at least ``min_move * s`` away (torus phase norm) from
    ``current``; otherwise ``s`` is halved, at most STEP_HALVINGS times.
    Returns (corrector result or None when every try failed, failed tries).
    """
    x = current.phases.ravel()
    for tries in range(STEP_HALVINGS + 1):
        s = scale / 2.0 ** tries
        try:
            result = newton_correct(_point_from_vector(current.n, x + predict(s)))
        except ValueError:  # prediction outside the corrector's basin
            continue
        if result.converged and _phase_distance(result.point, current) >= min_move * s:
            return result, tries
    return None, STEP_HALVINGS + 1


@dataclass(frozen=True)
class PathResult:
    points: list[HadamardPoint]
    residuals: list[float]
    completed_steps: int
    requested_steps: int
    status: str  # "ok" or a truncation reason
    final_frame: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def trace_path(start: HadamardPoint, direction, steps: int, h: float,
               initial_frame: np.ndarray | None = None) -> PathResult:
    """Walk the family from ``start`` along a fixed frame direction.

    ``direction`` is a unit vector in 4-frame coordinates; at every step the
    predictor moves h along the framed direction and the corrector projects
    back.  The step is halved on corrector failure, at most five times,
    after which the path is truncated and returned with a status.  Every
    emitted point is a converged corrector result (constraint norm at most
    CORRECTOR_TOL) and consecutive points are at least h/2 apart in (torus)
    phase norm.

    The frame at ``start`` is a fresh kernel basis unless ``initial_frame``
    is given (e.g. the ``final_frame`` of a previous path, which makes a
    reversed-direction walk retrace the same curve).
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (FAMILY_DIM,):
        raise ValueError(f"direction must have {FAMILY_DIM} components")
    nrm = np.linalg.norm(direction)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / nrm
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    current = start
    frame = tangent_frame(start, prev=initial_frame)
    points = [start]
    residuals = [start.unitarity_residual()]
    status = "ok"
    for k in range(steps):
        result, _ = _corrected_step(current, h, lambda s: s * (frame @ direction), 0.5)
        if result is None:
            status = f"corrector failed at step {k} after {STEP_HALVINGS} halvings"
            break
        try:
            frame = tangent_frame(result.point, prev=frame)
        except ValueError as exc:
            status = f"family frame lost at step {k}: {exc}"
            break
        current = result.point
        points.append(result.point)
        residuals.append(result.residual)
    return PathResult(points, residuals, len(points) - 1, steps, status, frame)


@dataclass(frozen=True)
class FamilySample:
    """Random-walk sample of the family; the family dump computes its invariants."""

    points: list[HadamardPoint]
    seed: int
    metadata: dict = field(default_factory=dict)


def sample_family(start: HadamardPoint, count: int, seed: int,
                  step_scale: float = DEFAULT_STEP_SCALE) -> FamilySample:
    """Gaussian random walk in the 4-frame with correction after each step.

    Deterministic given the seed.  Corrector failures shrink the step for
    that move and are counted in the metadata; points that still fail are
    skipped, so the sample may come back shorter than requested (the first
    point is the start itself).  The recorded list is deduplicated under the
    canonical form of :func:`canonical_reduce`.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    points = [start]
    seen_keys = {_canonical_phases(start, full=False)[0]}
    frame = tangent_frame(start)
    current = start
    failures = 0
    duplicates = 0
    moves_left = 10 * count  # hard cap; persistent failures shorten the sample
    while len(points) < count and moves_left > 0:
        moves_left -= 1
        result, tries_failed = _corrected_step(
            current, step_scale, lambda s: frame @ (s * rng.standard_normal(FAMILY_DIM)), 0.0)
        failures += tries_failed
        if result is None:
            failures += 1
            continue
        moved = result.point
        try:
            frame = tangent_frame(moved, prev=frame)
        except ValueError:
            failures += 1  # singular point of the family: do not move there
            continue
        current = moved
        key = _canonical_phases(moved, full=False)[0]
        if key in seen_keys:
            duplicates += 1
            continue
        seen_keys.add(key)
        points.append(moved)
    meta = {
        "step_scale": step_scale,
        "corrector_tol": CORRECTOR_TOL,
        "corrector_retries": failures,
        "duplicates_skipped": duplicates,
        "max_residual": max(p.unitarity_residual() for p in points),
    }
    return FamilySample(points, seed, meta)


# ---------------------------------------------------------------------------
# Canonical representatives under the obvious equivalences.
# ---------------------------------------------------------------------------


def _key_grid(ph: np.ndarray) -> np.ndarray:
    """Phases rounded to the KEY_GRID integer grid of the canonical key.

    Angles come in (-pi, pi], so a phase just above -pi and its twin at pi
    would round to opposite ends of the grid; phases within half a grid
    step above -pi are moved up by 2 pi first, so both round alike.
    """
    ph = np.where(ph < -np.pi + KEY_GRID / 2, ph + 2 * np.pi, ph)
    return np.round(ph / KEY_GRID).astype(np.int64)


def _canonical_phases(h: HadamardPoint, full: bool) -> tuple[tuple, np.ndarray]:
    """Heuristic canonical form under row/column permutation and dephasing.

    Returns (key, phases): the lexicographically minimal rounded phase
    matrix over the searched permutations, and the unrounded phases that
    realise it.  The default searches permutations that keep the pinned
    first row and column (phase-block columns permuted freely, rows then
    sorted, which is the exact minimum over that subgroup).  ``full``
    additionally minimises over the choice of pinned row/column, i.e. the
    whole permutation orbit.  Equivalence classes are never merged wrongly
    either way, but the default may keep more than one representative of a
    class whose members differ by a first-row/column move.  Ties go to the
    first least candidate: pivots in row-major order, column permutations
    in itertools order, equal rows in their original order.
    """
    n = h.n
    m = n - 1
    if m == 0:  # a 1x1 matrix has no phase block to permute
        return (), h.phases
    u0 = h.reconstruct()
    pivots = [(0, 0)]
    if full:
        pivots = [(r, c) for r in range(n) for c in range(n)]
    row_record = np.dtype([(f"f{j}", np.int64) for j in range(m)])
    best_key = None
    best_ph = None
    for (r, c) in pivots:
        row_order = [r] + [i for i in range(n) if i != r]
        col_order = [c] + [j for j in range(n) if j != c]
        ph = dephased_phases(u0[np.ix_(row_order, col_order)])
        rounded = _key_grid(ph)
        perms = permutations(range(m))
        while block := list(islice(perms, KEY_PERM_BLOCK)):
            cperms = np.array(block)
            # cands[p, i, :] is row i of the block with its columns in order cperms[p]
            cands = np.ascontiguousarray(rounded[:, cperms].transpose(1, 0, 2))
            # one stable sort of every candidate's rows; a record of signed int64
            # fields compares lexicographically, like the tuples of the key
            rperms = np.argsort(cands.view(row_record)[..., 0], axis=1, kind="stable")
            sorted_cands = np.take_along_axis(cands, rperms[:, :, None], axis=1)
            # lexsort is stable: the first least candidate in permutation order wins
            flat = sorted_cands.reshape(len(block), m * m)
            p = np.lexsort(flat.T[::-1])[0]
            key = tuple(map(tuple, sorted_cands[p].tolist()))
            if best_key is None or key < best_key:
                best_key = key
                best_ph = ph[np.ix_(rperms[p], cperms[p])]
    return best_key, best_ph


def canonical_reduce(points: list[HadamardPoint], full: bool = False) -> list[HadamardPoint]:
    """Deduplicate a list of points up to dephased permutation equivalence.

    Each point is replaced by the representative realising its canonical
    key (rounding at 1e-6 is used for comparison only; the representative
    keeps unrounded phases); later points with an already-seen key are
    dropped.  Idempotent for points away from rounding-tie boundaries.
    """
    seen = set()
    out = []
    for h in points:
        key, ph = _canonical_phases(h, full)
        if key not in seen:
            seen.add(key)
            out.append(HadamardPoint(h.n, ph))
    return out


def _restriction_invariants(h: HadamardPoint):
    """u invariants of the restriction to the first three coordinate and
    column projectors: P = e1 + e2 + e3, q_j the projector onto column j."""
    u = h.unitary()
    P = np.diag((np.arange(h.n) < 3).astype(np.complex128))
    return u_invariants(P, *(rank1_projector(u[:, j]) for j in range(3)))


def family_jsonl_records(points, residuals=None, path_id: int = 0):
    """One JSON record per point: phases, residual, invariants (computed here
    and nowhere else), step, path."""
    for k, h in enumerate(points):
        res = residuals[k] if residuals is not None else h.unitarity_residual()
        inv = _restriction_invariants(h)
        yield {
            "phases": [[float(x) for x in row] for row in h.phases],
            "residual": float(res),
            "invariants": {
                "u1": inv.u1, "u2": inv.u2, "u3": inv.u3,
                "imag_residue": inv.imag_residue,
            },
            "step": k,
            "path": path_id,
        }


def write_family_jsonl(path, points, residuals=None, path_id: int = 0,
                       append: bool = False) -> None:
    """Dump points as JSONL; ``append`` accumulates several paths in one file.

    Every record is built before the file is opened, so a refused point
    leaves an existing file unchanged.
    """
    lines = [json.dumps(rec) + "\n" for rec in family_jsonl_records(points, residuals, path_id)]
    with open(path, "a" if append else "w") as fh:
        fh.writelines(lines)
