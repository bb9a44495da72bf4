"""Predictor-corrector tracing of the four-dimensional Hadamard family.

Working coordinates are the dephased phases: 25 real unknowns at n = 6,
with all gauge freedom (basis phases and simultaneous conjugation) removed
exactly, so the kernel of the unitarity Jacobian *is* the family tangent
and no orbit subtraction is needed.

The corrector is a chord method (Allgower & Georg, *Introduction to
Numerical Continuation Methods*, SIAM 2003, ch. 3).  On the family the
phase Jacobian J is rank-deficient by exactly the four tangent directions;
the one SVD that gives the frame at a point also gives the truncated
pseudo-inverse J+ = V_r S_r^-1 U_r^T there (singular values below 1e-10 of
the largest dropped).  A move predicts along the frame and corrects with
chord steps x <- x - J+ c(x), which evaluate the constraints c only.  Each
step lies in the row space of J at the move's start, i.e. orthogonal to
the family there (not at the iterate), so a predictor step of size h is
corrected by O(h^2) and lands back on the manifold a distance ~h from
where it started.  A chord that stalls is a failed try, and the move
halves its step.  (Gauss-Newton, which takes J at every iterate, would
drift: off the variety the four tangent singular values of J are no
longer zero, and above the cut, so its steps also move along the family.
A prediction of 1e-2 from F6 swap34 has them at 8.5e-7 to 5.4e-10, and
Gauss-Newton corrects it by 3.7e-3 where chord steps take 1.4e-5.)

A converged corrector builds the phase Jacobian once, at the point it
returns, and hands it to the tangent frame there; so a continuation point
costs one Jacobian and one SVD, which gives both its frame and its J+, and
no least-squares solve.  Only the start of a walk builds a Jacobian for its
frame.  Every frame is the kernel of a phase Jacobian, cut by the one
dephased-defect decision, :func:`tangent._defect_kernel`.

What only reads a finished list of points works on it as one stack, never
point by point: the family dump gates, reconstructs and evaluates a path's
points together (one unitarity gate, batched projectors and trace words,
one batched spectral norm for residuals it is not given), a sample's
``max_residual`` is one batched norm, and the canonical keys of a list go
through one key kernel in fixed-size chunks.  Each number is bit-equal to
the one its point gives alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .config import UNITARITY_TOL, HadamardPoint, _wrap_angles, dephased_phases, gram_defects, reconstruct_phases
from .config import atomic_write
from .invariants import InvariantVector, u_word_traces
from .linalg import OffVariety, gauss_newton, rank1_projector, worst_above
from .tangent import _defect_kernel, _gram_constraints, phase_constraints

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
DEFAULT_STEP_SCALE = 5e-3
CORRECTOR_TOL = 1e-12  # newton_correct converges at this norm of the unitarity constraints
CORRECTOR_MAX_ITER = 20
CORRECTOR_WINDOW = 3  # newton_correct gives up when its norm has not halved over this many steps
STEP_HALVINGS = 5  # a continuation move halves its step at most this often before it gives up
KEY_GRID = 1e-6  # the canonical key compares phases rounded to this grid
KEY_MAX_N = 10  # the canonical key packs each row of ranks into one int64 code up to this n
KEY_CHUNK_CODES = 1 << 13  # the key kernel holds at most this many codes (64 KiB) at a time, or one candidate's


def _point_from_vector(n: int, x: np.ndarray) -> HadamardPoint:
    return HadamardPoint(n, x.reshape(n - 1, n - 1))


def _phase_distance(a: HadamardPoint, b: HadamardPoint) -> float:
    return float(np.linalg.norm(_wrap_angles(a.phases - b.phases)))


def tangent_frame(h: HadamardPoint, prev: np.ndarray | None = None,
                  jacobian: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the family tangent at an on-manifold point, and
    the truncated pseudo-inverse of the phase Jacobian there.

    Returns the ((n-1)^2, 4) array of kernel vectors of the unitarity
    Jacobian J and J+ = V_r S_r^-1 U_r^T, the (n-1)^2 x n(n-1) truncated
    pseudo-inverse at the same cut, which :func:`newton_correct` takes for
    its chord steps from this point.  When ``prev`` is given the basis is
    rotated (orthogonal Procrustes) to match it as closely as possible,
    which keeps frames continuous along a path.  Points whose defect is not
    4 are off the family or singular and are refused.

    Both come from the single SVD and cut of
    :func:`tangent._defect_kernel`.  ``jacobian`` is that Jacobian as a
    converged :func:`newton_correct` hands it over
    (``CorrectorResult.jacobian``).  Without it (a walk start) the point is
    gated by :meth:`HadamardPoint.unitary`, which refuses it outside
    UNITARITY_TOL, and the Jacobian is built.  With it there is no gate, and
    none is needed: the corrector converged at ||c|| <= CORRECTOR_TOL =
    1e-12, c holds the real and imaginary parts of the off-diagonal entries
    of U^dag U - I above the diagonal, and the reconstruction pins the
    moduli, so the diagonal is rounding; hence ||U^dag U - I||_2 <=
    ||U^dag U - I||_F, about sqrt(2) ||c||, far below UNITARITY_TOL = 1e-8.
    """
    if jacobian is None:
        h.unitary()
        jacobian = phase_constraints(h)[1]
    _, V, pinv = _defect_kernel(jacobian)
    if V.shape[1] != FAMILY_DIM:
        raise ValueError(f"dephased defect is {V.shape[1]}, not {FAMILY_DIM}; no 4-frame here")
    if prev is not None:
        if prev.shape != V.shape:
            raise ValueError("previous frame has wrong shape")
        u, _, w = np.linalg.svd(V.T @ prev)
        V = V @ (u @ w)
    return V, pinv()


@dataclass(frozen=True, eq=False)  # array fields: equality and hash by identity
class CorrectorResult:
    """``jacobian`` is the phase Jacobian (:func:`tangent.phase_constraints`)
    at ``point`` when the corrector converged, None otherwise.
    ``iterations`` counts the chord steps."""

    point: HadamardPoint
    residual: float
    iterations: int
    converged: bool
    jacobian: np.ndarray | None = None


def newton_correct(h: HadamardPoint, pinv: np.ndarray) -> CorrectorResult:
    """Project an approximate point back onto the Hadamard variety.

    ``pinv`` is a truncated pseudo-inverse J+ of the phase Jacobian at a
    nearby point, the one :func:`tangent_frame` returns there.  The
    corrector takes chord steps x <- x - J+ c(x) (Allgower & Georg, SIAM
    2003, ch. 3), each evaluating only the constraints c, and builds the
    Jacobian once, at the point where they converge, from the
    reconstruction U its last step evaluated there.  Chord steps converge
    linearly, at a rate set by how far the start is from the point of J+.
    A chord that stalls (its norm not halved over CORRECTOR_WINDOW steps,
    or CORRECTOR_MAX_ITER steps) returns its best iterate flagged as
    failed, with no Jacobian, never a silently bad point.  Grossly
    off-manifold starts (unitarity residual above 0.5, screened as by
    :meth:`HadamardPoint.unitarity_violation`) are refused outright with
    OffVariety; the chord's first step takes its c from that gate's U^dag U.

    A converged result keeps the point and the Jacobian at that point;
    :func:`tangent_frame` takes its kernel from it.
    """
    n = h.n
    u = h.reconstruct()
    gram = u.conj().T @ u
    if (worst := worst_above((gram - np.eye(n))[None], 0.5)) is not None:
        raise OffVariety("starting residual above 0.5; far outside any corrector basin", worst[1])
    # U and c at the latest iterate; at the start, the gate's (a
    # HadamardPoint keeps its phases wrapped, and wrapping them again leaves
    # every bit, so they are those of the start's own point)
    start, latest = h.phases.ravel(), [u, _gram_constraints(gram)]

    def chord(x):
        if x is not start:
            latest[0] = _point_from_vector(n, x).reconstruct()
            latest[1] = _gram_constraints(latest[0].conj().T @ latest[0])
        return latest[1], None

    x, r, steps, converged = gauss_newton(chord, start, CORRECTOR_TOL, CORRECTOR_MAX_ITER,
                                          CORRECTOR_WINDOW, lambda c, _: -(pinv @ c))
    point = _point_from_vector(n, x)
    if not converged:
        return CorrectorResult(point, r, steps, False)
    # gauss_newton stops at the iterate it has just evaluated
    return CorrectorResult(point, r, steps, True, phase_constraints(point, latest[0])[1])


def _corrected_step(current: HadamardPoint, pinv: np.ndarray, scale: float, predict, min_move: float):
    """One continuation move: predict, correct, and halve the step on failure.

    ``predict(s)`` gives the phase step for step size ``s``; it is called
    afresh on every try.  Each try is corrected from the prediction with
    ``pinv``, the J+ at ``current``.  A try succeeds when the corrector
    converges at a point at least ``min_move * s`` away (torus phase norm)
    from ``current``; otherwise (a prediction outside the corrector's
    basin, a stalled chord or too short a move) ``s`` is halved, at most
    STEP_HALVINGS times.  Returns (corrector result or None when every try
    failed, failed tries).
    """
    x = current.phases.ravel()
    for tries in range(STEP_HALVINGS + 1):
        s = scale / 2.0 ** tries
        try:
            result = newton_correct(_point_from_vector(current.n, x + predict(s)), pinv)
        except OffVariety:  # prediction outside the corrector's basin
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
    CORRECTOR_TOL), and a move whose step was halved k times lands at least
    h/2^(k+1) from the previous point in (torus) phase norm, so ``h`` must
    be finite and positive; a walk back negates ``direction``.

    The frame at ``start`` is a fresh kernel basis unless ``initial_frame``
    is given (e.g. the ``final_frame`` of a previous path, which makes a
    reversed-direction walk retrace the same curve).
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (FAMILY_DIM,):
        raise ValueError(f"direction must have {FAMILY_DIM} components")
    if not (np.isfinite(direction).all() and np.isfinite(h) and h > 0):
        raise ValueError("the direction must be finite and the step finite and positive")
    nrm = np.linalg.norm(direction)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / nrm
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    current = start
    frame, pinv = tangent_frame(start, prev=initial_frame)
    points = [start]
    residuals = [start.unitarity_residual()]
    status = "ok"
    for k in range(steps):
        result, _ = _corrected_step(current, pinv, h, lambda s: s * (frame @ direction), 0.5)
        if result is None:
            status = f"corrector failed at step {k} after {STEP_HALVINGS} halvings"
            break
        try:
            frame, pinv = tangent_frame(result.point, prev=frame, jacobian=result.jacobian)
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

    Deterministic given the seed.  Failed corrector tries (a prediction
    outside the basin or a stalled chord) shrink the step for that move and
    are counted in the metadata's ``corrector_retries``; moves that still
    fail are skipped, so the sample may come back shorter than requested
    (the first point is the start itself).  The recorded list is
    deduplicated under the canonical form of :func:`canonical_reduce`.

    The moves do not depend on the duplicate check, only the number of
    moves does: so the walk makes as many moves as points are still needed,
    keys the points moved to in one :func:`_canonical_keys` call, and
    repeats.  The points, counts and random draws are those of keying one
    move at a time, since a batch can add no more points than it has moves.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    points = [start]
    seen_keys = {_canonical_phases(start, full=False)[0]}
    frame, pinv = tangent_frame(start)
    current = start
    failures = duplicates = 0
    moves_left = 10 * count  # hard cap; persistent failures shorten the sample
    while len(points) < count and moves_left > 0:
        moved = []
        while len(moved) < count - len(points) and moves_left > 0:
            moves_left -= 1
            result, tries_failed = _corrected_step(
                current, pinv, step_scale, lambda s: frame @ (s * rng.standard_normal(FAMILY_DIM)), 0.0)
            failures += tries_failed
            if result is None:
                failures += 1
                continue
            try:
                frame, pinv = tangent_frame(result.point, prev=frame, jacobian=result.jacobian)
            except ValueError:
                failures += 1  # singular point of the family: do not move there
                continue
            current = result.point
            moved.append(current)
        for h, (key, _) in zip(moved, _canonical_keys(moved, full=False)):
            if key in seen_keys:
                duplicates += 1
            else:
                seen_keys.add(key)
                points.append(h)
    defects = gram_defects(reconstruct_phases(np.stack([p.phases for p in points])))
    meta = {
        "step_scale": step_scale,
        "corrector_tol": CORRECTOR_TOL,
        "corrector_retries": failures,
        "duplicates_skipped": duplicates,
        "max_residual": float(np.linalg.norm(defects, 2, axis=(1, 2)).max()),
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


@lru_cache(maxsize=None)
def _key_blocks(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The column permutations of an m x m block in ``itertools`` order and
    their packing matrix; built once per m.

    Entries below 2^bits, bits the bit length of m^2 - 1, pack row i of a
    block r under column order cperms[p] into the int64 code
    sum_j r[i, cperms[p, j]] 2^(bits (m - 1 - j)) = (r @ packer)[i, p]:
    packer[c, p] is the weight of the position column c takes in cperms[p].
    Codes compare as the rows do, lexicographically, and fit in 63 bits for
    m < KEY_MAX_N.  At m = 9 they hold about 30 MB, and a pivot's codes as much.
    """
    bits = (m * m - 1).bit_length()
    weights = np.int64(1) << (bits * np.arange(m - 1, -1, -1, dtype=np.int64))
    cperms = np.array(list(permutations(range(m))), dtype=np.int8)
    return cperms, np.ascontiguousarray(weights[np.argsort(cperms, axis=1)].T)


@lru_cache(maxsize=None)
def _pivot_orders(n: int, full: bool) -> tuple[np.ndarray, np.ndarray]:
    """Row and column orders of the searched pivots, one pivot per row:
    pivot (r, c) puts row r and column c first and keeps the others in
    order; (0, 0) alone, or with ``full`` all n^2 pivots in row-major order.
    Cached, hence read-only."""
    orders = np.array([[i] + [j for j in range(n) if j != i] for i in range(n)])
    r, c = np.divmod(np.arange(n * n if full else 1), n)
    rows, cols = orders[r], orders[c]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _canonical_keys(points, full: bool) -> list[tuple[tuple, np.ndarray]]:
    """(key, phases) of :func:`_canonical_phases` for each point, in order.

    A candidate is a point under one pivot.  The candidates of the points of
    one n go through one batched kernel, in chunks of at most
    KEY_CHUNK_CODES codes (one candidate at least), so the codes of a long
    list never take more memory than one chunk: dephasing, the key grid,
    the ranks (the count of smaller values in the block), the codes
    ``ranks @ packer``, their sort over rows, the least column order, the
    stable row sort and the gather of the key.  Only the comparison of a
    point's pivots (``full``) stays per candidate.
    """
    if (big := next((h.n for h in points if h.n > KEY_MAX_N), None)) is not None:
        raise ValueError(f"the canonical key is searched up to n = {KEY_MAX_N}; got n = {big}")
    out = [None] * len(points)
    by_n: dict[int, list[int]] = {}
    for i, h in enumerate(points):
        by_n.setdefault(h.n, []).append(i)
    for n, idx in by_n.items():
        if n == 1:  # a 1x1 matrix has no phase block to permute
            for i in idx:
                out[i] = (), points[i].phases
            continue
        rows, cols = _pivot_orders(n, full)
        cperms, packer = _key_blocks(n - 1)
        u = reconstruct_phases(np.stack([points[i].phases for i in idx]))
        total, chunk = len(idx) * len(rows), max(1, KEY_CHUNK_CODES // packer.size)
        for start in range(0, total, chunk):
            point, pivot = np.divmod(np.arange(start, min(start + chunk, total)), len(rows))
            ph = dephased_phases(u[point[:, None, None], rows[pivot][:, :, None], cols[pivot][:, None, :]])
            rounded = _key_grid(ph)
            flat = rounded.reshape(len(point), -1)
            ranks = (flat[:, None, :] < flat[:, :, None]).sum(axis=2).reshape(rounded.shape)
            codes = ranks @ packer  # codes[a, i, p]: row i of candidate a with its columns in order cperms[p]
            # each candidate's column order whose sorted codes are least, the
            # first one in permutation order: the orders still tied narrow
            # down row by row, until one is left per candidate
            least = np.sort(codes, axis=1).transpose(1, 0, 2)
            alive = least[0] == least[0].min(axis=1, keepdims=True)
            for row in least[1:]:
                if np.count_nonzero(alive) == len(alive):
                    break
                alive &= row == row.min(axis=1, initial=np.iinfo(np.int64).max, where=alive, keepdims=True)
            a = np.arange(len(point))
            p = alive.argmax(axis=1)
            rperm = np.argsort(codes[a, :, p], axis=1, kind="stable")
            at = a[:, None, None], rperm[:, :, None], cperms[p][:, None, :]
            for i, key, best in zip(point.tolist(), rounded[at].tolist(), ph[at]):
                key = tuple(map(tuple, key))
                if out[idx[i]] is None or key < out[idx[i]][0]:
                    out[idx[i]] = key, best
    return out


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

    The search compares packed rows: the rounded block is replaced by the
    ranks of its values (order-preserving, equal values equal, below m^2),
    each permuted row becomes one int64 code (:func:`_key_blocks`), and a
    candidate's sorted codes compare as its sorted rows.  The codes fit up
    to n = KEY_MAX_N = 10; larger n, whose search would take at least 10!
    permutations per pivot, is refused before any permutation is built.
    It is the one-point case of :func:`_canonical_keys`.
    """
    return _canonical_keys([h], full)[0]


def canonical_reduce(points: list[HadamardPoint], full: bool = False) -> list[HadamardPoint]:
    """Deduplicate a list of points up to dephased permutation equivalence.

    Each point is replaced by the representative realising its canonical
    key (rounding at 1e-6 is used for comparison only; the representative
    keeps unrounded phases); later points with an already-seen key are
    dropped.  Idempotent for points away from rounding-tie boundaries.
    """
    seen = set()
    out = []
    for h, (key, ph) in zip(points, _canonical_keys(points, full)):
        if key not in seen:
            seen.add(key)
            out.append(HadamardPoint(h.n, ph))
    return out


def _restriction_invariants(u: np.ndarray) -> list[InvariantVector]:
    """u invariants of the restriction to the first three coordinate and
    column projectors, P = e1 + e2 + e3 and q_j the projector onto column j,
    at each matrix of the (k, n, n) stack ``u``: three batched projectors
    and one batched product per factor of each trace word."""
    P = np.diag((np.arange(u.shape[-1]) < 3).astype(np.complex128))
    traces = u_word_traces(P, [rank1_projector(u[:, :, j]) for j in range(3)])
    return [InvariantVector.from_traces(t) for t in zip(*traces)]


def family_jsonl_records(points, residuals=None, path_id: int = 0):
    """One JSON record per point: phases, residual, invariants (computed here
    and nowhere else), step, path.

    The points, all of one n, are evaluated as one stack: one unitarity
    gate (:func:`~orthopair.linalg.worst_above`) for all of them, which
    refuses the first point off the variety as :meth:`HadamardPoint.unitary`
    does, before any record is yielded; without ``residuals`` one batched
    spectral norm gives every :meth:`HadamardPoint.unitarity_residual`.
    Every record is bit-equal to that of its point alone.
    """
    if not points:
        return
    u = reconstruct_phases(np.stack([h.phases for h in points]))
    defects = gram_defects(u)
    if worst_above(defects, UNITARITY_TOL) is not None:
        for h in points:  # the first point the gate refuses raises, with its residual
            h.unitary()
    if residuals is None:
        residuals = np.linalg.norm(defects, 2, axis=(1, 2))
    for k, (h, inv) in enumerate(zip(points, _restriction_invariants(u))):
        yield {
            "phases": h.phases.tolist(),
            "residual": float(residuals[k]),
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
    leaves an existing file unchanged.  Without ``append`` the file is
    written by :func:`~orthopair.config.atomic_write`, complete or as it
    was; an append is not atomic and can leave a torn last line.
    """
    text = "".join(json.dumps(rec) + "\n" for rec in family_jsonl_records(points, residuals, path_id))
    if not append:
        return atomic_write(path, lambda fh: fh.write(text))
    with open(path, "a") as fh:
        fh.write(text)
