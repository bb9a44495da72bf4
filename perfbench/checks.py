"""Independent checks of the program's outputs.

Every check recomputes what it needs from the raw output with its own
arithmetic (numpy on matrices the benchmark rebuilds itself, or the exact
rational oracle in ``orthopair.exact``), or tests a property the method must
have.  None compares against a stored copy of an earlier output.  A failed
check raises :class:`CheckError`.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from orthopair import exact

GAP_MIN = 1e3           # the package's own decisive-gap rule for integer answers
UNITARY_TOL = 1e-10
INVARIANT_TOL = 1e-9
IDENTITY_TOL = 1e-9
TRIPLE_TOL = 1e-8
EXTENDED_TOL = 1e-12
KEY_GRID = 1e-6         # rounding grid of the canonical key
N = 6


class CheckError(Exception):
    """An output that the method could not have produced if it were right."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol, relative to the size of the values once they exceed 1."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Integer answers.
# ---------------------------------------------------------------------------


def dimension(what: str, value: int, expected: int, gap_ratio: float) -> None:
    require(value == expected, f"{what}: dimension {value}, expected {expected}")
    require(gap_ratio >= GAP_MIN, f"{what}: gap ratio {gap_ratio:.3g} below {GAP_MIN:.0e}")


def fiber(what: str, rank: int, moduli_dim: int, degenerate_u3: bool,
          singular_values, rtol: float = 1e-8) -> None:
    """Rank 3 of d(u1, u2, u3) on a 4-dimensional moduli tangent, decided by a
    gap of at least GAP_MIN at the cut, unless the point is flagged degenerate."""
    if degenerate_u3:
        return
    require(rank == 3 and moduli_dim == 4,
            f"{what}: invariant rank {rank} on moduli dimension {moduli_dim}, expected 3 on 4")
    s = np.asarray(singular_values, dtype=float)
    below = s[rank] if rank < s.size else rtol * s[0]
    require(below == 0 or s[rank - 1] / below >= GAP_MIN,
            f"{what}: invariant rank cut has gap {s[rank - 1] / below:.3g}")


# ---------------------------------------------------------------------------
# Hadamard points and the family dump.
# ---------------------------------------------------------------------------


def hadamard_matrix(phases) -> np.ndarray:
    """exp(i phi) / sqrt(n) with the dephased first row and column pinned."""
    phases = np.asarray(phases, dtype=float)
    n = phases.shape[0] + 1
    u = np.ones((n, n), dtype=np.complex128)
    u[1:, 1:] = np.exp(1j * phases)
    return u / np.sqrt(n)


def unitary(what: str, phases, tol: float = UNITARY_TOL) -> None:
    u = hadamard_matrix(phases)
    dev = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))
    require(dev <= tol, f"{what}: rebuilt matrix is {dev:.3g} from unitary")


def unitary_points(what: str, phases_list) -> None:
    for i, phases in enumerate(phases_list):
        unitary(f"{what} point {i}", phases)


def torus_distance(a, b) -> float:
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.linalg.norm(np.mod(d + np.pi, 2 * np.pi) - np.pi))


def step_lengths(what: str, path_phases, h: float) -> None:
    for k, (a, b) in enumerate(zip(path_phases, path_phases[1:])):
        dist = torus_distance(a, b)
        require(dist >= h / 2, f"{what}: step {k + 1} moved {dist:.3g} < h/2 = {h / 2:.3g}")


def closed_form_invariants(phases) -> tuple[float, float, float]:
    """(u1, u2, u3) of the leading-triple restriction from the Gram matrix.

    With P the first three coordinate projectors and q_j the column
    projectors, Tr(P q_i P q_j) = |G_ij|^2 for G = B^H B, B the top-left 3x3
    block of the matrix.
    """
    b = hadamard_matrix(phases)[:3, :3]
    g = b.conj().T @ b
    t = np.abs(g) ** 2
    pairs = ((0, 1), (1, 2), (0, 2))
    u1 = 36.0 * sum(t[i, j] for i, j in pairs)
    u2 = 432.0 * float((g[0, 1] * g[1, 2] * g[2, 0]).real)
    u3 = float(np.prod([36.0 * t[i, j] - 1.0 for i, j in pairs]))
    return float(u1), u2, u3


def jsonl_records(what: str, text: str, expected: dict[int, list[np.ndarray]]) -> None:
    """The dump holds exactly the expected points per path id, in order, each
    unitary and with invariants matching the closed form."""
    seen: dict[int, list[np.ndarray]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            rec = json.loads(line)
            phases = np.array(rec["phases"], dtype=float)
            inv = rec["invariants"]
            path = int(rec["path"])
            step = int(rec["step"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"{what}: line {line_no} is not a family record ({exc})") from exc
        seen.setdefault(path, []).append(phases)
        require(step == len(seen[path]) - 1, f"{what}: line {line_no} has step {step}")
        unitary(f"{what} line {line_no}", phases)
        for key, want in zip(("u1", "u2", "u3"), closed_form_invariants(phases)):
            require(close(float(inv[key]), want, INVARIANT_TOL),
                    f"{what}: line {line_no} {key} = {inv[key]!r}, closed form {want!r}")
    require(sorted(seen) == sorted(expected), f"{what}: path ids {sorted(seen)}, expected {sorted(expected)}")
    for path, points in expected.items():
        got = seen[path]
        require(len(got) == len(points), f"{what}: path {path} has {len(got)} records, expected {len(points)}")
        for k, (a, b) in enumerate(zip(got, points)):
            require(np.array_equal(a, b), f"{what}: path {path} record {k} differs from the returned point")


_PERMUTATIONS = np.array(list(itertools.permutations(range(N - 1))))


def canonical_key(phases) -> tuple:
    """Least rounded phase block over column permutations with sorted rows.

    The same equivalence the program's ``canonical_reduce`` documents (row
    and column permutations that keep the pinned first row and column),
    computed here with numpy on the rebuilt matrix.
    """
    ph = np.angle(hadamard_matrix(phases)[1:, 1:])
    rounded = np.round(ph / KEY_GRID).astype(np.int64)
    best = None
    for perm in _PERMUTATIONS:
        cand = rounded[:, perm]
        order = np.lexsort(cand.T[::-1])
        key = tuple(map(tuple, cand[order]))
        if best is None or key < best:
            best = key
    return best


def distinct_keys(what: str, points_phases) -> None:
    keys = [canonical_key(p) for p in points_phases]
    require(len(set(keys)) == len(keys),
            f"{what}: {len(keys) - len(set(keys))} equivalent points survived deduplication")


def same_points(what: str, got, want, tol: float = 0.0) -> None:
    require(len(got) == len(want), f"{what}: {len(got)} points, expected {len(want)}")
    for k, (a, b) in enumerate(zip(got, want)):
        if tol == 0.0:
            require(np.array_equal(a, b), f"{what}: point {k} is not bit-identical")
        else:
            require(torus_distance(a, b) <= tol, f"{what}: point {k} moved by {torus_distance(a, b):.3g}")


# ---------------------------------------------------------------------------
# Certification of a family point.
# ---------------------------------------------------------------------------


def point_projectors(phases) -> tuple[np.ndarray, list[np.ndarray]]:
    """(P = e1 + e2 + e3, the six column projectors) rebuilt from the phases."""
    u = hadamard_matrix(phases)
    P = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]).astype(np.complex128)
    return P, [np.outer(u[:, j], u[:, j].conj()) for j in range(N)]


def membership(what: str, status: str) -> None:
    require(status == "real_locus", f"{what}: membership {status}, expected real_locus")


def identity_gap(what: str, gap: float, tol: float = IDENTITY_TOL) -> None:
    require(gap <= tol, f"{what}: identity gap {gap:.3g} > {tol:.0e}")


def complement_triple(what: str, triple, P, qs, tol: float = TRIPLE_TOL) -> None:
    """Rank-1 idempotents, mutually annihilating, summing to I - P, each with
    Tr(t q_j) = 1/6 against every q."""
    triple = [np.asarray(t, dtype=np.complex128) for t in triple]
    require(len(triple) == 3, f"{what}: {len(triple)} members, expected 3")
    norm = functools.partial(np.linalg.norm, ord=2)
    for i, t in enumerate(triple):
        require(norm(t @ t - t) <= tol, f"{what}: member {i} is not idempotent")
        s = np.linalg.svd(t, compute_uv=False)
        require(s[1] <= tol * s[0] and abs(np.trace(t) - 1) <= tol, f"{what}: member {i} is not rank 1")
        for j, other in enumerate(triple):
            if i != j:
                require(norm(t @ other) <= tol, f"{what}: members {i} and {j} do not annihilate")
        for j, q in enumerate(qs):
            tr = np.trace(t @ q)
            require(abs(tr - 1 / 6) <= tol, f"{what}: Tr(t{i} q{j}) = {tr:.6g}, expected 1/6")
    dev = norm(sum(triple) - (np.eye(P.shape[0]) - P))
    require(dev <= tol, f"{what}: triple sums to I - P only within {dev:.3g}")


@functools.cache
def affine_constants() -> tuple[tuple[float, float], tuple[float, float, float]]:
    """u1 = a 36 Tr(PQPQ) + b and u2 = a' Tr(PQPQPQ) + b' Tr(PQPQ) + c', fitted
    in exact arithmetic on rational points of the sandwich relation locus."""
    return (tuple(float(x) for x in exact.fit_u1_constants()),
            tuple(float(x) for x in exact.fit_u2_constants()))


def u_affine(what: str, P, qs, u1: float, u2: float) -> None:
    (a, b), (a2, b2, c2) = affine_constants()
    Q = qs[0] + qs[1] + qs[2]
    pq = P @ Q
    t4 = float(np.trace(pq @ pq).real)
    t6 = float(np.trace(pq @ pq @ pq).real)
    require(close(u1, a * 36 * t4 + b, INVARIANT_TOL), f"{what}: u1 = {u1!r} off its trace relation")
    require(close(u2, a2 * t6 + b2 * t4 + c2, INVARIANT_TOL), f"{what}: u2 = {u2!r} off its trace relation")


def z_values(what: str, P, qs, z1: float, z2: float) -> None:
    for name, got, (i, j) in (("z1", z1, (0, 1)), ("z2", z2, (4, 5))):
        want = float(np.trace(P @ qs[i] @ P @ qs[j]).real)
        require(close(got, want, INVARIANT_TOL), f"{what}: {name} = {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Command-line outputs.
# ---------------------------------------------------------------------------


def cli_json(what: str, stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise CheckError(f"{what}: stdout is not JSON ({exc})") from exc
    require(isinstance(doc, dict), f"{what}: stdout JSON is not an object")
    return doc


def standard_columns(swap34: bool = True) -> list[int]:
    """Fourier column behind each q of the standard pair (0-based)."""
    return [0, 1, 3, 2, 4, 5] if swap34 else list(range(N))


def u_exact(what: str, doc: dict, p_subset, q_subset) -> None:
    """u of the swap34 standard pair against the exact values over Q(exp(i pi/3))."""
    cols = tuple(standard_columns()[j - 1] for j in q_subset)
    want = exact.u_for_columns(cols, axes=tuple(i - 1 for i in p_subset))
    for key, w in zip(("u1", "u2", "u3"), want):
        require(close(float(doc[key]), float(w), INVARIANT_TOL), f"{what}: {key} = {doc[key]!r}, exact {w}")


def identity_exact(what: str, doc: dict, p_subset, q_subset) -> None:
    cols = tuple(standard_columns()[j - 1] for j in q_subset)
    lhs, rhs = exact.identity_sides(tuple(i - 1 for i in p_subset), cols)
    for key, w in (("lhs", lhs), ("rhs", rhs)):
        require(close(float(doc[key]), float(w), INVARIANT_TOL), f"{what}: {key} = {doc[key]!r}, exact {w}")
    identity_gap(what, float(doc["gap"]))


def extended_agrees(what: str, double: dict, extended: dict, keys, tol: float = EXTENDED_TOL) -> None:
    for key in keys:
        a, b = double[key], extended[key]
        if isinstance(a, dict):
            extended_agrees(f"{what} {key}", a, b, a.keys(), tol)
            continue
        require(close(float(a), float(b), tol), f"{what}: {key} double {a!r} vs extended {b!r}")


def decode_matrix(rows) -> np.ndarray:
    a = np.array(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]
