"""Extended-precision re-checks (software arithmetic, >= 30 significant digits).

Mirrors the handful of operations the double-precision oracles rely on --
products, traces, residual norms, singular values -- on mpmath matrices, so
that any reported number can be recomputed with the same interfaces at
higher precision and compared.  Heavy tangent computations are deliberately
out of scope here; the values they produce are integers guarded by gap
ratios, not continuous quantities.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

__all__ = [
    "DIGITS",
    "to_mp",
    "mp_trace",
    "mp_singular_values",
    "standard_pair_mp",
    "pair_residual_categories_mp",
    "u_invariants_mp_matrices",
    "z_functions_mp_matrices",
    "identity_sides_mp_matrices",
]

DIGITS = 34


class _precision:
    def __enter__(self):
        self._saved = mp.mp.dps
        mp.mp.dps = DIGITS

    def __exit__(self, *exc):
        mp.mp.dps = self._saved


def to_mp(a) -> mp.matrix:
    """mp matrix of a double-precision array; mp matrices pass through unchanged."""
    if isinstance(a, mp.matrix):
        return a
    a = np.asarray(a, dtype=complex)
    with _precision():
        m = mp.matrix(a.shape[0], a.shape[1])
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                m[i, j] = mp.mpc(a[i, j].real, a[i, j].imag)
        return m


def mp_trace(a: mp.matrix) -> mp.mpc:
    with _precision():
        return sum(a[i, i] for i in range(a.rows))


def mp_singular_values(a) -> np.ndarray:
    """Descending singular values computed at DIGITS digits, as float64."""
    with _precision():
        s = mp.svd_c(to_mp(a), compute_uv=False)
        vals = sorted((float(s[i]) for i in range(s.rows)), reverse=True)
    return np.array(vals)


# ---------------------------------------------------------------------------
# The standard pair at extended precision.
# ---------------------------------------------------------------------------


def standard_pair_mp(n: int, swap34: bool = False) -> tuple[list[mp.matrix], list[mp.matrix]]:
    """The standard pair rebuilt at DIGITS digits: coordinate projectors and
    the column projectors of the (optionally column-swapped) Fourier matrix."""
    with _precision():
        a = mp.matrix(n, n)
        root = mp.sqrt(mp.mpf(n))
        for i in range(n):
            for j in range(n):
                a[i, j] = mp.expjpi(mp.mpf(2 * i * j) / n) / root
        if swap34:
            for i in range(n):
                a[i, 2], a[i, 3] = a[i, 3], a[i, 2]
        ps = []
        for i in range(n):
            e = mp.zeros(n, n)
            e[i, i] = mp.mpf(1)
            ps.append(e)
        qs = []
        for j in range(n):
            col = mp.matrix([[a[i, j]] for i in range(n)])
            qs.append(col * col.transpose_conj())
        return ps, qs


# ---------------------------------------------------------------------------
# Re-checks on matrices, from double-precision arrays or mp matrices.
# ---------------------------------------------------------------------------


def pair_residual_categories_mp(ps, qs) -> dict:
    """The double-precision verifier's relation kinds, restated in mp with
    exact 1/n: idempotency, edge (x_i x_j x_i = x_i / n across the systems),
    non-edge (x_i x_j = 0 within a system) and sum (each system sums to
    the identity).

    Each residual matrix is formed in mp and its spectral norm taken on the
    matrix rounded to double: the norm is perfectly conditioned, so the
    rounding changes it by a relative 1e-16.  A residual beyond the double
    range raises OverflowError naming its kind.
    """
    with _precision():
        mp_ps = [to_mp(m) for m in ps]
        mp_qs = [to_mp(m) for m in qs]
        n = mp_ps[0].rows
        inv_n = mp.mpf(1) / n
        cats: dict[str, float] = {}

        def worst(kind: str, residual: mp.matrix) -> None:
            m = np.array(residual.tolist(), dtype=complex)
            if not np.isfinite(m).all():
                raise OverflowError(f"{kind} residual exceeds the double range")
            cats[kind] = max(cats.get(kind, 0.0), float(np.linalg.norm(m, 2)))

        for system in (mp_ps, mp_qs):
            for i, a in enumerate(system):
                worst("idempotency", a * a - a)
                for j, b in enumerate(system):
                    if i != j:
                        worst("non-edge", a * b)
        for p in mp_ps:
            for q in mp_qs:
                pq = p * q
                worst("edge", pq * p - inv_n * p)
                worst("edge", q * pq - inv_n * q)
        for system in (mp_ps, mp_qs):
            worst("sum", sum(system[1:], system[0]) - mp.eye(n))
        return cats


def u_invariants_mp_matrices(P, q_triple) -> tuple[float, float, float, float]:
    """(u1, u2, u3, imag residue) recomputed in mp from double inputs."""
    with _precision():
        Pm = to_mp(P)
        q1, q2, q3 = (to_mp(q) for q in q_triple)
        t12 = mp_trace(Pm * q1 * Pm * q2)
        t13 = mp_trace(Pm * q1 * Pm * q3)
        t23 = mp_trace(Pm * q2 * Pm * q3)
        u1 = 36 * (t12 + t13 + t23)
        u2 = 216 * (mp_trace(Pm * q1 * Pm * q2 * Pm * q3) + mp_trace(Pm * q1 * Pm * q3 * Pm * q2))
        u3 = (36 * t12 - 1) * (36 * t23 - 1) * (36 * t13 - 1)
        residue = max(abs(u1.imag), abs(u2.imag), abs(u3.imag))
        return float(u1.real), float(u2.real), float(u3.real), float(residue)


def z_functions_mp_matrices(P, qs) -> tuple[float, float]:
    with _precision():
        Pm = to_mp(P)
        q = [to_mp(m) for m in qs]
        z1 = mp_trace(Pm * q[0] * Pm * q[1])
        z2 = mp_trace(Pm * q[4] * Pm * q[5])
        return float(z1.real), float(z2.real)


def identity_sides_mp_matrices(p_triple, q_triple) -> tuple[float, float, float]:
    with _precision():
        p = [to_mp(m) for m in p_triple]
        q = [to_mp(m) for m in q_triple]
        P = p[0] + p[1] + p[2]
        Q = q[0] + q[1] + q[2]
        lhs = mp.mpc(1)
        rhs = mp.mpc(1)
        for i in range(3):
            for j in range(3):
                if i != j:
                    lhs *= 36 * mp_trace(P * q[i] * P * q[j]) - 1
                    rhs *= 36 * mp_trace(Q * p[i] * Q * p[j]) - 1
        return float(lhs.real), float(rhs.real), float(abs(lhs - rhs))
