"""Exact-arithmetic oracles.

Everything here runs over exact fields (rationals, or the cyclotomic field
Q(e) with e = exp(i*pi/3)), independently of the double-precision code
paths.  It exists so that the frozen expected values used by the test suite
and the fitted trace-relation constants are *computed*, not transcribed:

* ``Q6`` implements the field Q(e).  Since e satisfies e^2 = e - 1 every
  element is a + b*e with rational a, b, and complex conjugation is the
  field map e -> 1 - e.  Entries of the discrete-Fourier projectors live in
  this field (the 1/sqrt(n) normalisations cancel inside projectors), so
  trace invariants of the standard pair are exact Q6 numbers.
* Rational matrices (lists of Fractions) support just enough arithmetic to
  build exact points of the rank-3/rank-1 idempotent relation locus and fit
  the u1/u2 trace-identity constants from them.
* An exact Gaussian-elimination rank over any of these fields provides a
  floating-point-free cross-check of nullity counts on small systems.
"""

from __future__ import annotations

import random
from fractions import Fraction

__all__ = [
    "Q6",
    "eps_pow",
    "fourier_pair_trace",
    "u_for_columns",
    "identity_sides",
    "exact_a3_point",
    "fit_u1_constants",
    "fit_u2_constants",
    "exact_rank",
]


class Q6:
    """Element a + b*e of Q(e), e = exp(i*pi/3), with e^2 = e - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @staticmethod
    def _coerce(x) -> "Q6":
        return x if isinstance(x, Q6) else Q6(x)

    def __add__(self, other):
        o = self._coerce(other)
        return Q6(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Q6(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        # (a1 + b1 e)(a2 + b2 e), reduced with e^2 = e - 1
        return Q6(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a + self.b * o.b)

    __rmul__ = __mul__

    def __neg__(self):
        return Q6(-self.a, -self.b)

    def __truediv__(self, other):
        o = self._coerce(other)
        # 1/(a + b e) = conj / |.|^2 with |a + b e|^2 = a^2 + a b + b^2
        n2 = o.a * o.a + o.a * o.b + o.b * o.b
        if n2 == 0:
            raise ZeroDivisionError("division by zero in Q(e)")
        c = o.conj()
        return Q6((self.a * c.a - self.b * c.b) / n2,
                  (self.a * c.b + self.b * c.a + self.b * c.b) / n2)

    def conj(self) -> "Q6":
        return Q6(self.a + self.b, -self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is not rational")
        return self.a

    def to_complex(self) -> complex:
        return complex(self.a) + complex(self.b) * complex(0.5, 0.75 ** 0.5)

    def __repr__(self):
        return f"Q6({self.a}, {self.b})"


_EPS_POWERS = (Q6(1, 0), Q6(0, 1), Q6(-1, 1), Q6(-1, 0), Q6(0, -1), Q6(1, -1))


def eps_pow(k: int) -> Q6:
    """e^k for the primitive sixth root e = exp(i*pi/3)."""
    return _EPS_POWERS[k % 6]


# ---------------------------------------------------------------------------
# Standard-pair trace invariants over Q(e).
#
# With p_a the coordinate projectors and q_c the projector onto Fourier
# column c (0-based), the scalarised cross terms are
#     f_i^dag P f_j = (1/6) sum_{a in A} e^{a (j - i)},   P = sum_{a in A} p_a,
# so every u / z / identity value is a short exact sum.
# ---------------------------------------------------------------------------


def _column_overlap(axes: tuple[int, ...], d: int) -> Q6:
    """(6 f_i^dag P f_j) for P supported on 0-based coordinate axes, d = j - i."""
    acc = Q6(0)
    for a in axes:
        acc = acc + eps_pow(a * d)
    return acc


def fourier_pair_trace(axes, ci: int, cj: int) -> Q6:
    """36 * Tr(P q_i P q_j) for coordinate-axis P, Fourier columns ci, cj."""
    axes = tuple(axes)
    return _column_overlap(axes, cj - ci) * _column_overlap(axes, ci - cj)


def u_for_columns(cols, axes=(0, 1, 2)) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (u1, u2, u3) for q-columns ``cols`` against coordinate-axis P.

    u1 = 36 (T12 + T13 + T23), u2 = 216 (Tr Pq1Pq2Pq3 + Tr Pq1Pq3Pq2) and
    u3 = (36 T12 - 1)(36 T23 - 1)(36 T31 - 1); all three are rational on
    these points, which the return type asserts.
    """
    c1, c2, c3 = cols
    axes = tuple(axes)
    t12 = fourier_pair_trace(axes, c1, c2)
    t13 = fourier_pair_trace(axes, c1, c3)
    t23 = fourier_pair_trace(axes, c2, c3)
    u1 = t12 + t13 + t23

    def overlap(ci, cj):
        return _column_overlap(axes, cj - ci)

    w123 = overlap(c1, c2) * overlap(c2, c3) * overlap(c3, c1)
    w132 = overlap(c1, c3) * overlap(c3, c2) * overlap(c2, c1)
    u2 = w123 + w132
    u3 = (t12 - 1) * (t23 - 1) * (t13 - 1)
    return u1.as_fraction(), u2.as_fraction(), u3.as_fraction()


def identity_sides(p_axes, q_cols) -> tuple[Fraction, Fraction]:
    """Both sides of the ordered-pair trace identity at a standard sub-triple.

    Left side: product over ordered pairs i != j of (36 Tr(P q_i P q_j) - 1)
    with P the sum of the coordinate projectors ``p_axes`` and q_i Fourier
    column projectors.  Right side: same with roles of the two systems
    exchanged.  Both are exact rationals.
    """
    p_axes = tuple(p_axes)
    q_cols = tuple(q_cols)
    lhs = Q6(1)
    for i in range(3):
        for j in range(3):
            if i != j:
                lhs = lhs * (fourier_pair_trace(p_axes, q_cols[i], q_cols[j]) - 1)
    # Exchange roles: Q = sum of column projectors, p_i coordinate projectors.
    # 6 e_i^dag Q e_j = sum_{c in cols} e^{(i - j) c}, i, j 0-based axes.
    rhs = Q6(1)

    def q_overlap(d):
        acc = Q6(0)
        for c in q_cols:
            acc = acc + eps_pow(d * c)
        return acc

    for i in range(3):
        for j in range(3):
            if i != j:
                ai, aj = p_axes[i], p_axes[j]
                rhs = rhs * (q_overlap(ai - aj) * q_overlap(aj - ai) - 1)
    return lhs.as_fraction(), rhs.as_fraction()


# ---------------------------------------------------------------------------
# Exact rational points of the A3 relation locus and constant fitting.
# ---------------------------------------------------------------------------


def _mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _mat_add(A, B):
    return [[A[i][j] + B[i][j] for j in range(len(A[0]))] for i in range(len(A))]


def _mat_trace(A):
    return sum(A[i][i] for i in range(len(A)))


def _solve3(A, b):
    """Solve a 3x3 rational system in place; returns None if singular."""
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for col in range(3):
        piv = next((r for r in range(col, 3) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(3):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][3] / M[r][r] for r in range(3)]


def exact_a3_point(rng: random.Random):
    """A random exact rational solution of P^2=P (rank 3), q_i^2=q_i (rank 1),
    q_i P q_i = q_i / 2, in dimension 6.

    Construction: P = [[I, M], [0, 0]] in 3+3 block form is idempotent of
    rank 3 for any M; q_i = v_i w_i^T with w_i^T v_i = 1 is a rank-1
    idempotent, and the sandwich relation reduces to the single scalar
    condition w_i^T P v_i = 1/2, which is linear in M.  Note the triple is
    *not* required to be orthogonal or to sum to a projector: the fitted
    trace relations hold on this larger locus.
    """

    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    while True:
        vs, ws = [], []
        degenerate = False
        for _ in range(3):
            v = [frac() for _ in range(6)]
            w = [frac() for _ in range(6)]
            s = sum(wi * vi for wi, vi in zip(w, v))
            if s == 0 or all(x == 0 for x in v[3:]):
                degenerate = True
                break
            vs.append(v)
            ws.append([x / s for x in w])
        if degenerate:
            continue
        m_rest = [[frac() for _ in range(3)] for _ in range(2)]
        rows, rhs = [], []
        for v, w in zip(vs, ws):
            wu, vl = w[:3], v[3:]
            rows.append([wu[0] * vl[0], wu[0] * vl[1], wu[0] * vl[2]])
            known = sum(wu[r + 1] * m_rest[r][c] * vl[c] for r in range(2) for c in range(3))
            rhs.append(Fraction(1, 2) - sum(wi * vi for wi, vi in zip(w[:3], v[:3])) - known)
        m0 = _solve3(rows, rhs)
        if m0 is None:
            continue
        M = [m0, m_rest[0], m_rest[1]]
        P = [[Fraction(0)] * 6 for _ in range(6)]
        for i in range(3):
            P[i][i] = Fraction(1)
            for j in range(3):
                P[i][3 + j] = M[i][j]
        qs = [[[v[r] * w[c] for c in range(6)] for r in range(6)] for v, w in zip(vs, ws)]
        for q in qs:
            half_q = [[x / 2 for x in row] for row in q]
            if _mat_mul(q, q) != q or _mat_mul(q, _mat_mul(P, q)) != half_q:
                raise ArithmeticError("constructed point violates the sandwich relations")
        if _mat_mul(P, P) != P:
            raise ArithmeticError("constructed P is not idempotent")
        return P, qs


def _point_traces(P, qs):
    Q = _mat_add(_mat_add(qs[0], qs[1]), qs[2])
    PQ = _mat_mul(P, Q)
    PQPQ = _mat_mul(PQ, PQ)
    t4 = _mat_trace(PQPQ)
    t6 = _mat_trace(_mat_mul(PQPQ, PQ))

    def tr_pqpq(i, j):
        return _mat_trace(_mat_mul(_mat_mul(P, qs[i]), _mat_mul(P, qs[j])))

    u1 = 36 * (tr_pqpq(0, 1) + tr_pqpq(0, 2) + tr_pqpq(1, 2))

    def tr_pqpqpq(i, j, k):
        return _mat_trace(_mat_mul(_mat_mul(P, qs[i]), _mat_mul(_mat_mul(P, qs[j]), _mat_mul(P, qs[k]))))

    u2 = 216 * (tr_pqpqpq(0, 1, 2) + tr_pqpqpq(0, 2, 1))
    return t4, t6, u1, u2


def fit_u1_constants(seed: int = 7) -> tuple[Fraction, Fraction]:
    """Exact (alpha, beta) with u1 = alpha * 36 Tr(PQPQ) + beta on the locus."""
    rng = random.Random(seed)
    pts = [_point_traces(*exact_a3_point(rng)) for _ in range(3)]
    (t4a, _, u1a, _), (t4b, _, u1b, _), check = pts
    if t4a == t4b:
        raise ArithmeticError("degenerate sample; change seed")
    alpha = (u1a - u1b) / (36 * (t4a - t4b))
    beta = u1a - alpha * 36 * t4a
    t4c, _, u1c, _ = check
    if u1c != alpha * 36 * t4c + beta:
        raise ArithmeticError("u1 is not an affine function of Tr(PQPQ) on the locus")
    return alpha, beta


def fit_u2_constants(seed: int = 11) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (alpha', beta', gamma') with u2 = alpha' Tr(PQPQPQ) + beta' Tr(PQPQ) + gamma'."""
    rng = random.Random(seed)
    pts = [_point_traces(*exact_a3_point(rng)) for _ in range(4)]
    rows = [[pts[i][1], pts[i][0], Fraction(1)] for i in range(3)]
    rhs = [pts[i][3] for i in range(3)]
    coeffs = _solve3(rows, rhs)
    if coeffs is None:
        raise ArithmeticError("degenerate sample; change seed")
    t4, t6, _, u2 = pts[3]
    if u2 != coeffs[0] * t6 + coeffs[1] * t4 + coeffs[2]:
        raise ArithmeticError("u2 is not a linear combination of Tr(PQPQPQ), Tr(PQPQ), 1")
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Exact rank over Q or Q(e) by fraction-free-ish Gaussian elimination.
# ---------------------------------------------------------------------------


def exact_rank(rows: list[list]) -> int:
    """Rank of a matrix with Fraction or Q6 entries, by exact elimination."""
    m = [row[:] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pivval = m[row][col]
        for r in range(row + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / pivval
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank
