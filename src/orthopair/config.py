"""Projector configurations, the standard pair, and Hadamard gauge fixing.

A *configuration* is a pair of maximal systems of rank-1 projectors in
dimension n, pairwise algebraically unbiased: Tr(p_i q_j) = 1/n for all
(i, j).  Hermitian configurations are the same thing as pairs of mutually
unbiased bases, and the transition matrix between the two bases is then a
complex Hadamard matrix in the *unitary* normalisation used throughout this
package: a unitary whose entries all have modulus 1/sqrt(n).  (Catalogues
that use entries of modulus 1 differ by the factor sqrt(n).)

Gauge fixing follows the dephased convention: first row and first column of
the transition matrix real positive, so the free parameters are the
(n-1) x (n-1) phases of the remaining block and the discrete-Fourier matrix
is a fixed point of the gauge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, as_matrix, rank1_projector, spectral_norm

__all__ = [
    "PairConfiguration",
    "HadamardPoint",
    "fourier_matrix",
    "fourier_phases",
    "standard_pair",
    "pair_from_matrices",
    "residual_categories",
    "from_hadamard",
    "to_hadamard",
    "dephased_phases",
    "is_complex_hadamard",
    "save_pair",
    "load_pair",
    "save_hadamard",
    "load_hadamard",
    "encode_matrix",
    "decode_matrix",
]

DEFAULT_TOL = 1e-10
UNITARITY_TOL = 1e-8  # phases this far from unitary are refused (HadamardPoint.unitary)
GAUGE_TOL = 1e-8  # to_hadamard: Hermitian check; 10x this on the transition-matrix moduli


@dataclass(frozen=True, eq=False)  # array fields: equality and hash by identity
class PairConfiguration:
    """Two projector systems with all cross traces equal to 1/n."""

    n: int
    p: tuple[np.ndarray, ...]
    q: tuple[np.ndarray, ...]

    @property
    def residual(self) -> float:
        """The largest of the :func:`residual_categories`, recomputed on each read."""
        return max(residual_categories(self).values())

    def matrices(self) -> list[np.ndarray]:
        return list(self.p) + list(self.q)


def pair_from_matrices(ps, qs) -> PairConfiguration:
    ps = tuple(as_matrix(m) for m in ps)
    qs = tuple(as_matrix(m) for m in qs)
    n = len(ps)
    if n == 0 or len(qs) != n or any(m.shape != (n, n) for m in ps + qs):
        raise ValueError(f"expected two systems of n >= 1 projectors, all n x n; got {len(ps)}, {len(qs)}")
    return PairConfiguration(n, ps, qs)


def residual_categories(c: PairConfiguration) -> dict[str, float]:
    """Worst violation of each defining relation of the configuration.

    Per system: idempotency, unit trace, in-system orthogonality and
    sum-to-identity; then |Tr(p_i q_j) - 1/n| over all cross pairs.
    """
    cats: dict[str, float] = {}
    for tag, system in (("p", c.p), ("q", c.q)):
        cats[f"{tag}_idempotency"] = float(max(spectral_norm(m @ m - m) for m in system))
        cats[f"{tag}_unit_trace"] = float(max(abs(np.trace(m) - 1.0) for m in system))
        cats[f"{tag}_orthogonality"] = float(max(
            (spectral_norm(a @ b)
             for i, a in enumerate(system)
             for j, b in enumerate(system) if i != j),
            default=0.0,
        ))
        cats[f"{tag}_sum_to_identity"] = float(spectral_norm(sum(system) - np.eye(c.n)))
    cats["unbiasedness"] = float(max(
        abs(np.trace(p @ q) - 1.0 / c.n) for p in c.p for q in c.q))
    return cats


# ---------------------------------------------------------------------------
# The standard pair.
# ---------------------------------------------------------------------------


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary discrete-Fourier matrix, entries eps^{(i-1)(j-1)} / sqrt(n).

    eps is fixed to exp(2 pi i / n); any other primitive root gives a
    column-permuted, hence equivalent, matrix.
    """
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * i * j / n) / np.sqrt(n)


def _swap34_columns(a: np.ndarray) -> np.ndarray:
    n = a.shape[1]
    order = [0, 1, 3, 2] + list(range(4, n))
    return a[:, order]


def standard_pair(n: int, swap34: bool = False) -> PairConfiguration:
    """Coordinate projectors against discrete-Fourier column projectors.

    With ``swap34`` the third and fourth Fourier columns are exchanged
    before building the second system; permuting projectors preserves every
    defining relation, so this is an equally valid base point (and the one
    whose tangent behaviour is certified at n = 6).
    """
    if n < 2:
        raise ValueError("standard pair needs n >= 2")
    if swap34 and n < 4:
        raise ValueError("swap34 needs n >= 4")
    a = fourier_matrix(n)
    if swap34:
        a = _swap34_columns(a)
    return _pair_from_unitary(a)


def _pair_from_unitary(u: np.ndarray) -> PairConfiguration:
    """Coordinate projectors against the projectors onto the columns of u."""
    n = u.shape[0]
    ps = []
    for i in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, i] = 1.0
        ps.append(e)
    qs = [rank1_projector(u[:, j]) for j in range(n)]
    return pair_from_matrices(ps, qs)


# ---------------------------------------------------------------------------
# Dephased Hadamard coordinates.
# ---------------------------------------------------------------------------


def _wrap_angles(ph: np.ndarray) -> np.ndarray:
    out = np.mod(np.asarray(ph, dtype=float) + np.pi, 2 * np.pi) - np.pi
    out[out == -np.pi] = np.pi
    return out


@dataclass(frozen=True, eq=False)  # array fields: equality and hash by identity
class HadamardPoint:
    """Dephased phase coordinates of an n x n complex Hadamard matrix.

    ``phases[i, j]`` is the angle of entry (i+1, j+1) of the reconstructed
    matrix; the first row and column are pinned to 1/sqrt(n).  All angles
    are stored wrapped to (-pi, pi].
    """

    n: int
    phases: np.ndarray

    def __post_init__(self):
        ph = _wrap_angles(self.phases)
        if ph.shape != (self.n - 1, self.n - 1):
            raise ValueError(f"phase matrix must be {(self.n - 1, self.n - 1)}, got {ph.shape}")
        object.__setattr__(self, "phases", ph)

    def reconstruct(self) -> np.ndarray:
        u = np.ones((self.n, self.n), dtype=np.complex128)
        u[1:, 1:] = np.exp(1j * self.phases)
        return u / np.sqrt(self.n)

    def unitarity_residual(self) -> float:
        u = self.reconstruct()
        return float(spectral_norm(u.conj().T @ u - np.eye(self.n)))

    def unitary(self) -> np.ndarray:
        """The reconstructed matrix; refused unless unitary within UNITARITY_TOL."""
        res = self.unitarity_residual()
        if res > UNITARITY_TOL:
            raise ValueError(f"phases do not reconstruct to a unitary: "
                             f"residual {res:.3e} > {UNITARITY_TOL:.1e}")
        return self.reconstruct()


def fourier_phases(n: int, swap34: bool = False) -> HadamardPoint:
    """HadamardPoint of the (optionally column-swapped) Fourier matrix."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ang = 2 * np.pi * i * j / n
    if swap34:
        if n < 4:
            raise ValueError("swap34 needs n >= 4")
        ang = _swap34_columns(ang)
    return HadamardPoint(n, ang[1:, 1:])


def is_complex_hadamard(u, tol: float) -> tuple[bool, float]:
    """True iff u is unitary and all entry moduli equal 1/sqrt(n), within tol.

    Returns (verdict, residual) with residual the worst of the two defects.
    """
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False, np.inf
    n = u.shape[0]
    unit = spectral_norm(u.conj().T @ u - np.eye(n))
    flat = float(np.max(np.abs(np.abs(u) - 1.0 / np.sqrt(n))))
    residual = max(unit, flat)
    return residual <= tol, residual


def from_hadamard(h: HadamardPoint) -> PairConfiguration:
    """Configuration with p = coordinate projectors, q = column projectors.

    The reconstruction pins every entry modulus to exactly 1/sqrt(n), so the
    only source of error is unitarity of the phase matrix; the resulting
    projectors are Hermitian by construction.
    """
    return _pair_from_unitary(h.unitary())


def _unit_eigenvector(p: np.ndarray) -> np.ndarray:
    """Unit vector spanning the range of a (numerically) rank-1 projector."""
    # the dominant left singular vector is the range direction
    uu, s, _ = np.linalg.svd(p)
    return uu[:, 0]


def _require_hermitian(c: PairConfiguration, tol: float) -> None:
    for m in c.matrices():
        if spectral_norm(m - adjoint(m)) > tol:
            raise ValueError("configuration is not Hermitian (not a fixed point of the adjoint involution)")


def dephased_phases(u: np.ndarray) -> np.ndarray:
    """Phases of the lower-right block of u after dephasing: columns, then
    rows, scaled by unit phases so the first row and column are real positive."""
    col_phase = u[0, :] / np.abs(u[0, :])
    u = u / col_phase[None, :]
    row_phase = u[:, 0] / np.abs(u[:, 0])
    u = u / row_phase[:, None]
    return np.angle(u[1:, 1:])


def to_hadamard(c: PairConfiguration) -> HadamardPoint:
    """Gauge-fix a Hermitian configuration to dephased phase coordinates.

    The p-system is diagonalised to coordinate projectors; eigenvectors are
    ordered by maximal overlap with the coordinate axes (ties and collisions
    fall back to index order) so the gauge fix is deterministic.  The
    q-eigenvector matrix read in that basis is then dephased: first row and
    first column made real positive.  Simultaneously conjugated inputs give
    the same output up to row/column permutations.
    """
    n = c.n
    _require_hermitian(c, GAUGE_TOL)
    vs = [_unit_eigenvector(p) for p in c.p]
    axis = [int(np.argmax(np.abs(v))) for v in vs]
    order = sorted(range(n), key=lambda i: (axis[i], i))
    vmat = np.stack([vs[i] for i in order], axis=1)
    ws = [_unit_eigenvector(q) for q in c.q]
    u = vmat.conj().T @ np.stack(ws, axis=1)

    # entry moduli certify unbiasedness of the transition matrix
    dev = float(np.max(np.abs(np.abs(u) - 1.0 / np.sqrt(n))))
    if dev > 10 * GAUGE_TOL:
        raise ValueError(f"transition matrix is not unbiased: modulus deviation {dev:.3e}")
    return HadamardPoint(n, dephased_phases(u))


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def decode_matrix(rows) -> np.ndarray:
    try:  # as_matrix raises ValueError on ragged rows, an empty list and non-finite entries
        return as_matrix([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"a matrix is a list of rows of [re, im] numbers: {exc}") from None


def save_pair(path, c: PairConfiguration, fmt: str = "projectors") -> None:
    """Write a pair file.  ``bases`` stores two basis matrices (columns are
    the basis vectors) and refuses non-Hermitian configurations, which it
    cannot represent; ``projectors`` stores all 2n projector matrices and is
    faithful for any configuration."""
    if fmt == "projectors":
        doc = {
            "n": c.n,
            "format": "projectors",
            "p": [encode_matrix(m) for m in c.p],
            "q": [encode_matrix(m) for m in c.q],
        }
    elif fmt == "bases":
        _require_hermitian(c, DEFAULT_TOL)
        e_basis = np.stack([_unit_eigenvector(p) for p in c.p], axis=1)
        f_basis = np.stack([_unit_eigenvector(q) for q in c.q], axis=1)
        doc = {
            "n": c.n,
            "format": "bases",
            "e_basis": encode_matrix(e_basis),
            "f_basis": encode_matrix(f_basis),
        }
    else:
        raise ValueError(f"unknown pair format {fmt!r}")
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_pair(path) -> PairConfiguration:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a pair file holds a JSON object")
    fmt = doc.get("format", "projectors")
    if fmt == "projectors":
        if not isinstance(doc["p"], list) or not isinstance(doc["q"], list):
            raise ValueError("'p' and 'q' must be lists of matrices")
        ps = [decode_matrix(m) for m in doc["p"]]
        qs = [decode_matrix(m) for m in doc["q"]]
    elif fmt == "bases":
        e_basis = decode_matrix(doc["e_basis"])
        f_basis = decode_matrix(doc["f_basis"])
        ps = [rank1_projector(e_basis[:, i]) for i in range(e_basis.shape[1])]
        qs = [rank1_projector(f_basis[:, i]) for i in range(f_basis.shape[1])]
    else:
        raise ValueError(f"unknown pair format {fmt!r}")
    return pair_from_matrices(ps, qs)


def save_hadamard(path, h: HadamardPoint) -> None:
    with open(path, "w") as fh:
        json.dump({"n": h.n, "phases": [[float(x) for x in row] for row in h.phases]}, fh)


def load_hadamard(path) -> HadamardPoint:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("n"), int):
        raise ValueError("a Hadamard file holds a JSON object with an integer 'n'")
    try:
        return HadamardPoint(doc["n"], np.array(doc["phases"], dtype=float))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"phases must be a matrix of numbers: {exc}") from None
