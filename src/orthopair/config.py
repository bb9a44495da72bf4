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
import os
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_TOL, OffVariety, as_matrix, range_factors, rank1_projector, spectral_norm, worst_above
from .relations import evaluate_relations, pair_relation_terms

__all__ = [
    "PairConfiguration",
    "HadamardPoint",
    "reconstruct_phases",
    "gram_defects",
    "fourier_matrix",
    "fourier_phases",
    "standard_pair",
    "pair_from_matrices",
    "residual_categories",
    "from_hadamard",
    "to_hadamard",
    "dephased_phases",
    "atomic_write",
    "save_pair",
    "load_pair",
    "save_hadamard",
    "load_hadamard",
    "encode_matrix",
    "decode_matrix",
]

BASES_TOL = 1e-10  # save_pair(fmt="bases"): the Hermitian check
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
        """The worst pair relation residual, the largest of the
        :func:`residual_categories`; recomputed on each read."""
        return evaluate_relations(self.matrices(), pair_relation_terms(self.n))[0]

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
    """Worst residual of each kind of defining relation of the configuration.

    The relations are :func:`~orthopair.relations.pair_relation_terms`; a
    relation's kind is the first word of its name: ``idempotency``,
    ``edge`` (x_i x_j x_i = x_i / n across the two systems), ``non-edge``
    (x_i x_j = 0 within a system) and ``sum`` (each system sums to the
    identity).
    """
    cats: dict[str, float] = {}
    for name, r in evaluate_relations(c.matrices(), pair_relation_terms(c.n))[1].items():
        kind = name.split(" ", 1)[0]
        cats[kind] = max(cats.get(kind, 0.0), r)
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


def reconstruct_phases(phases: np.ndarray) -> np.ndarray:
    """The matrices a (..., n-1, n-1) stack of dephased phases reconstructs:
    first row and column 1/sqrt(n), entry (i+1, j+1) exp(i phases[..., i, j])
    / sqrt(n).  Elementwise, so each matrix is bit-equal to its own
    :meth:`HadamardPoint.reconstruct`."""
    n = phases.shape[-1] + 1
    u = np.ones(phases.shape[:-2] + (n, n), dtype=np.complex128)
    u[..., 1:, 1:] = np.exp(1j * phases)
    return u / np.sqrt(n)


def gram_defects(u: np.ndarray) -> np.ndarray:
    """U^dag U - I for each matrix U of a (..., n, n) stack."""
    return u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])


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
        return reconstruct_phases(self.phases)

    def _gram_defect(self) -> np.ndarray:
        return gram_defects(self.reconstruct())

    def unitarity_residual(self) -> float:
        """Spectral norm of U^dag U - I for the reconstruction U."""
        return float(spectral_norm(self._gram_defect()))

    def unitarity_violation(self, tol: float) -> float | None:
        """The :meth:`unitarity_residual` if it exceeds ``tol``, else None,
        decided by :func:`~orthopair.linalg.worst_above`: a point whose
        U^dag U - I has Frobenius norm within ``tol`` passes without an SVD."""
        worst = worst_above(self._gram_defect()[None], tol)
        return None if worst is None else worst[1]

    def unitary(self) -> np.ndarray:
        """The reconstructed matrix; refused (OffVariety) unless unitary within UNITARITY_TOL."""
        if (res := self.unitarity_violation(UNITARITY_TOL)) is not None:
            raise OffVariety(f"phases do not reconstruct to a unitary: "
                             f"residual {res:.3e} > {UNITARITY_TOL:.1e}", res)
        return self.reconstruct()


def fourier_phases(n: int, swap34: bool = False) -> HadamardPoint:
    """HadamardPoint of the (optionally column-swapped) Fourier matrix."""
    if n < 2:
        raise ValueError("Fourier phases need n >= 2")
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ang = 2 * np.pi * i * j / n
    if swap34:
        if n < 4:
            raise ValueError("swap34 needs n >= 4")
        ang = _swap34_columns(ang)
    return HadamardPoint(n, ang[1:, 1:])


def from_hadamard(h: HadamardPoint) -> PairConfiguration:
    """Configuration with p = coordinate projectors, q = column projectors.

    The reconstruction pins every entry modulus to exactly 1/sqrt(n), so the
    only source of error is unitarity of the phase matrix; the resulting
    projectors are Hermitian by construction.
    """
    return _pair_from_unitary(h.unitary())


def _unit_eigenvectors(c: PairConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Two n x n matrices whose columns are unit vectors spanning the ranges
    of the p's and of the q's, from one batched SVD of all 2n projectors;
    refused unless every rank is 1 at RANK_TOL."""
    factors, _ = range_factors(np.stack(c.matrices()), RANK_TOL, ["projector rank"] * (2 * c.n))
    for v, _ in factors:
        if v.shape[1] != 1:
            raise ValueError(f"projector has rank {v.shape[1]}; one basis vector stands only for rank 1")
    return (np.stack([v[:, 0] for v, _ in factors[:c.n]], axis=1),
            np.stack([v[:, 0] for v, _ in factors[c.n:]], axis=1))


def _require_hermitian(c: PairConfiguration, tol: float) -> None:
    gens = np.asarray(c.matrices())
    if worst_above(gens - gens.conj().transpose(0, 2, 1), tol) is not None:
        raise ValueError("configuration is not Hermitian (not a fixed point of the adjoint involution)")


def dephased_phases(u: np.ndarray) -> np.ndarray:
    """Phases of the lower-right block of u after dephasing: columns, then
    rows, scaled by unit phases so the first row and column are real
    positive.  ``u`` may be a (..., n, n) stack; the arithmetic is
    elementwise, so each block is bit-equal to that of its matrix alone."""
    col_phase = u[..., 0, :] / np.abs(u[..., 0, :])
    u = u / col_phase[..., None, :]
    row_phase = u[..., :, 0] / np.abs(u[..., :, 0])
    u = u / row_phase[..., :, None]
    return np.angle(u[..., 1:, 1:])


def to_hadamard(c: PairConfiguration) -> HadamardPoint:
    """Gauge-fix a Hermitian configuration to dephased phase coordinates.

    The p-system is diagonalised to coordinate projectors; eigenvectors are
    ordered by maximal overlap with the coordinate axes (ties and collisions
    fall back to index order) so the gauge fix is deterministic.  The
    q-eigenvector matrix read in that basis is then dephased: first row and
    first column made real positive.  Simultaneously conjugated inputs give
    the same output up to row/column permutations.  A transition matrix
    whose entry moduli are off 1/sqrt(n) by more than 10 GAUGE_TOL, and
    phases that do not reconstruct to a unitary within UNITARITY_TOL, are
    refused with OffVariety.
    """
    n = c.n
    _require_hermitian(c, GAUGE_TOL)
    vs, ws = _unit_eigenvectors(c)
    axis = np.argmax(np.abs(vs), axis=0)
    order = sorted(range(n), key=lambda i: (axis[i], i))
    u = vs[:, order].conj().T @ ws

    # entry moduli certify unbiasedness of the transition matrix
    dev = float(np.max(np.abs(np.abs(u) - 1.0 / np.sqrt(n))))
    if dev > 10 * GAUGE_TOL:
        raise OffVariety(f"transition matrix is not unbiased: modulus deviation {dev:.3e}", dev)
    h = HadamardPoint(n, dephased_phases(u))
    h.unitary()  # unbiased moduli of rank-1 projectors alone pass repeated ones
    return h


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


def atomic_write(path, write) -> None:
    """Write ``path`` by ``write(fh)`` on a temporary text file in the same
    directory and a rename: ``path`` ends up complete or as it was."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:  # after the rename there is no temporary file left to remove
        if os.path.exists(tmp):
            os.remove(tmp)


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
        _require_hermitian(c, BASES_TOL)
        e_basis, f_basis = _unit_eigenvectors(c)
        doc = {
            "n": c.n,
            "format": "bases",
            "e_basis": encode_matrix(e_basis),
            "f_basis": encode_matrix(f_basis),
        }
    else:
        raise ValueError(f"unknown pair format {fmt!r}")
    atomic_write(path, lambda fh: json.dump(doc, fh))


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
    atomic_write(path, lambda fh: json.dump({"n": h.n, "phases": [[float(x) for x in row] for row in h.phases]}, fh))


def load_hadamard(path) -> HadamardPoint:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("n"), int):
        raise ValueError("a Hadamard file holds a JSON object with an integer 'n'")
    try:
        return HadamardPoint(doc["n"], np.array(doc["phases"], dtype=float))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"phases must be a matrix of numbers: {exc}") from None
