"""Residual evaluators for the defining relations of the projector algebras.

Every algebra handled here is presented by idempotent generators and short
product relations:

* the relation system of the complete bipartite graph on a row of k and a
  row of m generators with parameter r: x_i^2 = x_i, the triple products
  x_i x_j x_i = r x_i and x_j x_i x_j = r x_j across the rows, and
  x_i x_j = x_j x_i = 0 within a row;
* the full-pair quotient adds the two sum-to-identity relations for the two
  rows of the n+n graph;
* the sandwich algebra on (P, q_1..q_n): P^2 = P, q_i^2 = q_i,
  q_i P q_i = r q_i and sum q_i = 1.

Relations are named sums of (coefficient, word) terms, where a word is a
tuple of generator indices and the empty word is the identity matrix.  The
builders return memoised tuples, so each system is built once and can never
be changed under a caller.  The same term lists drive the residual
evaluators here, the analytic Jacobians in :mod:`orthopair.tangent` and the
residual categories of :func:`orthopair.config.residual_categories`, so
none of them can drift apart.  Every word product of the package, here and
in :mod:`orthopair.tangent` and :mod:`orthopair.invariants`, is taken by
one kernel, :func:`word_products`, which multiplies each distinct word out
once from a plan compiled once per word tuple and generator count.  The
residual evaluator's term order is compiled once per term tuple and
generator count, so a call does only the kernel's products and the
scatter-add; a plain list of terms is converted to tuples on each call.
Residuals are measured in spectral norm, which is invariant under
simultaneous unitary conjugation of all generators.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import RANK_TOL, OffVariety, as_matrix, decide_rank, worst_above

if TYPE_CHECKING:  # config imports this module
    from .config import PairConfiguration

__all__ = [
    "AlgebraRepPoint",
    "Relation",
    "bipartite_relation_terms",
    "pair_relation_terms",
    "sandwich_relation_terms",
    "word_products",
    "evaluate_relations",
    "RELATION_TOL",
    "require_relations",
    "restrict",
    "graph_restriction",
    "commutator_operator",
    "commutant_dimension",
]


# A relation is a named sum of words; the empty word stands for the identity.
Relation = tuple[str, tuple[tuple[complex, tuple[int, ...]], ...]]


@dataclass(frozen=True, eq=False)  # array fields: equality and hash by identity
class AlgebraRepPoint:
    """Named generator matrices with the relation terms they represent."""

    names: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]
    relations: tuple[Relation, ...]


@functools.lru_cache
def bipartite_relation_terms(k: int, m: int, r: float) -> tuple[Relation, ...]:
    """Idempotency, cross triple products and in-row annihilation of the
    complete bipartite graph on rows 0..k-1 and k..k+m-1.

    Restriction points of larger configurations live on such sub-graphs.
    """
    rel: list[Relation] = [(f"idempotency x{i}", ((1.0, (i, i)), (-1.0, (i,)))) for i in range(k + m)]
    for i in range(k + m):
        for j in range(k + m):
            if (i < k) != (j < k):
                if i < j:
                    rel.append((f"edge x{i}x{j}x{i}", ((1.0, (i, j, i)), (-r, (i,)))))
                    rel.append((f"edge x{j}x{i}x{j}", ((1.0, (j, i, j)), (-r, (j,)))))
            elif i != j:
                rel.append((f"non-edge x{i}x{j}", ((1.0, (i, j)),)))
    return tuple(rel)


@functools.lru_cache
def pair_relation_terms(n: int) -> tuple[Relation, ...]:
    """Full bipartite graph relations at r = 1/n plus both sum relations.

    Generators 0..n-1 are the p's, n..2n-1 the q's.
    """
    return bipartite_relation_terms(n, n, 1.0 / n) + (
        ("sum p - 1", tuple((1.0, (i,)) for i in range(n)) + ((-1.0, ()),)),
        ("sum q - 1", tuple((1.0, (n + j,)) for j in range(n)) + ((-1.0, ()),)))


@functools.lru_cache
def sandwich_relation_terms(n: int, r: float) -> tuple[Relation, ...]:
    """Relations of the sandwich algebra on generators (P, q_1..q_n).

    Generator 0 is P, generators 1..n the q's, each with sandwich scalar r.
    """
    rel: list[Relation] = [("idempotency P", ((1.0, (0, 0)), (-1.0, (0,))))]
    for i in range(1, n + 1):
        rel.append((f"idempotency q{i}", ((1.0, (i, i)), (-1.0, (i,)))))
        rel.append((f"sandwich q{i}Pq{i}", ((1.0, (i, 0, i)), (-float(r), (i,)))))
    rel.append(("sum q - 1", tuple((1.0, (i,)) for i in range(1, n + 1)) + ((-1.0, ()),)))
    return tuple(rel)


def evaluate_word(mats, word: tuple[int, ...], dim: int) -> np.ndarray:
    """The product of ``word``, left to right: the tests' reference product."""
    if not word:
        return np.eye(dim, dtype=np.complex128)
    out = mats[word[0]]
    for v in word[1:]:
        out = out @ mats[v]
    return out


@functools.lru_cache
def _word_plan(words: tuple[tuple[int, ...], ...], k: int) -> tuple[int, tuple, np.ndarray]:
    """The plan of :func:`word_products`: the number of product rows (the
    identity, the k letters, then ``words`` and their prefixes by length),
    per word length >= 2 the rows of those words' prefixes and their last
    letters, and the row of each of ``words``."""
    if any(not 0 <= g < k for w in words for g in w):
        raise ValueError(f"a word has a letter outside the generators 0..{k - 1}")
    row = {(): 0, **{(g,): 1 + g for g in range(k)}}
    need = sorted({w[:n] for w in set(words) for n in range(2, len(w) + 1)}, key=len)  # with prefixes
    levels = []
    for _, level in itertools.groupby(need, key=len):
        level = list(level)
        levels.append((np.array([row[w[:-1]] for w in level], dtype=np.intp),
                       np.array([w[-1] for w in level], dtype=np.intp)))
        row.update(zip(level, range(len(row), len(row) + len(level))))
    return len(row), tuple(levels), np.array([row[w] for w in words], dtype=np.intp)


def word_products(gens: np.ndarray, words: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The product of each word of ``words``, taken left to right, stacked
    in ``words`` order: the package's one product kernel.

    ``gens`` is a (k, ..., d, d) stack, generator g being ``gens[g]``, and a
    word a tuple of letters in 0..k-1; the empty word is the identity.  Each
    distinct word and prefix is multiplied out once, as its prefix times its
    last letter, all of one length in one batched matmul, from a plan
    compiled once per (words, k); a product on a stack with batch axes is
    bit-equal to that of each point alone.
    """
    rows, levels, index = _word_plan(words, len(gens))
    prods = np.empty((rows,) + gens.shape[1:], dtype=np.complex128)
    prods[0] = np.eye(gens.shape[-1])
    start = len(gens) + 1
    prods[1:start] = gens
    for prefixes, letters in levels:
        np.matmul(prods[prefixes], gens[letters], out=prods[start:start + len(letters)])
        start += len(letters)
    return prods[index]


@functools.lru_cache
def _compile(relations: tuple[Relation, ...], k: int) -> tuple[tuple, np.ndarray, np.ndarray, tuple]:
    """The plan of :func:`_residual_stack` for ``relations`` on ``k``
    generators, letters in 0..k-1: the terms' words, coefficients and
    relation indices in order of j, their place in their relation, then of
    relation, and the bounds of each j."""
    for name, rel in relations:
        if any(g < 0 for _, w in rel for g in w):
            raise ValueError(f"relation {name!r} has a negative letter")
        if any(g >= k for _, w in rel for g in w):
            raise ValueError(f"relation {name!r} needs more than the {k} generators given")
    terms = sorted((j, r, coeff, word) for r, (_, rel) in enumerate(relations) for j, (coeff, word) in enumerate(rel))
    slots, rels, coeffs, words = zip(*terms) if terms else ((),) * 4
    ends = list(itertools.accumulate(Counter(slots).values()))
    return words, np.array(coeffs), np.array(rels, dtype=np.intp), tuple(zip([0] + ends, ends))


def _plan(compile_, relations: Sequence[Relation], *args):
    """``compile_(relations, *args)``, memoised per term tuple; a list (or
    lists inside a tuple) is compiled from its tuple form on each call."""
    try:
        return compile_(relations, *args)
    except TypeError:  # unhashable
        return compile_(tuple((name, tuple((coeff, tuple(word)) for coeff, word in rel))
                              for name, rel in relations), *args)


def _residual_stack(mats, relations: Sequence[Relation]) -> np.ndarray:
    """The d x d residual of every relation, stacked in list order.

    The terms' words are multiplied out by :func:`word_products`, in the
    order of the plan compiled once per term tuple.  Each relation adds its
    terms in listed order, so the stack equals the term-by-term sum of
    :func:`evaluate_word` products.  A residual that overflows to a
    non-finite entry raises OverflowError naming its relation.
    """
    try:
        gens = np.asarray(mats, dtype=np.complex128)
        ok = gens.ndim == 3 and gens.shape[1] == gens.shape[2] and np.isfinite(gens).all()
    except (TypeError, ValueError):
        ok = False
    if not ok:  # the per-matrix checks name the fault
        gens = [as_matrix(m) for m in mats]
        if any(m.shape != (gens[0].shape[0],) * 2 for m in gens):
            raise ValueError("generator matrices must be square of equal size")
        gens = np.stack(gens)
    words, coeffs, rels, slots = _plan(_compile, relations, gens.shape[0])
    stack = np.zeros((len(relations),) + gens.shape[1:], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual raises below
        summands = coeffs[:, None, None] * word_products(gens, words)
        for a, b in slots:  # step j adds the j-th terms
            stack[rels[a:b]] += summands[a:b]
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"relation {relations[int(np.argmin(finite))][0]!r} residual is not finite")
    return stack


def evaluate_relations(mats, relations: Sequence[Relation]) -> tuple[float, dict[str, float]]:
    """(worst residual, per-relation spectral-norm residuals): the
    :func:`_residual_stack`, normed by one batched SVD."""
    norms = np.linalg.norm(_residual_stack(mats, relations), 2, axis=(1, 2))
    per = dict(zip((name for name, _ in relations), norms.tolist()))
    return max(per.values(), default=0.0), per


RELATION_TOL = 1e-8  # the relation gate of rep_jacobian, identity_check, solve_complement and membership_test


def require_relations(mats, relations: Sequence[Relation], what: str) -> None:
    """Refuse with OffVariety, naming the worst relation, unless every
    relation residual is within RELATION_TOL.  The gate is
    :func:`~orthopair.linalg.worst_above`: residuals whose Frobenius norms
    are all within the tolerance pass without an SVD."""
    if (worst := worst_above(_residual_stack(mats, relations), RELATION_TOL)) is not None:
        index, residual = worst
        raise OffVariety(f"{what}: {relations[index][0]} residual {residual:.3e} > {RELATION_TOL:.1e}",
                         residual)


def _subset(indices, n: int) -> list[int]:
    """Sorted distinct 1-based indices; refused when empty or outside 1..n."""
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValueError("empty subset")
    if idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"subset indices must lie in 1..{n}")
    return idx


def restrict(c: PairConfiguration, p_subset) -> AlgebraRepPoint:
    """Sandwich-algebra point with P the partial sum of p's over ``p_subset``
    (1-based indices) and all q's of the configuration.

    The sandwich scalar is k/n for |subset| = k, the exact value on honest
    configurations.
    """
    idx = _subset(p_subset, c.n)
    P = sum(c.p[i - 1] for i in idx)
    names = ("P",) + tuple(f"q{j+1}" for j in range(c.n))
    return AlgebraRepPoint(
        names=names,
        matrices=(P,) + tuple(c.q),
        relations=sandwich_relation_terms(c.n, len(idx) / c.n),
    )


def graph_restriction(c: PairConfiguration, p_subset, q_subset) -> AlgebraRepPoint:
    """Graph-algebra point on the complete bipartite sub-graph spanned by the
    chosen p's and q's (1-based indices), at r = 1/n."""
    pi = _subset(p_subset, c.n)
    qi = _subset(q_subset, c.n)
    mats = tuple(c.p[i - 1] for i in pi) + tuple(c.q[j - 1] for j in qi)
    names = tuple(f"p{i}" for i in pi) + tuple(f"q{j}" for j in qi)
    return AlgebraRepPoint(
        names=names,
        matrices=mats,
        relations=bipartite_relation_terms(len(pi), len(qi), 1.0 / c.n),
    )


def commutator_operator(mats) -> np.ndarray:
    """Matrix of xi -> (xi m - m xi for all m), acting on row-major vec(xi).

    The row block of m is kron(I, m^T) - kron(m, I): entry ((i, a), (j, b))
    is [i = j] m[b, a] - m[i, j] [a = b].  Both terms are written for all m
    at once into diagonal views of one zero array, which gives the same
    entries as the np.kron difference.
    """
    M = np.stack([as_matrix(m) for m in mats])
    k, d, _ = M.shape
    K = np.zeros((k, d, d, d, d), dtype=np.complex128)
    np.einsum("kiaib->kiab", K)[...] = M.transpose(0, 2, 1)[:, None]
    np.einsum("kiaja->kija", K)[...] -= M[..., None]
    return K.reshape(k * d * d, d * d)


def commutant_dimension(mats, tol: float = RANK_TOL) -> int:
    """Dimension of the joint commutant {xi : xi m = m xi for all m}.

    1 means the matrices act irreducibly (Schur).  Computed as the nullity
    of the stacked commutator system.
    """
    K = commutator_operator(mats)
    s = np.linalg.svd(K, compute_uv=False)
    return K.shape[1] - decide_rank(s, tol, "joint commutant").rank
