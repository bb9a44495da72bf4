"""Residual evaluators for the defining relations of the projector algebras.

Every algebra handled here is presented by idempotent generators and short
product relations:

* graph relation system of a loopless graph with parameter r: x_i^2 = x_i,
  the triple products x_i x_j x_i = r x_i and x_j x_i x_j = r x_j on edges,
  and x_i x_j = x_j x_i = 0 on non-edges;
* the full-pair quotient adds the two sum-to-identity relations for the two
  rows of the complete bipartite graph;
* the sandwich algebra on (P, q_1..q_n): P^2 = P, q_i^2 = q_i,
  q_i P q_i = r_i q_i, optionally sum q_i = 1 (the three-generator variant
  used in dimension 6 carries no sum relation).

Relations are represented as lists of (coefficient, word) terms, where a
word is a tuple of generator indices and the empty word is the identity
matrix.  The same term lists drive the residual evaluators here, the
analytic Jacobians in :mod:`orthopair.tangent` and the residual categories
of :func:`orthopair.config.residual_categories`, so none of them can drift
apart.  Residuals are measured in spectral norm, which is
invariant under simultaneous unitary conjugation of all generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import as_matrix, decide_rank

if TYPE_CHECKING:  # config imports this module
    from .config import PairConfiguration

__all__ = [
    "LooplessGraph",
    "complete_bipartite",
    "AlgebraRepPoint",
    "Relation",
    "graph_relation_terms",
    "pair_relation_terms",
    "sandwich_relation_terms",
    "evaluate_relations",
    "an_residual",
    "restrict",
    "graph_restriction",
    "sylvester_operator",
    "commutant_dimension",
]


@dataclass(frozen=True)
class LooplessGraph:
    """Undirected graph without loops; edges are unordered distinct pairs."""

    vertex_count: int
    edges: frozenset[frozenset[int]]

    @staticmethod
    def from_edges(vertex_count: int, edges) -> "LooplessGraph":
        out = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise ValueError(f"edge ({i},{j}) out of range")
            out.add(frozenset((i, j)))
        return LooplessGraph(vertex_count, frozenset(out))

    def has_edge(self, i: int, j: int) -> bool:
        return frozenset((i, j)) in self.edges


def complete_bipartite(k: int, n: int) -> LooplessGraph:
    """Full bipartite graph: vertices 0..k-1 in one row, k..k+n-1 in the other."""
    edges = [(i, k + j) for i in range(k) for j in range(n)]
    return LooplessGraph.from_edges(k + n, edges)


# A relation is a named sum of words; the empty word stands for the identity.
Relation = tuple[str, list[tuple[complex, tuple[int, ...]]]]


@dataclass(frozen=True, eq=False)  # array fields: equality and hash by identity
class AlgebraRepPoint:
    """Named generator matrices representing one of the relation algebras.

    ``algebra`` tags the relation set ("graph" or "sandwich"); for
    graph points ``graph`` and the scalar ``r`` are set, for sandwich points
    ``r_list`` holds one sandwich value per q generator and ``sum_to_one``
    says whether the q's are required to resolve the identity.
    """

    algebra: str
    names: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]
    graph: LooplessGraph | None = None
    r: float | None = None
    r_list: tuple[float, ...] | None = None
    sum_to_one: bool = True

    def relation_terms(self) -> list[Relation]:
        if self.algebra == "graph":
            return graph_relation_terms(self.graph, self.r)
        if self.algebra == "sandwich":
            return sandwich_relation_terms(len(self.matrices) - 1, self.r_list, self.sum_to_one)
        raise ValueError(f"unknown algebra tag {self.algebra!r}")

    def residual(self) -> float:
        return evaluate_relations(self.matrices, self.relation_terms())[0]


def graph_relation_terms(g: LooplessGraph, r: float) -> list[Relation]:
    """Idempotency, edge triple products and non-edge annihilation.

    Connectivity of the graph is deliberately not required: restriction
    points of larger configurations live on sub-graphs.
    """
    rel: list[Relation] = []
    for i in range(g.vertex_count):
        rel.append((f"idempotency x{i}", [(1.0, (i, i)), (-1.0, (i,))]))
    for i in range(g.vertex_count):
        for j in range(g.vertex_count):
            if i == j:
                continue
            if g.has_edge(i, j):
                if i < j:
                    rel.append((f"edge x{i}x{j}x{i}", [(1.0, (i, j, i)), (-r, (i,))]))
                    rel.append((f"edge x{j}x{i}x{j}", [(1.0, (j, i, j)), (-r, (j,))]))
            else:
                rel.append((f"non-edge x{i}x{j}", [(1.0, (i, j))]))
    return rel


def pair_relation_terms(n: int) -> list[Relation]:
    """Full bipartite graph relations at r = 1/n plus both sum relations.

    Generators 0..n-1 are the p's, n..2n-1 the q's.
    """
    g = complete_bipartite(n, n)
    rel = graph_relation_terms(g, 1.0 / n)
    rel.append(("sum p - 1", [(1.0, (i,)) for i in range(n)] + [(-1.0, ())]))
    rel.append(("sum q - 1", [(1.0, (n + j,)) for j in range(n)] + [(-1.0, ())]))
    return rel


def sandwich_relation_terms(n: int, r_list, sum_to_one: bool = True) -> list[Relation]:
    """Relations of the sandwich algebra on generators (P, q_1..q_n).

    Generator 0 is P, generators 1..n the q's.  r_list gives the sandwich
    scalar of each q.
    """
    if len(r_list) != n:
        raise ValueError(f"need {n} sandwich values, got {len(r_list)}")
    rel: list[Relation] = [("idempotency P", [(1.0, (0, 0)), (-1.0, (0,))])]
    for i in range(1, n + 1):
        rel.append((f"idempotency q{i}", [(1.0, (i, i)), (-1.0, (i,))]))
        rel.append((f"sandwich q{i}Pq{i}", [(1.0, (i, 0, i)), (-float(r_list[i - 1]), (i,))]))
    if sum_to_one:
        rel.append(("sum q - 1", [(1.0, (i,)) for i in range(1, n + 1)] + [(-1.0, ())]))
    return rel


def evaluate_word(mats, word: tuple[int, ...], dim: int) -> np.ndarray:
    if not word:
        return np.eye(dim, dtype=np.complex128)
    out = mats[word[0]]
    for v in word[1:]:
        out = out @ mats[v]
    return out


def evaluate_relations(mats, relations: list[Relation]) -> tuple[float, dict[str, float]]:
    """(worst residual, per-relation spectral-norm residuals).

    Every relation's d x d residual goes into one stack, normed by one
    batched SVD.  A residual that overflows to a non-finite entry raises
    OverflowError naming its relation: the inputs themselves are finite.
    """
    mats = [as_matrix(m) for m in mats]
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("generator matrices must be square of equal size")
    stack = np.zeros((len(relations), dim, dim), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual raises below
        for acc, (name, terms) in zip(stack, relations):
            try:
                for coeff, word in terms:
                    acc += coeff * evaluate_word(mats, word, dim)
            except IndexError:
                raise ValueError(f"relation {name!r} needs more than the "
                                 f"{len(mats)} generators given") from None
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"relation {relations[int(np.argmin(finite))][0]!r} residual is not finite")
    per = dict(zip((name for name, _ in relations), np.linalg.norm(stack, 2, axis=(1, 2)).tolist()))
    return max(per.values(), default=0.0), per


def an_residual(P, qs, r_list, sum_to_one: bool = True) -> float:
    """Worst violation of the sandwich relations at (P, q_1..q_n)."""
    if np.isscalar(r_list):
        r_list = [float(r_list)] * len(qs)
    return evaluate_relations([P] + list(qs), sandwich_relation_terms(len(qs), list(r_list), sum_to_one))[0]


def restrict(c: PairConfiguration, p_subset) -> AlgebraRepPoint:
    """Sandwich-algebra point with P the partial sum of p's over ``p_subset``
    (1-based indices) and all q's of the configuration.

    The sandwich scalars default to k/n for |subset| = k, the exact values
    on honest configurations.
    """
    idx = sorted(set(int(i) for i in p_subset))
    if not idx:
        raise ValueError("empty subset")
    if idx[0] < 1 or idx[-1] > c.n:
        raise ValueError(f"subset indices must lie in 1..{c.n}")
    P = sum(c.p[i - 1] for i in idx)
    r = len(idx) / c.n
    names = ("P",) + tuple(f"q{j+1}" for j in range(c.n))
    return AlgebraRepPoint(
        algebra="sandwich",
        names=names,
        matrices=(P,) + tuple(c.q),
        r_list=(r,) * c.n,
        sum_to_one=True,
    )


def graph_restriction(c: PairConfiguration, p_subset, q_subset) -> AlgebraRepPoint:
    """Graph-algebra point on the complete bipartite sub-graph spanned by the
    chosen p's and q's (1-based indices), at r = 1/n."""
    pi = sorted(set(int(i) for i in p_subset))
    qi = sorted(set(int(j) for j in q_subset))
    if not pi or not qi:
        raise ValueError("empty subset")
    if pi[0] < 1 or pi[-1] > c.n or qi[0] < 1 or qi[-1] > c.n:
        raise ValueError(f"subset indices must lie in 1..{c.n}")
    mats = tuple(c.p[i - 1] for i in pi) + tuple(c.q[j - 1] for j in qi)
    names = tuple(f"p{i}" for i in pi) + tuple(f"q{j}" for j in qi)
    return AlgebraRepPoint(
        algebra="graph",
        names=names,
        matrices=mats,
        graph=complete_bipartite(len(pi), len(qi)),
        r=1.0 / c.n,
    )


def sylvester_operator(A, B) -> np.ndarray:
    """Matrix of g -> (A_k g - g B_k for all k), acting on row-major vec(g).

    ``A`` and ``B`` are k x d x d stacks.  The row block of k is
    kron(A_k, I) - kron(I, B_k^T): entry ((i, a), (j, b)) is
    A_k[i, j] [a = b] - [i = j] B_k[b, a].  Both terms are written for all k
    at once into diagonal views of one zero array, which gives the same
    entries as the np.kron difference.
    """
    k, d, _ = A.shape
    K = np.zeros((k, d, d, d, d), dtype=np.result_type(A, B))
    np.einsum("kiaja->kija", K)[...] = A[..., None]
    np.einsum("kiaib->kiab", K)[...] -= B.transpose(0, 2, 1)[:, None]
    return K.reshape(k * d * d, d * d)


def commutator_operator(mats) -> np.ndarray:
    """Matrix of xi -> (xi m - m xi for all m), acting on row-major vec(xi)."""
    M = np.stack([as_matrix(m) for m in mats])
    return sylvester_operator(-M, -M)  # xi m - m xi = (-m) xi - xi (-m)


def commutant_dimension(mats, tol: float = 1e-10) -> int:
    """Dimension of the joint commutant {xi : xi m = m xi for all m}.

    1 means the matrices act irreducibly (Schur).  Computed as the nullity
    of the stacked commutator system.
    """
    K = commutator_operator(mats)
    s = np.linalg.svd(K, compute_uv=False)
    return K.shape[1] - decide_rank(s, tol, "joint commutant").rank
