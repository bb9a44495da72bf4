import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bent_rank1, random_invertible, random_unitary, tau
from orthopair import exact, tangent
from orthopair.config import (
    HadamardPoint,
    PairConfiguration,
    dephased_phases,
    fourier_phases,
    from_hadamard,
    pair_from_matrices,
    standard_pair,
)
from orthopair.continuation import sample_family
from orthopair.invariants import u_invariants, u_invariants_directional
from orthopair.linalg import decide_rank
from orthopair.relations import (
    RELATION_TOL,
    AlgebraRepPoint,
    bipartite_relation_terms,
    evaluate_relations,
    evaluate_word,
    graph_restriction,
    pair_relation_terms,
    restrict,
    sandwich_relation_terms,
)
from orthopair.tangent import (
    GAP_RATIO_REQUIRED,
    IndeterminateDimension,
    TangentReport,
    defect_report,
    fiber_rank_check,
    moduli_tangent_report,
    orbit_tangent_dim,
    phase_constraints,
    rep_jacobian,
)


def conjugated_pair(c, h):
    hinv = np.linalg.inv(h)
    return pair_from_matrices([h @ p @ hinv for p in c.p], [h @ q @ hinv for q in c.q])


# ---------------------------------------------------------------------------
# The dense oracle: the Jacobian in the generator entries, d^2 x d^2 Kronecker
# blocks, and the fiber rank computed on its kernel.
# ---------------------------------------------------------------------------


def _dense_residual_vector(mats, relations):
    """Stacked complex residual of all relations in the generator entries."""
    d = mats[0].shape[0]
    out = []
    for _, terms in relations:
        acc = np.zeros((d, d), dtype=np.complex128)
        for coeff, word in terms:
            acc += coeff * evaluate_word(mats, word, d)
        out.append(acc.ravel())
    return np.concatenate(out)


def _complex_jacobian(mats, relations):
    d = mats[0].shape[0]
    nv = len(mats)
    J = np.zeros((len(relations) * d * d, nv * d * d), dtype=np.complex128)
    for ri, (_, terms) in enumerate(relations):
        rows = slice(ri * d * d, (ri + 1) * d * d)
        for coeff, word in terms:
            for pos, v in enumerate(word):
                pre = evaluate_word(mats, word[:pos], d)
                suf = evaluate_word(mats, word[pos + 1:], d)
                J[rows, v * d * d:(v + 1) * d * d] += coeff * np.kron(pre, suf.T)
    return J


def _dense_system(point):
    mats, terms, _ = tangent._generators(point)
    return mats, terms, _complex_jacobian(mats, terms)


def _dense_spectrum(point):
    """Singular values of the dense Jacobian, each column block scaled by the
    spectral norm of its generator."""
    mats, _, J = _dense_system(point)
    d = mats[0].shape[0]
    scale = np.repeat([np.linalg.norm(m, 2) for m in mats], d * d)
    return np.linalg.svd(J * scale[None, :], compute_uv=False)


def _dense_nullity(point, tol=1e-10):
    s = _dense_spectrum(point)
    return s.size - decide_rank(s, tol, "dense oracle").rank


def _tr(*mats):
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
    return complex(np.trace(acc))


def _loop_directional(P, q, dP, dq):
    """d(u1, u2, u3) along one direction (dP, dq1..dq3), one single-slot
    substitution per trace word and slot, with u3 by the product rule."""

    def d_tr4(i, j):
        return (_tr(dP, q[i], P, q[j]) + _tr(P, dq[i], P, q[j])
                + _tr(P, q[i], dP, q[j]) + _tr(P, q[i], P, dq[j]))

    def d_tr6(i, j, k):
        base = (P, q[i], P, q[j], P, q[k])
        dirs = (dP, dq[i], dP, dq[j], dP, dq[k])
        return sum(_tr(*base[:s], dirs[s], *base[s + 1:]) for s in range(6))

    dt12, dt13, dt23 = d_tr4(0, 1), d_tr4(0, 2), d_tr4(1, 2)
    f12, f23, f13 = (36.0 * _tr(P, q[i], P, q[j]) - 1.0 for i, j in ((0, 1), (1, 2), (0, 2)))
    du1 = 36.0 * (dt12 + dt13 + dt23)
    du2 = 216.0 * (d_tr6(0, 1, 2) + d_tr6(0, 2, 1))
    du3 = 36.0 * dt12 * f23 * f13 + f12 * 36.0 * dt23 * f13 + f12 * f23 * 36.0 * dt13
    return np.array([du1, du2, du3])


def _dense_fiber(point, tol=1e-10):
    """(rank, singular values, moduli dim, degenerate_u3) of d(u1, u2, u3) on
    the kernel of the dense 3+3 graph Jacobian."""
    mats, _, J = _dense_system(point)
    _, s, vh = np.linalg.svd(J, full_matrices=False)
    nullity = J.shape[1] - decide_rank(s, tol, "dense graph kernel").rank
    d = mats[0].shape[0]
    P, qs = mats[0] + mats[1] + mats[2], mats[3:]
    columns = []
    for kv in range(nullity):
        dm = vh[-1 - kv].conj().reshape(6, d, d)
        columns.append(_loop_directional(P, qs, dm[0] + dm[1] + dm[2], dm[3:]))
    sd = np.linalg.svd(np.array(columns).T, compute_uv=False)
    rank = 0 if sd[0] < 1e-12 else decide_rank(sd, max(tol, 1e-8), "dense invariant rank").rank
    factors = [abs(36.0 * np.trace(P @ qs[i] @ P @ qs[j]) - 1.0) for i, j in ((0, 1), (1, 2), (2, 0))]
    return rank, sd, nullity - orbit_tangent_dim(mats), sum(f < 1e-6 for f in factors) >= 2


def factored_residual_vector(factors, relations):
    """Stacked complex residual of all relations in rank factors.

    ``factors`` is a list of (V_a, W_a^T); each relation the plan keeps
    contributes its core, in row-major order.
    """
    flat = [m for pair in factors for m in pair]
    out = []
    ranks = tuple(v.shape[1] for v, _ in factors)
    for rows, cols, terms in tangent._factored_relations(relations, ranks, factors[0][0].shape[0]):
        acc = np.zeros((rows, cols), dtype=np.complex128)
        for coeff, word in terms:
            prod = np.eye(rows, dtype=np.complex128)
            for f in word:
                prod = prod @ flat[f]
            acc += coeff * prod
        out.append(acc.ravel())
    return np.concatenate(out)


def _reference_factored_relations(relations, factors):
    """Each relation as (rows, cols, terms) over [V_0, W_0^T, V_1, ...], one
    block per relation: its core when its words all start with one generator
    and end with one, else its whole d x d residual."""
    d = factors[0][0].shape[0]
    ranks = [v.shape[1] for v, _ in factors]
    out = []
    for _, terms in relations:
        words = [word for _, word in terms]
        if all(words) and len({(w[0], w[-1]) for w in words}) == 1:
            a, c = words[0][0], words[0][-1]
            out.append((ranks[a], ranks[c],
                        [(coeff, tuple(f for x, y in zip(w, w[1:]) for f in (2 * x + 1, 2 * y)))
                         for coeff, w in terms]))
        else:
            out.append((d, d, [(coeff, tuple(f for x in w for f in (2 * x, 2 * x + 1))) for coeff, w in terms]))
    return out


def _kron(a, b):
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _reference_jacobian(factors, relations):
    """The factored Jacobian assembled term by term, one block per relation:
    prefix (x) suffix^T for every occurrence of every factor."""
    flat = [m for pair in factors for m in pair]
    frels = _reference_factored_relations(relations, factors)
    offsets = np.cumsum([0] + [m.size for m in flat])
    J = np.zeros((sum(rows * cols for rows, cols, _ in frels), offsets[-1]), dtype=np.complex128)
    r0 = 0
    for rows, cols, terms in frels:
        block = J[r0:r0 + rows * cols]
        for coeff, word in terms:
            # prefix[p] = product of word[:p], suffix[-1 - p] = product of word[p+1:]
            prefix = [np.eye(rows, dtype=np.complex128)]
            for f in word[:-1]:
                prefix.append(prefix[-1] @ flat[f])
            suffix = [np.eye(cols, dtype=np.complex128)]
            for f in reversed(word[1:]):
                suffix.append(flat[f] @ suffix[-1])
            for pos, f in enumerate(word):
                block[:, offsets[f]:offsets[f + 1]] += coeff * _kron(prefix[pos], suffix[-1 - pos].T)
        r0 += rows * cols
    return J


def _factor_vector(system):
    return np.concatenate([m.ravel() for pair in system.factors for m in pair])


def _factors_from(system, z):
    out, o = [], 0
    for v, wt in system.factors:
        out.append((z[o:o + v.size].reshape(v.shape), z[o + v.size:o + 2 * v.size].reshape(wt.shape)))
        o += 2 * v.size
    return out


def _full_scales(system):
    """The column scales of every factor variable: 1 on V_a, the spectral
    norm of X_a on W_a^T."""
    return np.concatenate([np.full(v.size, x) for v, wt in system.factors for x in (1.0, np.linalg.norm(wt, 2))])


def _lift_matrix(system):
    """The matrix that lifts a vector of J's columns to every factor
    variable [vec V_0, vec W_0^T, ...]: the columns J keeps are copied, and
    each complete system S gets dW_S^T = -W_S^T dV_S V_S^-1, with V_S^-1 by
    np.linalg.inv."""
    offsets = np.cumsum([0] + [m.size for pair in system.factors for m in pair])
    d = system.matrices[0].shape[0]
    lift = np.zeros((offsets[-1], system.columns.size), dtype=np.complex128)
    lift[system.columns, np.arange(system.columns.size)] = 1.0
    for S in system.complete:
        ks = [system.factors[a][0].shape[1] for a in S]
        dv = np.concatenate([lift[offsets[2 * a]:offsets[2 * a + 1]].reshape(d, k, -1) for a, k in zip(S, ks)], axis=1)
        wt = np.vstack([system.factors[a][1] for a in S])
        vinv = np.linalg.inv(np.hstack([system.factors[a][0] for a in S]))
        dwt = -np.einsum("ik,klm,lj->ijm", wt, dv, vinv)
        for a, k, start in zip(S, ks, np.cumsum([0] + ks)):
            lift[offsets[2 * a + 1]:offsets[2 * a + 2]] = dwt[start:start + k].reshape(k * d, -1)
    return lift


def _fd_points(base_pair, family_sample):
    points = [base_pair, standard_pair(2), standard_pair(3)]
    points += [from_hadamard(h) for h in family_sample.points[1:8]]
    points += [restrict(base_pair, [1, 2, 3]), graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])]
    return points


# ---------------------------------------------------------------------------
# Jacobian correctness.
# ---------------------------------------------------------------------------


def test_jacobian_matches_finite_differences(base_pair, family_sample):
    # central differences of the factored residual along random complex
    # directions of J's columns, lifted to every factor variable by the
    # elimination map: a conjugate-linear term in the residual would show up
    # here and not in the analytic J v
    rng = np.random.default_rng(22)
    step = 1e-6
    for point in _fd_points(base_pair, family_sample):
        system = rep_jacobian(point)
        _, terms, _ = tangent._generators(point)
        base = _factor_vector(system)
        assert system.jacobian.shape[1] == system.columns.size <= base.size
        lift = _lift_matrix(system)
        assert np.linalg.norm(factored_residual_vector(system.factors, terms)) <= 1e-12
        for _ in range(2):
            v = rng.standard_normal(system.columns.size) + 1j * rng.standard_normal(system.columns.size)
            v /= np.linalg.norm(v)
            fd = (factored_residual_vector(_factors_from(system, base + step * lift @ v), terms)
                  - factored_residual_vector(_factors_from(system, base - step * lift @ v), terms)) / (2 * step)
            an = system.jacobian @ v
            denom = max(np.linalg.norm(an), 1.0)
            assert np.max(np.abs(an - fd)) / denom <= 1e-6


def _plan_points(base_pair, family_sample):
    """(point, rows of the reference, rows and columns of the plan): each
    pair of edge relations x_i x_j x_i - r x_i, x_j x_i x_j - r x_j of
    rank-1 letters is one row of the plan, which has no rows for the sums
    of the complete systems (a pair's p's and q's, a sandwich point's q's)
    and their cores, and no columns for their W_a^T."""
    return [(standard_pair(3), 18, 9, 18), (standard_pair(6), 72, 36, 72), (base_pair, 72, 36, 72),
            (from_hadamard(family_sample.points[3]), 72, 36, 72),
            (from_hadamard(family_sample.points[12]), 72, 36, 72),
            (restrict(base_pair, [1, 2, 3]), 15, 15, 72),
            (graph_restriction(base_pair, [1, 2, 3], [1, 2, 3]), 36, 27, 72)]


def _kept_relations(point, terms):
    """The relations the plan keeps rows for: at a pair its edges and at a
    sandwich point P's idempotency and the sandwich cores, as the sums of
    the complete systems and their cores are solved for."""
    if isinstance(point, PairConfiguration):
        return tuple(rel for rel in terms if rel[0].startswith("edge"))
    if any(rel[0] == "idempotency P" for rel in terms):
        return tuple(rel for rel in terms if rel[0] == "idempotency P" or rel[0].startswith("sandwich"))
    return terms


def test_jacobian_plan_matches_term_by_term_reference(base_pair, family_sample):
    # merged rows leave J^H J, and so the spectrum above the cut, as it was;
    # the reference's columns are reduced by the lift of the eliminated
    # W_a^T; the factor spectra give each W_a^T column its spectral norm
    for point, ref_rows, plan_rows, plan_cols in _plan_points(base_pair, family_sample):
        system = rep_jacobian(point)
        norms = _full_scales(system)[system.columns]
        assert np.max(np.abs(system.scales - norms)) <= 1e-14 * norms.max()
        _, terms, _ = tangent._generators(point)
        full = _reference_jacobian(system.factors, _kept_relations(point, terms))
        J, R = system.jacobian, full @ _lift_matrix(system)
        assert (J.shape, full.shape) == ((plan_rows, plan_cols), (ref_rows, _factor_vector(system).size))
        norm2 = np.linalg.norm(R, 2) ** 2
        assert np.max(np.abs(J.conj().T @ J - R.conj().T @ R)) <= 1e-13 * norm2
        s, r = (np.linalg.svd(A * system.scales, compute_uv=False) for A in (J, R))
        rank = decide_rank(r, tangent.RANK_TOL, "reference").rank
        assert np.max(np.abs(s[:rank] - r[:rank])) <= 1e-12 * r[0]
        assert decide_rank(s, tangent.RANK_TOL, "plan").rank == rank


# the fixed non-unitary conjugator of the benchmark's cli round trip
_CONJUGATOR = np.eye(6) + 0.25 * np.triu(np.ones((6, 6)), 1) + 0.1j * np.tril(np.ones((6, 6)), -1)


def _complete_pair_points(base_pair, family_sample):
    points = [standard_pair(2), standard_pair(3), standard_pair(6), base_pair,
              conjugated_pair(base_pair, _CONJUGATOR)]
    return points + [from_hadamard(h) for h in family_sample.points[1:40:6]]


def _complete_sum_points(base_pair, family_sample):
    """(point, its complete systems, rows of the every-row reference, rows
    and columns of J): pairs, whose n^2 merged edge rows sit in the 2n^2
    columns of the V_a, and sandwich points with P of rank k, whose k^2
    rows of P's idempotency and six sandwich rows sit in the 6k columns of
    each of P's factors and the 36 of the q's V_a."""
    out = [(c, (tuple(range(c.n)), tuple(range(c.n, 2 * c.n))), 6 * c.n * c.n, c.n * c.n, 2 * c.n * c.n)
           for c in _complete_pair_points(base_pair, family_sample)]
    for c in (base_pair, from_hadamard(family_sample.points[9])):
        out += [(restrict(c, subset), (tuple(range(1, 7)),), k * k + 12 + 36, k * k + 6, 12 * k + 36)
                for k, subset in enumerate(([1], [1, 2], [1, 2, 3]), 1)]
    return out


def test_dropped_sum_rows_add_no_rank(base_pair, family_sample):
    # the term-by-term reference with every row (the sums, pulled back
    # whole, and the cores of the complete systems the list names included)
    # and every column has the factored nullity of the reduced Jacobian, and
    # a kernel vector of the reduced one, lifted by
    # dW_S^T = -W_S^T dV_S V_S^-1, is one of the reference; and on the lift
    # the rows the plan drops vanish, so the reference gives J^H J
    for point, complete, ref_rows, rows, cols in _complete_sum_points(base_pair, family_sample):
        system = rep_jacobian(point)
        J = system.jacobian
        assert system.complete == complete
        assert J.shape == (rows, cols)
        _, s, vh = np.linalg.svd(J * system.scales)
        rank = decide_rank(s, tangent.RANK_TOL, "reduced").rank
        R = _reference_jacobian(system.factors, tangent._generators(point)[1])
        assert R.shape == (ref_rows, _factor_vector(system).size)
        s_all = np.linalg.svd(R * _full_scales(system), compute_uv=False)
        assert R.shape[1] - decide_rank(s_all, tangent.RANK_TOL, "every row").rank == J.shape[1] - rank
        lift = _lift_matrix(system)
        lifted = lift @ (system.scales[:, None] * vh[rank:].conj().T)
        assert np.linalg.norm(R @ lifted, 2) <= 1e-12 * np.linalg.norm(R, 2) * np.linalg.norm(lifted, 2)
        F = R @ lift
        assert np.max(np.abs(F.conj().T @ F - J.conj().T @ J)) <= 1e-13 * np.linalg.norm(J, 2) ** 2


def _bent_pair(c, eps):
    """``c`` with q1 bent by :func:`conftest.bent_rank1`."""
    return pair_from_matrices(list(c.p), [bent_rank1(c.q[0], eps), *c.q[1:]])


def test_complete_system_factors_are_invertible_inside_the_gate(base_pair, family_sample):
    # the gate bounds each complete sum's residual, ||V_S W_S^T - I||_2 <=
    # RELATION_TOL, whatever the factor ranks, and W_S^T V_S - I =
    # V_S^-1 (V_S W_S^T - I) V_S: so W_S^T V_S is within cond(V_S)
    # RELATION_TOL of I, also where the residual is not rounding noise; a
    # pair's list names the cores of S, the entries of E = W_S^T V_S - I,
    # so the gate bounds each of them too: ||E||_F <= n RELATION_TOL
    points = [point for point, *_ in _complete_sum_points(base_pair, family_sample)]
    points += [pair_from_matrices([(1.0 + eps) * base_pair.p[0], *base_pair.p[1:]], list(base_pair.q))
               for eps in (1e-9, 3e-9)]
    points += [_bent_pair(base_pair, eps) for eps in (1e-9, 3e-9)]
    points += [restrict(_bent_pair(base_pair, eps), [1, 2, 3]) for eps in (1e-10, 1e-9)]
    points += [restrict(c, [1, 2, 3]) for _, kappa, c in _ladder(base_pair) if kappa == 1e3]
    for point in points:
        mats, terms, _ = tangent._generators(point)
        assert evaluate_relations(mats, terms)[0] <= RELATION_TOL
        system = rep_jacobian(point)
        for S in system.complete:
            wt = np.vstack([system.factors[a][1] for a in S])
            v = np.hstack([system.factors[a][0] for a in S])
            E = wt @ v - np.eye(v.shape[0])
            assert np.linalg.norm(E, 2) <= np.linalg.cond(v) * RELATION_TOL
            if isinstance(point, PairConfiguration):
                assert np.linalg.norm(E) <= point.n * RELATION_TOL


def _ladder(base_pair):
    """(seed, kappa, the swap34 pair conjugated by h) for seeds 0-2 and
    kappa 1e1, 1e2, 1e3, h = U diag(logspace(0, log10 kappa, 6)) V of
    condition number kappa with U, V random unitaries."""
    out = []
    for seed in range(3):
        for kappa in (1e1, 1e2, 1e3):
            rng = np.random.default_rng(seed)
            h = random_unitary(rng, 6) @ np.diag(np.logspace(0, np.log10(kappa), 6)) @ random_unitary(rng, 6)
            assert np.isclose(np.linalg.cond(h), kappa)
            out.append((seed, kappa, conjugated_pair(base_pair, h)))
    return out


def test_conjugation_ladder_keeps_a_decisive_gap(base_pair):
    # conjugating by h of condition number kappa leaves every integer of the
    # pair and sandwich reports; their gaps fall with the condition number
    # of V_S, and are still far above GAP_RATIO_REQUIRED at kappa = 1e3
    for _, _, c in _ladder(base_pair):
        report = moduli_tangent_report(c)
        assert (report.nullity, report.orbit_dim, report.moduli_dim) == (39, 35, 4)
        assert report.gap_ratio >= 1e9
        for subset, want in (([1], (35, 35, 0)), ([1, 2, 3], (43, 35, 8))):
            report = moduli_tangent_report(restrict(c, subset))
            assert (report.nullity, report.orbit_dim, report.moduli_dim) == want
            assert report.gap_ratio >= 1e9


def test_systems_without_complete_sums_keep_every_row(base_pair, family_sample):
    # the 3+3 graph has no sum: its Jacobian keeps a row for every relation,
    # the edges merged, and every column with its scale
    points = [graph_restriction(base_pair, [1, 2, 3], [1, 2, 3]), graph_restriction(base_pair, [4, 5, 6], [1, 2, 3]),
              graph_restriction(from_hadamard(family_sample.points[5]), [1, 2, 3], [1, 2, 3])]
    for point in points:
        system = rep_jacobian(point)
        assert system.complete == ()
        assert system.jacobian.shape == (6 + 12 + 9, 72)
        assert np.array_equal(system.columns, np.arange(72))
        norms = _full_scales(system)
        assert np.max(np.abs(system.scales - norms)) <= 1e-14 * norms.max()


def test_complete_sums_read_from_the_relation_list():
    terms = pair_relation_terms(3)
    ranks = (1,) * 6
    both = {len(terms) - 2: (0, 1, 2), len(terms) - 1: (3, 4, 5)}
    assert tangent._complete_sums(terms, ranks, 3) == both
    # a sum is solved whether the list names its cores or not: without a p
    # non-edge, and for the sandwich q's, which have none; ranks that do
    # not add up to d make no sum complete
    no_edge = tuple(rel for rel in terms if rel[0] != "non-edge x0x1")
    assert tangent._complete_sums(no_edge, ranks, 3) == {len(no_edge) - 2: (0, 1, 2), len(no_edge) - 1: (3, 4, 5)}
    assert tangent._complete_sums(terms, ranks, 4) == {}
    sandwich = sandwich_relation_terms(6, 0.5)
    assert tangent._complete_sums(sandwich, (3,) + (1,) * 6, 6) == {len(sandwich) - 1: tuple(range(1, 7))}
    # a set that shares a generator with an earlier one is not listed: its
    # W_a^T are eliminated once, so its sum has no row and is refused
    again = terms + (terms[-2],)
    assert tangent._complete_sums(again, ranks, 3) == both
    point = AlgebraRepPoint(names=tuple(f"x{a}" for a in range(6)),
                            matrices=tuple(standard_pair(3).matrices()), relations=again)
    with pytest.raises(ValueError, match="sum p - 1"):
        rep_jacobian(point)
    # so is a commutator, which holds for the p's but has no core: its words
    # start and end with different generators
    commutator = terms + (("commutator x0x1", ((1.0, (0, 1)), (-1.0, (1, 0)))),)
    point = AlgebraRepPoint(names=point.names, matrices=point.matrices, relations=commutator)
    assert evaluate_relations(point.matrices, point.relations)[0] <= RELATION_TOL
    with pytest.raises(ValueError, match="commutator x0x1"):
        rep_jacobian(point)


def test_orbit_in_n_unknowns_matches_commutant(base_pair, family_sample, standard6):
    for c in _complete_pair_points(base_pair, family_sample):
        mats = c.matrices()
        for S in (tuple(range(c.n)), tuple(range(c.n, 2 * c.n))):
            assert tangent._span_orbit_dim(mats, S) == orbit_tangent_dim(mats)
    # the sandwich q's against P, irreducible or not
    points = [restrict(c, subset) for c in (base_pair, from_hadamard(family_sample.points[9]))
              for subset in ([1], [1, 2], [1, 2, 3])] + [_reducible_sandwich_point()]
    for point in points:
        dim = tangent._span_orbit_dim(point.matrices, tuple(range(1, 7)))
        assert dim == orbit_tangent_dim(point.matrices) == (33 if point is points[-1] else 35)
    # the p system against itself commutes with every diagonal matrix
    mats = list(standard6.p) + list(standard6.p)
    assert tangent._span_orbit_dim(mats, tuple(range(6))) == orbit_tangent_dim(mats) == 30


def test_moduli_report_cost(monkeypatch):
    # one batched SVD factors the generators, one decides the nullity on the
    # kept rows and one the commutant in n unknowns; V_S^-1 takes an LU
    # solve, no SVD; a second report reuses the compiled plan.  A pair keeps
    # its 36 edge rows in the 72 V_a columns; a sandwich point the 15 rows
    # of P's idempotency and the sandwich cores in 72 columns (57 x 108
    # with the q sum pulled back whole), and its orbit operator is 36 x 6
    # (252 x 36 in d^2 unknowns)
    sandwich = restrict(standard_pair(6, swap34=True), [1, 2, 3])
    cases = [(standard_pair(6), 4, [(12, 6, 6), (36, 72), (216, 6)]),
             (sandwich, 8, [(7, 6, 6), (15, 72), (36, 6)])]
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for point, moduli_dim, want in cases:
        calls.clear()
        assert moduli_tangent_report(point).moduli_dim == moduli_dim
        assert calls == want
        misses = tangent._jacobian_plan.cache_info().misses
        assert moduli_tangent_report(point).moduli_dim == moduli_dim
        assert tangent._jacobian_plan.cache_info().misses == misses


def test_dense_oracle_matches_finite_differences(base_pair, family_sample):
    rng = np.random.default_rng(22)
    step = 1e-6
    points = [base_pair, standard_pair(2), standard_pair(3)]
    points += [from_hadamard(h) for h in family_sample.points[1:8]]
    for c in points:
        mats, terms, J = _dense_system(c)
        d = c.n
        base = np.concatenate([m.ravel() for m in mats])

        def mats_from(z):
            return [z[k * d * d:(k + 1) * d * d].reshape(d, d) for k in range(2 * d)]

        for _ in range(2):
            v = rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size)
            v /= np.linalg.norm(v)
            fd = (_dense_residual_vector(mats_from(base + step * v), terms)
                  - _dense_residual_vector(mats_from(base - step * v), terms)) / (2 * step)
            an = J @ v
            denom = max(np.linalg.norm(an), 1.0)
            assert np.max(np.abs(an - fd)) / denom <= 1e-6


def test_jacobian_zero_direction(base_pair):
    system = rep_jacobian(base_pair)
    zero = np.zeros(system.jacobian.shape[1], dtype=np.complex128)
    assert np.linalg.norm(system.jacobian @ zero) == 0.0
    _, _, J = _dense_system(base_pair)
    assert np.linalg.norm(J @ np.zeros(J.shape[1], dtype=np.complex128)) == 0.0


def test_jacobian_annihilates_orbit_directions(base_pair):
    # conjugation moves (V, W^T) to (xi V, -W^T xi); the GL(k) gauge moves
    # them to (V g, -g W^T) and leaves every generator fixed; J reads the
    # columns it keeps (at a pair, the V_a alone)
    rng = np.random.default_rng(23)
    for c in (base_pair, standard_pair(2), restrict(base_pair, [1, 2, 3])):
        system = rep_jacobian(c)
        n = system.matrices[0].shape[0]
        norm_j = np.linalg.norm(system.jacobian, 2)
        for _ in range(10):
            xi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            orbit = np.concatenate([m.ravel() for v, wt in system.factors for m in (xi @ v, -wt @ xi)])
            gauge = []
            for v, wt in system.factors:
                g = rng.standard_normal((v.shape[1],) * 2) + 1j * rng.standard_normal((v.shape[1],) * 2)
                gauge += [(v @ g).ravel(), (-g @ wt).ravel()]
            for vec in (orbit, np.concatenate(gauge)):
                vec = vec[system.columns] / np.linalg.norm(vec[system.columns])
                assert np.linalg.norm(system.jacobian @ vec) <= 1e-8 * norm_j


def test_dense_oracle_annihilates_orbit_directions(base_pair):
    rng = np.random.default_rng(23)
    for c in (base_pair, standard_pair(2)):
        mats, _, J = _dense_system(c)
        n = c.n
        norm_j = np.linalg.norm(J, 2)
        for _ in range(10):
            xi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v = np.concatenate([(xi @ m - m @ xi).ravel() for m in mats])
            v /= np.linalg.norm(v)
            assert np.linalg.norm(J @ v) <= 1e-8 * norm_j


def test_jacobian_refuses_off_variety_point(base_pair, monkeypatch):
    ps = [p.copy() for p in base_pair.p]
    ps[0] = ps[0] + 1e-3
    broken = pair_from_matrices(ps, list(base_pair.q))

    def no_factoring(*args):
        raise AssertionError("an off-variety point reached the factoring")

    monkeypatch.setattr(tangent, "range_factors", no_factoring)
    with pytest.raises(ValueError, match="relation residual"):
        rep_jacobian(broken)


def test_factor_rank_refuses_without_gap():
    # p1 gains a singular value of 1e-9: the relations still hold to 1e-9,
    # inside the residual gate, but 1e-9 against the 1e-10 cut is no
    # decisive gap for the rank of p1
    c = standard_pair(2)
    blur = pair_from_matrices([c.p[0] + 1e-9 * c.p[1], c.p[1]], list(c.q))
    assert blur.residual <= RELATION_TOL
    with pytest.raises(IndeterminateDimension) as info:
        rep_jacobian(blur)
    assert "generator p1" in str(info.value)
    assert info.value.gap_ratio < GAP_RATIO_REQUIRED
    with pytest.raises(IndeterminateDimension):
        moduli_tangent_report(blur)


def test_factor_ranks_and_gauge(base_pair):
    assert rep_jacobian(base_pair).gauge_dim == 12
    assert rep_jacobian(restrict(base_pair, [1, 2, 3])).gauge_dim == 9 + 6
    system = rep_jacobian(base_pair)
    for (v, wt), m in zip(system.factors, system.matrices):
        assert v.shape == (6, 1)
        assert np.linalg.norm(wt @ v - np.eye(1)) <= 1e-13
        assert np.linalg.norm(v @ wt - m) <= 1e-13


def _graph33_point(mats, r):
    return AlgebraRepPoint(names=("p1", "p2", "p3", "q1", "q2", "q3"),
                           matrices=tuple(mats), relations=bipartite_relation_terms(3, 3, r))


def test_x33_refuses_rank_two_and_zero_generators():
    # both points satisfy every graph relation exactly: the moduli report
    # refuses them as reducible, from the orbit it decides, and the fiber
    # check the zero point for its factor ranks and the rank-2 point, whose
    # graph is at r = 0, for its relation list
    zero = np.zeros((6, 6))
    points = [(_graph33_point([zero] * 6, 1.0 / 6.0), "rank-1"),
              (_graph33_point([np.diag([1.0, 1.0, 0, 0, 0, 0])] + [zero] * 5, 0.0), r"3\+3")]
    for point, refusal in points:
        assert evaluate_relations(point.matrices, point.relations)[0] == 0.0
        with pytest.raises(ValueError, match="reducible"):
            moduli_tangent_report(point)
        with pytest.raises(ValueError, match=refusal):
            fiber_rank_check(point)


def test_fiber_rank_check_refuses_points_off_the_3x3_graph(base_pair):
    # the u's are normalised for the 3+3 graph at r = 1/6: the 2+4 and 4+2
    # graphs of the swap34 pair, a sandwich point and the n = 5 3+3 graph
    # are refused by their relation lists or their size
    five = standard_pair(5)
    points = [graph_restriction(base_pair, [1, 2], [1, 2, 3, 4]),
              graph_restriction(base_pair, [1, 2, 3, 4], [1, 2]),
              restrict(five, [1]),
              graph_restriction(five, [1, 2, 3], [1, 2, 3])]
    for point in points:
        with pytest.raises(ValueError, match=r"3\+3 restriction of an n = 6 pair"):
            fiber_rank_check(point)
    assert fiber_rank_check(graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])).rank == 2


# ---------------------------------------------------------------------------
# Agreement of the factored kernel with the dense oracle.
# ---------------------------------------------------------------------------


def _pair_points():
    rng = np.random.default_rng(27)
    base = standard_pair(6, swap34=True)
    points = [(f"standard_pair({n})", standard_pair(n)) for n in range(2, 7)]
    points += [(f"swap34 n={n}", standard_pair(n, swap34=True)) for n in (4, 6)]
    points.append(("non-unitary conjugate", conjugated_pair(base, random_invertible(rng, 6))))
    return points


@pytest.mark.parametrize("name, c", _pair_points(), ids=[name for name, _ in _pair_points()])
def test_factored_pair_kernel_matches_dense_oracle(name, c):
    report = moduli_tangent_report(c)
    system = rep_jacobian(c)
    assert system.gauge_dim == 2 * c.n
    dense = _dense_nullity(c)
    assert dense == report.nullity
    assert report.moduli_dim == dense - orbit_tangent_dim(c.matrices())
    assert report.gap_ratio >= GAP_RATIO_REQUIRED


def test_factored_family_kernel_matches_dense_oracle(family_sample):
    for h in family_sample.points[10:15]:
        c = from_hadamard(h)
        report = moduli_tangent_report(c)
        assert report.nullity == _dense_nullity(c) == 39
        assert report.moduli_dim == 4


@pytest.mark.parametrize("subset", [[1], [1, 2], [1, 2, 3]])
def test_factored_sandwich_kernel_matches_dense_oracle(base_pair, subset):
    point = restrict(base_pair, subset)
    k = len(subset)
    report = moduli_tangent_report(point)
    assert rep_jacobian(point).gauge_dim == k * k + 6
    assert report.nullity == _dense_nullity(point)
    assert report.moduli_dim == 2 * (6 - k - 1) * (k - 1)


def test_factored_graph_kernel_matches_dense_oracle(base_pair, family_sample):
    points = [graph_restriction(base_pair, [1, 2, 3], [1, 2, 3]),
              graph_restriction(base_pair, [4, 5, 6], [1, 2, 3])]
    points += [graph_restriction(from_hadamard(h), [1, 2, 3], [1, 2, 3]) for h in family_sample.points[1:4]]
    for point in points:
        report = moduli_tangent_report(point)
        assert report.nullity == _dense_nullity(point)
        fiber = fiber_rank_check(point)
        rank, sd, moduli_dim, degenerate = _dense_fiber(point)
        assert (fiber.rank, fiber.moduli_dim, fiber.degenerate_u3) == (rank, moduli_dim, degenerate)
        assert report.moduli_dim == moduli_dim == 4
        assert fiber.singular_values.shape == sd.shape
        assert np.max(np.abs(fiber.singular_values - sd)) <= 1e-10 * sd[0]


# ---------------------------------------------------------------------------
# Orbit dimension.
# ---------------------------------------------------------------------------


def test_orbit_dimension(base_pair):
    assert orbit_tangent_dim(base_pair.matrices()) == 35
    assert orbit_tangent_dim(standard_pair(2).matrices()) == 3


def test_orbit_dimension_reducible(standard6):
    degenerate = pair_from_matrices(list(standard6.p), list(standard6.p))
    assert orbit_tangent_dim(degenerate.matrices()) == 30  # commutant is the diagonal algebra


def test_orbit_dimension_refuses_without_gap():
    # the commutator map of a diagonal generator is diagonal with entries
    # d_j - d_i: 1e-9 survives the 1e-10 cut, 1e-11 falls below it, and
    # their ratio of 100 is no decisive gap
    undecided = np.diag([0.0, 1e-9, 1.0, 1.0 + 1e-11])
    with pytest.raises(IndeterminateDimension) as info:
        orbit_tangent_dim([undecided])
    assert info.value.gap_ratio < GAP_RATIO_REQUIRED
    assert info.value.singular_values.shape == (16,)
    assert orbit_tangent_dim([np.diag([0.0, 1e-9, 1.0, 2.0])]) == 12


# ---------------------------------------------------------------------------
# Moduli tangent dimensions.
# ---------------------------------------------------------------------------


def test_moduli_dimension_at_base_point(base_pair, standard6):
    for c in (base_pair, standard6):
        report = moduli_tangent_report(c)
        assert report.moduli_dim == 4
        assert report.nullity == 39
        assert report.orbit_dim == 35
        assert report.gap_ratio >= GAP_RATIO_REQUIRED
        assert report.singular_values.shape == (36,)
        # the dense oracle has one value per complex generator entry
        assert _dense_spectrum(c).shape == (432,)


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 3e-10, 1e-9, 3e-9])
def test_moduli_dimension_never_negative_inside_residual_gate(base_pair, eps):
    # p1 scaled by 1 + eps passes the residual gate.  With the sum rows, the
    # lifted zero singular values (~ eps / 2) passed the 1e-10 cut from
    # eps ~ 5e-10 and the report was refused; on the edge rows alone, with
    # the cores of the complete systems solved for exactly, every eps is
    # answered, with a rounding-level gap
    c = pair_from_matrices([(1.0 + eps) * base_pair.p[0], *base_pair.p[1:]], list(base_pair.q))
    assert c.residual <= RELATION_TOL
    report = moduli_tangent_report(c)
    assert (report.nullity, report.orbit_dim, report.moduli_dim) == (39, 35, 4)
    assert report.singular_values.shape == (36,)
    assert report.gap_ratio >= 1e12


def test_moduli_dimension_rigid_n3():
    assert moduli_tangent_report(standard_pair(3)).moduli_dim == 0


def test_moduli_spectrum_matches_real_expansion():
    # the real expansion [[Re J, -Im J], [Im J, Re J]] of a column-scaled
    # complex Jacobian lists every complex singular value twice: checked on
    # the dense oracle, whose nullity the report's equals, and on the
    # report's own factored spectrum
    c = standard_pair(3)
    report = moduli_tangent_report(c)
    mats, _, J = _dense_system(c)
    scale = np.repeat([np.linalg.norm(m, 2) for m in mats], c.n * c.n)
    J = J * scale[None, :]
    s = _dense_spectrum(c)
    real = np.block([[J.real, -J.imag], [J.imag, J.real]])
    s_real = np.linalg.svd(real, compute_uv=False)
    assert s.shape == (J.shape[1],)
    assert np.max(np.abs(np.repeat(s, 2) - s_real)) <= 1e-12 * s_real[0]
    assert J.shape[1] - decide_rank(s, 1e-10, "dense oracle").rank == 8 == report.nullity
    system = rep_jacobian(c)
    F = system.jacobian * system.scales
    f_real = np.linalg.svd(np.block([[F.real, -F.imag], [F.imag, F.real]]), compute_uv=False)
    assert report.singular_values.shape == (min(F.shape),)
    assert np.max(np.abs(np.repeat(report.singular_values, 2) - f_real)) <= 1e-12 * f_real[0]


def test_moduli_n3_exact_rank_oracle():
    """Floating-point-free nullity of the n = 3 relation Jacobian over Q(eps).

    The n = 3 Fourier projectors have entries (1/3) eps^(2k); assembling the
    analytic Jacobian in exact arithmetic and eliminating gives the rank with
    no tolerance anywhere.
    """
    from fractions import Fraction

    n = 3
    third = Fraction(1, 3)
    ps = []
    for i in range(n):
        m = [[exact.Q6(0)] * n for _ in range(n)]
        m[i][i] = exact.Q6(1)
        ps.append(m)
    qs = []
    for j in range(n):
        # q_j[a, b] = (1/3) omega^{(a-b) j} with omega = eps^2
        m = [[exact.Q6(third) * exact.eps_pow(2 * (a - b) * j) for b in range(n)] for a in range(n)]
        qs.append(m)
    mats = ps + qs

    def mat_mul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(n)), exact.Q6(0)) for j in range(n)] for i in range(n)]

    def word_eval(word):
        out = [[exact.Q6(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for v in word:
            out = mat_mul(out, mats[v])
        return out

    terms = pair_relation_terms(n)
    ncols = len(mats) * n * n
    rows = []
    for _, rel in terms:
        block = [[exact.Q6(0)] * ncols for _ in range(n * n)]
        for coeff, word in rel:
            cf = exact.Q6(Fraction(coeff).limit_denominator(10**6))
            for pos, var in enumerate(word):
                pre = word_eval(word[:pos])
                suf = word_eval(word[pos + 1:])
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            for l in range(n):
                                block[i * n + j][var * n * n + k * n + l] = (
                                    block[i * n + j][var * n * n + k * n + l]
                                    + cf * pre[i][k] * suf[l][j])
        rows.extend(block)
    rank = exact.exact_rank(rows)
    nullity = ncols - rank
    assert nullity == 8
    # 8 = orbit dimension at an irreducible point of sl(3): moduli dimension 0
    assert nullity - orbit_tangent_dim(standard_pair(3).matrices()) == 0


def test_moduli_dimension_conjugation_invariant(base_pair):
    rng = np.random.default_rng(24)
    h = random_invertible(rng, 6)
    assert np.linalg.cond(h) <= 1e3
    assert moduli_tangent_report(conjugated_pair(base_pair, h)).moduli_dim == 4


def test_a6_moduli_dimension(base_pair):
    point = restrict(base_pair, [1, 2, 3])
    assert moduli_tangent_report(point).moduli_dim == 8


def test_a6_moduli_dimension_rank_one(base_pair):
    point = AlgebraRepPoint(
        names=("P",) + tuple(f"q{j}" for j in range(1, 7)),
        matrices=(base_pair.p[0],) + tuple(base_pair.q),
        relations=sandwich_relation_terms(6, 1.0 / 6.0),
    )
    assert evaluate_relations(point.matrices, point.relations)[0] <= 1e-13
    # 2(n-k-1)(k-1) = 0 at n = 6, k = 1
    assert moduli_tangent_report(point).moduli_dim == 0


def test_bent_q1_sandwich_window(base_pair):
    # q1 bent as in _bent_pair keeps the q sum off the identity by the
    # residual (~2.4 eps).  The 6-unknown commutant takes I in place of the
    # last q_a, so its zero singular value stays exact and eps up to 2e-10
    # is answered; from 2.5e-10 the lifted zero singular values of the
    # Jacobian reach the nullity's cut
    for eps in (1e-10, 1.5e-10, 2e-10):
        report = moduli_tangent_report(restrict(_bent_pair(base_pair, eps), [1, 2, 3]))
        assert (report.nullity, report.orbit_dim, report.moduli_dim) == (43, 35, 8)
        assert report.gap_ratio >= 1e9
    for eps in (3e-10, 1e-9):
        point = restrict(_bent_pair(base_pair, eps), [1, 2, 3])
        assert tangent._span_orbit_dim(point.matrices, tuple(range(1, 7))) == 35
        with pytest.raises(IndeterminateDimension, match="moduli tangent: singular-value gap"):
            moduli_tangent_report(point)


def test_a6_moduli_dimension_generic_sample(family_sample):
    c = from_hadamard(family_sample.points[9])
    assert moduli_tangent_report(restrict(c, [1, 2, 3])).moduli_dim == 8


def _reducible_sandwich_point():
    # P = diag(1, 0, 1, 0, 1, 0) and q's onto (e_2k +- e_2k+1)/sqrt(2): every
    # sandwich relation holds at r = 1/2, and the three 2x2 blocks leave a
    # commutant of dimension 3
    P = np.diag([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    qs = []
    for k in range(3):
        for sign in (1.0, -1.0):
            v = np.zeros(6)
            v[2 * k], v[2 * k + 1] = 1.0, sign
            qs.append(np.outer(v, v) / 2.0)
    return AlgebraRepPoint(names=("P",) + tuple(f"q{j}" for j in range(1, 7)),
                           matrices=(P, *qs), relations=sandwich_relation_terms(6, 0.5))


def test_a6_rejects_reducible():
    point = _reducible_sandwich_point()
    assert evaluate_relations(point.matrices, point.relations)[0] <= 1e-15
    assert orbit_tangent_dim(point.matrices) == 33
    with pytest.raises(ValueError, match="reducible"):
        moduli_tangent_report(point)


def test_a6_decides_the_commutant_once(base_pair, monkeypatch):
    # irreducibility is read from the report's own orbit dimension, taken
    # once in the 6 unknowns of span{q_a}; the general commutator is not
    # built
    calls = []
    span_orbit = tangent._span_orbit_dim

    def counted(*args, **kwargs):
        calls.append(args[1])
        return span_orbit(*args, **kwargs)

    def general(*args, **kwargs):
        raise AssertionError("the sandwich report took the d^2-unknown commutant")

    monkeypatch.setattr(tangent, "_span_orbit_dim", counted)
    monkeypatch.setattr(tangent, "commutant_dimension", general)
    assert moduli_tangent_report(restrict(base_pair, [1, 2, 3])).moduli_dim == 8
    assert calls == [tuple(range(1, 7))]
    with pytest.raises(ValueError, match="reducible"):
        moduli_tangent_report(_reducible_sandwich_point())
    assert len(calls) == 2


def test_x33_moduli_dimension(base_pair):
    point = graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])
    assert moduli_tangent_report(point).moduli_dim == 4


def test_x33_moduli_conjugation_invariant(base_pair):
    rng = np.random.default_rng(25)
    w = random_unitary(rng, 6)
    conj = conjugated_pair(base_pair, w)
    point = graph_restriction(conj, [1, 2, 3], [1, 2, 3])
    assert moduli_tangent_report(point).moduli_dim == 4


# Invariance of the kernel under the symmetries of the relation system:
# random invertible conjugation, permutations within the p's and within the
# q's, and exchange of the two systems.
_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=10, deadline=None)
# (nullity, moduli_dim) at the n = 3 standard pair and the n = 6 swap34 pair
_BASE_KERNEL = {3: (8, 0), 6: (39, 4)}


def _base_pair(n):
    return standard_pair(n, swap34=n >= 4)


@pytest.mark.parametrize("n", [3, 6])
@_PROPERTY_SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_invariant_under_conjugation(n, seed):
    h = random_invertible(np.random.default_rng(seed), n)
    report = moduli_tangent_report(conjugated_pair(_base_pair(n), h))
    assert (report.nullity, report.moduli_dim) == _BASE_KERNEL[n]


@pytest.mark.parametrize("n", [3, 6])
@_PROPERTY_SETTINGS
@given(data=st.data(), exchange=st.booleans())
def test_kernel_invariant_under_permutation_and_exchange(n, data, exchange):
    c = _base_pair(n)
    p_order = data.draw(st.permutations(range(n)))
    q_order = data.draw(st.permutations(range(n)))
    moved = pair_from_matrices([c.p[i] for i in p_order], [c.q[j] for j in q_order])
    report = moduli_tangent_report(tau(moved) if exchange else moved)
    assert (report.nullity, report.moduli_dim) == _BASE_KERNEL[n]


# ---------------------------------------------------------------------------
# Dephased defect.
# ---------------------------------------------------------------------------


def test_defect_fourier6(fourier6, fourier6_swapped):
    assert defect_report(fourier6).moduli_dim == 4
    assert defect_report(fourier6_swapped).moduli_dim == 4
    report = defect_report(fourier6)
    assert report.gap_ratio >= GAP_RATIO_REQUIRED
    assert isinstance(report, TangentReport)
    assert report.orbit_dim == 0 and report.nullity == report.moduli_dim


def test_defect_rigid_small_n():
    assert defect_report(fourier_phases(2)).moduli_dim == 0
    assert defect_report(fourier_phases(3)).moduli_dim == 0


def test_defect_n2_exhaustive_phase_oracle():
    """The single off-diagonal Gram entry (1 + e^{i phi})/2 vanishes only at
    phi = pi, where its phase derivative has modulus 1/2: zero-dimensional."""
    grid = np.linspace(-np.pi, np.pi, 20001)
    vals = np.abs(1.0 + np.exp(1j * grid)) / 2.0
    roots = grid[vals < 1e-3]
    assert np.all(np.abs(np.abs(roots) - np.pi) < 2e-3)
    assert abs(abs(1j * np.exp(1j * np.pi) / 2.0) - 0.5) < 1e-15


def test_defect_matches_moduli_dimension(base_pair, fourier6_swapped, family_sample):
    assert defect_report(fourier6_swapped).moduli_dim == moduli_tangent_report(base_pair).moduli_dim
    for h in family_sample.points[1:11]:
        assert defect_report(h).moduli_dim == moduli_tangent_report(from_hadamard(h)).moduli_dim


@pytest.fixture(scope="module")
def invariance_points(fourier6, fourier6_swapped):
    """F6, F6 swap34 and five points of a seeded walk from F6 swap34."""
    return [fourier6, fourier6_swapped, *sample_family(fourier6_swapped, 6, 5).points[1:]]


def test_defect_invariant_under_permutation(invariance_points):
    # permuting the rows and the columns of a Hadamard matrix and dephasing
    # it again is an equivalence: the defect stays 4
    rng = np.random.default_rng(0)
    for h in invariance_points:
        u = h.unitary()
        for _ in range(3):
            moved = u[rng.permutation(6)][:, rng.permutation(6)]
            assert defect_report(HadamardPoint(6, dephased_phases(moved))).moduli_dim == 4


def test_defect_refuses_off_manifold():
    rng = np.random.default_rng(26)
    with pytest.raises(ValueError):
        defect_report(HadamardPoint(6, rng.uniform(-3, 3, (5, 5))))


def test_phase_constraint_shapes(fourier6):
    c, J = phase_constraints(fourier6)
    assert c.shape == (30,)
    assert J.shape == (30, 25)
    assert np.linalg.norm(c) <= 1e-14


def _loop_phase_constraints(h):
    """Reference: the constraints and Jacobian accumulated entry by entry."""
    u = h.reconstruct()
    n = h.n
    gram = u.conj().T @ u
    cvals, rows = [], []
    for j in range(n):
        for k in range(j + 1, n):
            row = np.zeros((n - 1) ** 2, dtype=np.complex128)
            for a in range(1, n):
                v = 1j * np.conj(u[a, j]) * u[a, k]
                row[(a - 1) * (n - 1) + (k - 1)] += v
                if j >= 1:
                    row[(a - 1) * (n - 1) + (j - 1)] -= v
            cvals.append(gram[j, k])
            rows.append(row)
    cvec, Jc = np.array(cvals), np.array(rows)
    return np.concatenate([cvec.real, cvec.imag]), np.vstack([Jc.real, Jc.imag])


def test_phase_constraints_match_entrywise_loop(fourier6, family_sample):
    # same arithmetic as the loop, so equal to the last bit, not to a tolerance
    rng = np.random.default_rng(33)
    points = [fourier6, fourier_phases(4), fourier_phases(7, swap34=True)] + family_sample.points
    points += [HadamardPoint(6, rng.uniform(-3, 3, (5, 5))) for _ in range(5)]
    for h in points:
        c, J = phase_constraints(h)
        c_ref, J_ref = _loop_phase_constraints(h)
        assert np.array_equal(c, c_ref)
        assert np.array_equal(J, J_ref)


# ---------------------------------------------------------------------------
# Fiber rank of the invariant map.
# ---------------------------------------------------------------------------


def test_u_differential_matches_loop_and_finite_differences(base_pair, family_sample):
    rng = np.random.default_rng(41)
    points = [graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])]
    points += [graph_restriction(from_hadamard(h), [1, 2, 3], [1, 2, 3]) for h in family_sample.points[1:4]]
    for point in points:
        mats = point.matrices
        P, qs = mats[0] + mats[1] + mats[2], mats[3:]
        dX = rng.standard_normal((4, 6, 6, 5)) + 1j * rng.standard_normal((4, 6, 6, 5))
        D = u_invariants_directional(P, qs, dX[0], dX[1:])
        ref = np.array([_loop_directional(P, qs, dX[0, ..., k], dX[1:, ..., k]) for k in range(5)]).T
        assert D.shape == ref.shape == (3, 5)
        assert np.all(np.max(np.abs(D - ref), axis=1) <= 1e-12 * np.max(np.abs(ref), axis=1))
    # a generic non-Hermitian point, where all three u3 factors are far from
    # zero, so every term of the u3 product rule counts
    gens = 0.25 * (rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6)))
    dX = rng.standard_normal((4, 6, 6, 3)) + 1j * rng.standard_normal((4, 6, 6, 3))
    pairs = ((1, 2), (1, 3), (2, 3))
    assert min(abs(36.0 * _tr(gens[0], gens[i], gens[0], gens[j]) - 1.0) for i, j in pairs) > 1.0
    D = u_invariants_directional(gens[0], gens[1:], dX[0], dX[1:])
    step = 1e-6
    for k in range(3):
        plus = u_invariants(*(gens + step * dX[..., k])).complex_values
        minus = u_invariants(*(gens - step * dX[..., k])).complex_values
        fd = (np.array(plus) - np.array(minus)) / (2 * step)
        assert np.all(np.abs(fd - D[:, k]) <= 1e-7 * np.abs(D[:, k]))


def test_fiber_rank_generic_samples(family_sample):
    ranks = []
    for h in family_sample.points[1:9]:
        point = graph_restriction(from_hadamard(h), [1, 2, 3], [1, 2, 3])
        report = fiber_rank_check(point)
        assert report.rank <= 3
        assert report.moduli_dim == 4
        ranks.append(report.rank)
    assert ranks.count(3) >= 7


def test_fiber_rank_at_base_point_degenerates(base_pair):
    # the swapped standard restriction has a vanishing u3 factor (column gap
    # 3) and du3 dies on the whole relation kernel there: rank drops to 2
    point = graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])
    report = fiber_rank_check(point)
    assert report.rank == 2
    assert report.moduli_dim == 4


def test_fiber_moduli_dimension_is_the_x33_report(base_pair):
    # the fiber check reads its kernel and moduli dimension from the 3+3
    # report's scaled Jacobian, at unitarily and non-unitarily conjugated points
    rng = np.random.default_rng(34)
    hs = [random_unitary(rng, 6), random_invertible(rng, 6), random_invertible(rng, 6, spread=1.0),
          np.diag(np.geomspace(1.0, 100.0, 6))]
    for h in hs:
        point = graph_restriction(conjugated_pair(base_pair, h), [1, 2, 3], [1, 2, 3])
        report = moduli_tangent_report(point)
        assert fiber_rank_check(point).moduli_dim == report.moduli_dim == 4


def test_fiber_conjugation_ladder(base_pair, family_sample):
    # conjugating by diag(1, .., a, .., 1) leaves the fiber rank and the
    # moduli dimension: every rung answers them or refuses for want of a
    # gap, never another integer.  D is read in the column-scaled factor
    # coordinates, which the conjugation leaves alone, so every rung below
    # a = 1e5 answers and at 1e5 the swap34 restriction still answers in
    # slots 0, 3, 4 and 5, the family point in all six
    cases = [(base_pair, (2, 4), {0, 3, 4, 5}), (from_hadamard(family_sample.points[5]), (3, 4), set(range(6)))]
    for c, want, top in cases:
        answered = set()
        for slot in range(6):
            for a in (1e1, 1e2, 1e3, 1e4, 1e5):
                h = np.ones(6)
                h[slot] = a
                point = graph_restriction(conjugated_pair(c, np.diag(h)), [1, 2, 3], [1, 2, 3])
                try:
                    report = fiber_rank_check(point)
                except IndeterminateDimension:
                    continue
                assert (report.rank, report.moduli_dim) == want
                answered.add((slot, a))
        assert answered >= {(slot, a) for slot in range(6) for a in (1e1, 1e2, 1e3, 1e4)}
        assert {slot for slot, a in answered if a == 1e5} >= top


def test_fiber_invariant_under_conjugation_and_permutation(invariance_points):
    # a unitary conjugation and permutations within the triples leave the
    # fiber rank, the moduli dimension and the u3 degeneracy
    for k, h in enumerate(invariance_points):
        point = graph_restriction(from_hadamard(h), [1, 2, 3], [1, 2, 3])
        want = fiber_rank_check(point)
        u = random_unitary(np.random.default_rng(k), 6)
        mats = [u @ m @ u.conj().T for m in point.matrices]
        for p_order, q_order in itertools.product(((0, 1, 2), (2, 0, 1), (1, 0, 2)), ((0, 1, 2), (1, 2, 0), (0, 2, 1))):
            order = [*p_order, *(3 + j for j in q_order)]
            moved = AlgebraRepPoint(names=tuple(point.names[i] for i in order),
                                    matrices=tuple(mats[i] for i in order), relations=point.relations)
            got = fiber_rank_check(moved)
            assert (got.rank, got.moduli_dim, got.degenerate_u3) == (want.rank, want.moduli_dim, want.degenerate_u3)


def test_fiber_rank_check_cost(base_pair, monkeypatch):
    # one batched SVD factors the generators, one gives the Jacobian's
    # spectrum and kernel, one decides the commutant and one the invariant
    # differential on the 45 kernel vectors; only the first two compute
    # vectors, and the tangent image (216 x 45) takes no SVD
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append((np.shape(args[0]), kwargs.get("compute_uv", True)))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert fiber_rank_check(graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])).rank == 2
    assert [shape for shape, _ in calls] == [(6, 6, 6), (27, 72), (216, 36), (3, 45)]
    assert [shape for shape, vectors in calls if vectors] == [(6, 6, 6), (27, 72)]


# ---------------------------------------------------------------------------
# The gap rule.
# ---------------------------------------------------------------------------


def test_nullity_gap_rule():
    s = np.array([1.0, 1e-4, 9e-5, 1e-14])
    with pytest.raises(IndeterminateDimension) as info:
        decide_rank(s, 9.5e-5, "test")
    assert info.value.gap_ratio < GAP_RATIO_REQUIRED
    assert np.array_equal(info.value.singular_values, s)
    assert str(info.value).startswith("test:")
    report = decide_rank(s, 1e-8, "test")
    assert 4 - report.rank == 1 and report.gap_ratio >= GAP_RATIO_REQUIRED
    assert report.tolerance_used == 1e-8
    # nothing below the cut: the gap is measured against the cut itself
    with pytest.raises(IndeterminateDimension):
        decide_rank(np.array([1.0, 5e-8]), 1e-10, "test")
    assert decide_rank(np.array([1.0, 5e-6]), 1e-10, "test").rank == 2
    assert decide_rank(np.array([]), 1e-10, "test").rank == 0
