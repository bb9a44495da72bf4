import numpy as np
import pytest

from conftest import random_invertible, random_unitary
from orthopair import exact
from orthopair.config import HadamardPoint, fourier_phases, from_hadamard, pair_from_matrices, standard_pair
from orthopair.linalg import decide_rank
from orthopair.relations import graph_restriction, pair_relation_terms, restrict
from orthopair.tangent import (
    GAP_RATIO_REQUIRED,
    IndeterminateDimension,
    a6_moduli_tangent_report,
    defect_report,
    fiber_rank_check,
    moduli_tangent_report,
    orbit_tangent_dim,
    phase_constraints,
    relation_residual_vector,
    rep_jacobian,
    x33_moduli_tangent_report,
)


def conjugated_pair(c, h):
    hinv = np.linalg.inv(h)
    return pair_from_matrices([h @ p @ hinv for p in c.p], [h @ q @ hinv for q in c.q])


# ---------------------------------------------------------------------------
# Jacobian correctness.
# ---------------------------------------------------------------------------


def test_jacobian_matches_finite_differences(base_pair, family_sample):
    # central differences along random complex directions: a conjugate-linear
    # term in the residual would show up here and not in the analytic J v
    rng = np.random.default_rng(22)
    step = 1e-6
    points = [base_pair, standard_pair(2), standard_pair(3)]
    points += [from_hadamard(h) for h in family_sample.points[1:8]]
    for c in points:
        system = rep_jacobian(c)
        terms = pair_relation_terms(c.n)
        assert system.relation_names == tuple(name for name, _ in terms)
        d = c.n
        base = np.concatenate([m.ravel() for m in c.matrices()])

        def mats_from(z):
            return [z[k * d * d:(k + 1) * d * d].reshape(d, d) for k in range(2 * d)]

        for _ in range(2):
            v = rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size)
            v /= np.linalg.norm(v)
            fd = (relation_residual_vector(mats_from(base + step * v), terms)
                  - relation_residual_vector(mats_from(base - step * v), terms)) / (2 * step)
            an = system.jacobian @ v
            denom = max(np.linalg.norm(an), 1.0)
            assert np.max(np.abs(an - fd)) / denom <= 1e-6


def test_jacobian_zero_direction(base_pair):
    system = rep_jacobian(base_pair)
    zero = np.zeros(system.jacobian.shape[1], dtype=np.complex128)
    assert np.linalg.norm(system.jacobian @ zero) == 0.0


def test_jacobian_annihilates_orbit_directions(base_pair):
    rng = np.random.default_rng(23)
    for c in (base_pair, standard_pair(2)):
        system = rep_jacobian(c)
        n = c.n
        norm_j = np.linalg.norm(system.jacobian, 2)
        for _ in range(10):
            xi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v = np.concatenate([(xi @ m - m @ xi).ravel() for m in system.matrices])
            v /= np.linalg.norm(v)
            assert np.linalg.norm(system.jacobian @ v) <= 1e-8 * norm_j


def test_jacobian_refuses_off_variety_point(base_pair):
    ps = [p.copy() for p in base_pair.p]
    ps[0] = ps[0] + 1e-3
    broken = pair_from_matrices(ps, list(base_pair.q))
    with pytest.raises(ValueError):
        rep_jacobian(broken)


# ---------------------------------------------------------------------------
# Orbit dimension.
# ---------------------------------------------------------------------------


def test_orbit_dimension(base_pair):
    assert orbit_tangent_dim(base_pair) == 35
    assert orbit_tangent_dim(standard_pair(2)) == 3


def test_orbit_dimension_reducible(standard6):
    degenerate = pair_from_matrices(list(standard6.p), list(standard6.p))
    assert orbit_tangent_dim(degenerate) == 30  # commutant is the diagonal algebra


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
        assert report.singular_values.shape == (432,)


def test_moduli_dimension_rigid_n3():
    assert moduli_tangent_report(standard_pair(3)).moduli_dim == 0


def test_moduli_spectrum_matches_real_expansion():
    # the real expansion [[Re J, -Im J], [Im J, Re J]] of the column-scaled
    # complex Jacobian lists every complex singular value twice
    c = standard_pair(3)
    report = moduli_tangent_report(c)
    system = rep_jacobian(c)
    scale = np.repeat([np.linalg.norm(m, 2) for m in system.matrices], c.n * c.n)
    J = system.jacobian * scale[None, :]
    real = np.block([[J.real, -J.imag], [J.imag, J.real]])
    s_real = np.linalg.svd(real, compute_uv=False)
    assert report.singular_values.shape == (J.shape[1],)
    assert np.max(np.abs(np.repeat(report.singular_values, 2) - s_real)) <= 1e-12 * s_real[0]
    assert report.nullity == 8


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
    assert nullity - orbit_tangent_dim(standard_pair(3)) == 0


def test_moduli_dimension_conjugation_invariant(base_pair):
    rng = np.random.default_rng(24)
    h = random_invertible(rng, 6)
    assert np.linalg.cond(h) <= 1e3
    assert moduli_tangent_report(conjugated_pair(base_pair, h)).moduli_dim == 4


def test_a6_moduli_dimension(base_pair):
    point = restrict(base_pair, [1, 2, 3])
    assert a6_moduli_tangent_report(point).moduli_dim == 8


def test_a6_moduli_dimension_rank_one(base_pair):
    from orthopair.relations import AlgebraRepPoint

    point = AlgebraRepPoint(
        algebra="sandwich",
        names=("P",) + tuple(f"q{j}" for j in range(1, 7)),
        matrices=(base_pair.p[0],) + tuple(base_pair.q),
        r_list=(1.0 / 6.0,) * 6,
    )
    assert point.residual() <= 1e-13
    # 2(n-k-1)(k-1) = 0 at n = 6, k = 1
    assert a6_moduli_tangent_report(point).moduli_dim == 0


def test_a6_moduli_dimension_generic_sample(family_sample):
    c = from_hadamard(family_sample.points[9])
    assert a6_moduli_tangent_report(restrict(c, [1, 2, 3])).moduli_dim == 8


def test_a6_rejects_reducible(standard6):
    from orthopair.relations import AlgebraRepPoint

    point = AlgebraRepPoint(
        algebra="sandwich",
        names=("P",) + tuple(f"q{j}" for j in range(1, 7)),
        matrices=(standard6.p[0],) + tuple(standard6.p),
        r_list=(1.0,) * 6,
    )
    with pytest.raises(ValueError):
        a6_moduli_tangent_report(point)


def test_x33_moduli_dimension(base_pair):
    point = graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])
    assert x33_moduli_tangent_report(point).moduli_dim == 4


def test_x33_moduli_conjugation_invariant(base_pair):
    rng = np.random.default_rng(25)
    w = random_unitary(rng, 6)
    conj = conjugated_pair(base_pair, w)
    point = graph_restriction(conj, [1, 2, 3], [1, 2, 3])
    assert x33_moduli_tangent_report(point).moduli_dim == 4


# ---------------------------------------------------------------------------
# Dephased defect.
# ---------------------------------------------------------------------------


def test_defect_fourier6(fourier6, fourier6_swapped):
    assert defect_report(fourier6).defect == 4
    assert defect_report(fourier6_swapped).defect == 4
    report = defect_report(fourier6)
    assert report.gap_ratio >= GAP_RATIO_REQUIRED


def test_defect_rigid_small_n():
    assert defect_report(fourier_phases(2)).defect == 0
    assert defect_report(fourier_phases(3)).defect == 0


def test_defect_n2_exhaustive_phase_oracle():
    """The single off-diagonal Gram entry (1 + e^{i phi})/2 vanishes only at
    phi = pi, where its phase derivative has modulus 1/2: zero-dimensional."""
    grid = np.linspace(-np.pi, np.pi, 20001)
    vals = np.abs(1.0 + np.exp(1j * grid)) / 2.0
    roots = grid[vals < 1e-3]
    assert np.all(np.abs(np.abs(roots) - np.pi) < 2e-3)
    assert abs(abs(1j * np.exp(1j * np.pi) / 2.0) - 0.5) < 1e-15


def test_defect_matches_moduli_dimension(base_pair, fourier6_swapped, family_sample):
    assert defect_report(fourier6_swapped).defect == moduli_tangent_report(base_pair).moduli_dim
    for h in family_sample.points[1:11]:
        assert defect_report(h).defect == moduli_tangent_report(from_hadamard(h)).moduli_dim


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
