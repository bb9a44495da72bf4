import numpy as np
import pytest

from orthopair import xprec
from orthopair.config import from_hadamard
from orthopair.linalg import (
    IndeterminateDimension,
    as_matrix,
    decide_rank,
    gauss_newton,
    lstsq_step,
    range_factors,
    rank1_projector,
    spectral_norm,
)
from orthopair.relations import evaluate_relations, evaluate_word


def elementary(n, i):
    e = np.zeros((n, n), dtype=complex)
    e[i, i] = 1.0
    return e


def svd_rank(a, tol):
    return decide_rank(np.linalg.svd(a, compute_uv=False), tol, "test")


def kernel(a, tol):
    """Orthonormal kernel basis of ``a`` cut by the rank rule."""
    _, s, vh = np.linalg.svd(a)
    rank = decide_rank(s, tol, "test").rank
    return [vh[i].conj() for i in range(rank, a.shape[1])]


def test_mul_identity_and_zero():
    # products of generator matrices are evaluated as words
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    mats = [np.eye(6), m, np.zeros((6, 6))]
    assert np.allclose(evaluate_word(mats, (0, 1), 6), m)
    assert np.allclose(evaluate_word(mats, (1, 2), 6), 0.0)
    assert np.array_equal(evaluate_word(mats, (), 6), np.eye(6))


def test_mul_orthogonal_idempotents():
    mats = [elementary(6, 0), elementary(6, 1)]
    assert np.allclose(evaluate_word(mats, (0, 1), 6), 0.0)
    worst, _ = evaluate_relations(mats, [("x0 x1", [(1.0, (0, 1))])])
    assert worst == 0.0


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate_relations([np.eye(3), np.eye(4)], [("x0 x1", [(1.0, (0, 1))])])


def test_mul_rejects_nonfinite():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        evaluate_relations([bad, np.eye(2)], [("x0 x1", [(1.0, (0, 1))])])


@pytest.mark.parametrize("entry", [complex(np.inf, 0.0), complex(0.0, np.nan)], ids=["inf-real", "nan-imag"])
def test_as_matrix_rejects_either_nonfinite_part(entry):
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = entry
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        as_matrix(bad)
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        evaluate_relations([np.eye(2), bad], [("x0 x1", [(1.0, (0, 1))])])


def test_trace_basics():
    assert np.trace(np.eye(6)) == 6
    v = np.arange(1, 7, dtype=complex)
    assert abs(np.trace(rank1_projector(v)) - 1.0) < 1e-13


def test_trace_cyclicity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        bound = 1e-12 * spectral_norm(a) * spectral_norm(b)
        assert abs(np.trace(a @ b) - np.trace(b @ a)) <= bound
    # conformable rectangular case
    a = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    b = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    bound = 1e-12 * spectral_norm(a) * spectral_norm(b)
    assert abs(np.trace(a @ b) - np.trace(b @ a)) <= bound


def test_numerical_rank_identity_zero_outer():
    assert svd_rank(np.eye(6), 1e-10).rank == 6
    assert svd_rank(np.zeros((4, 4)), 1e-10).rank == 0
    rng = np.random.default_rng(3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    report = svd_rank(np.outer(v, v.conj()), 1e-10)
    assert report.rank == 1
    assert report.gap_ratio > 1e3


def test_numerical_rank_singular_values_sorted():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 5))
    s = svd_rank(m, 1e-12).singular_values
    assert np.all(np.diff(s) <= 0)
    with pytest.raises(ValueError):
        svd_rank(m, -1.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 1.0, 2.0, 0.0])
def test_decide_rank_refuses_tolerance_outside_unit_interval(tol):
    # a cut at or above s[0], or a non-finite one, counts no singular value
    # and would report rank 0 with gap ratio inf on any spectrum
    with pytest.raises(ValueError, match="rank tolerance must lie in"):
        decide_rank([3.0, 2.0, 1.0], tol, "test")


def test_nullspace_basics():
    assert kernel(np.eye(6), 1e-10) == []
    vecs = kernel(np.zeros((3, 3)), 1e-10)
    assert len(vecs) == 3
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    row = np.array([[1.0, 1.0]]) / np.sqrt(2)
    (w,) = kernel(row, 1e-10)
    target = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(w - target), np.linalg.norm(w + target)) < 1e-12


def test_nullspace_residual_bound_and_rank_sum():
    rng = np.random.default_rng(5)
    tol = 1e-10
    for _ in range(20):
        rows, cols = rng.integers(3, 9, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        a = (rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))) @ \
            (rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))) if r else \
            np.zeros((rows, cols), dtype=complex)
        vecs = kernel(a, tol)
        report = svd_rank(a, tol)
        assert report.rank == r
        assert report.rank + len(vecs) == cols
        norm_a = spectral_norm(a)
        for w in vecs:
            assert np.linalg.norm(a @ w) <= 10 * tol * max(norm_a, 1.0)


def test_rank1_projector_examples():
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert np.allclose(rank1_projector(e1), elementary(6, 0))
    v = np.array([1, 2j, -1, 0.5, 0, 3])
    assert np.allclose(rank1_projector(v), rank1_projector(2 * v))
    ones = np.ones(6)
    assert np.allclose(rank1_projector(ones), np.full((6, 6), 1.0 / 6.0))
    with pytest.raises(ValueError):
        rank1_projector(np.zeros(4))


def test_rank1_projector_property_sweep():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        p = rank1_projector(v)
        assert spectral_norm(p @ p - p) <= 1e-13
        assert spectral_norm(p - p.conj().T) <= 1e-13
        assert abs(np.trace(p) - 1.0) <= 1e-13


def test_extended_precision_rank_matches_double():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    m = np.outer(v, v.conj()) + 1e-3 * np.eye(5)
    rd = svd_rank(m, 1e-10)
    rx = decide_rank(xprec.mp_singular_values(m), 1e-10, "test")
    assert rd.rank == rx.rank == 5
    assert np.allclose(rd.singular_values, rx.singular_values, rtol=1e-12)


def test_gauss_newton_converged_start_takes_no_step():
    def fun(x):
        def jacobian():
            raise AssertionError("Jacobian built without a step")
        return x - 1.0, jacobian

    x0 = np.array([1.0, 1.0])
    x, r, steps, converged = gauss_newton(fun, x0, 1e-12, 10, 3, lstsq_step(1e-12))
    assert (x is x0, r, steps, converged) == (True, 0.0, 0, True)


def _scripted(norms):
    """A residual whose norm at the k-th evaluation is norms[k], with an
    identity Jacobian; returns it with the list of iterates it saw."""
    seen = []

    def fun(x):
        seen.append(x)
        return np.array([norms[len(seen) - 1]]), lambda: np.eye(1)

    return fun, seen


def test_gauss_newton_stall_returns_best_iterate():
    # the norm drops to 1, then 3 is not below half the 4 of three steps
    # earlier: the run stops there, before the final 0 is reached, and
    # returns the iterate of norm 1
    fun, seen = _scripted([4.0, 2.0, 1.0, 3.0, 3.0, 5.0, 0.0])
    x, r, steps, converged = gauss_newton(fun, np.zeros(1), 1e-12, 20, 3, lstsq_step(1e-12))
    assert len(seen) == 4
    assert x is seen[2] and r == 1.0
    assert steps == 3 and not converged


@pytest.mark.parametrize("window", [3, 6])
def test_gauss_newton_slow_decrease_stops_at_window(window):
    # a norm falling by 0.9 per step has not halved over `window` <= 6 steps
    fun, seen = _scripted([0.9 ** k for k in range(61)])
    x, r, steps, converged = gauss_newton(fun, np.zeros(1), 1e-12, 60, window, lstsq_step(1e-12))
    assert steps == window and len(seen) == window + 1 and not converged
    assert x is seen[-1] and r == 0.9 ** window


@pytest.mark.parametrize("window", [3, 8])
def test_gauss_newton_halving_per_window_converges(window):
    # rising within each run of `window` steps, but exactly half the norm
    # `window` steps earlier: never above that half, so the run goes on
    # until it converges
    fun, seen = _scripted([0.5 ** (k // window) * (1.0 + 0.1 * (k % window)) for k in range(200)])
    x, r, steps, converged = gauss_newton(fun, np.zeros(1), 2.0 ** -10, 199, window, lstsq_step(1e-12))
    assert converged and steps == 10 * window and r == 2.0 ** -10
    assert x is seen[-1] and len(seen) == steps + 1


def test_gauss_newton_budget_evaluates_final_iterate():
    # a Jacobian twice the true one halves the residual per step
    jacobian_builds = []
    seen = []

    def jacobian():
        jacobian_builds.append(1)
        return 2.0 * np.eye(1)

    def fun(x):
        seen.append(x)
        return x, jacobian

    x, r, steps, converged = gauss_newton(fun, np.ones(1), 1e-12, 5, 3, lstsq_step(1e-12))
    assert len(seen) == 6 and len(jacobian_builds) == 5
    assert x is seen[-1] and r == 2.0 ** -5
    assert steps == 5 and not converged
    # the same final iterate meeting the tolerance counts as converged
    assert gauss_newton(fun, np.ones(1), 2.0 ** -5, 5, 3, lstsq_step(1e-12))[2:] == (5, True)


def test_range_factors_equal_each_range_factor(base_pair, family_sample):
    # one batched SVD gives every matrix the factor and spectrum of its own SVD, bit for bit
    for mats in (base_pair.matrices(), from_hadamard(family_sample.points[5]).matrices()):
        factors, spectra = range_factors(np.stack(mats), 1e-10, [f"m{i}" for i in range(len(mats))])
        for m, (v, wt), s in zip(mats, factors, spectra):
            [(v1, wt1)], _ = range_factors(m[None], 1e-10, ["m"])
            assert v.shape == (6, 1) and np.array_equal(v, v1) and np.array_equal(wt, wt1)
            assert np.array_equal(s, np.linalg.svd(m)[1])
    # each rank is decided on its own spectrum, and the refusal names its matrix
    blurred = np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 1e-9])]).astype(complex)
    with pytest.raises(IndeterminateDimension, match="second"):
        range_factors(blurred, 1e-10, ["first", "second"])
    assert [v.shape[1] for v, _ in range_factors(blurred[:1], 1e-10, ["first"])[0]] == [1]
