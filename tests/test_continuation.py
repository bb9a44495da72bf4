import ast
import inspect
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import u_array
from orthopair import config, continuation, invariants, linalg, tangent
from orthopair.config import (
    UNITARITY_TOL,
    HadamardPoint,
    dephased_phases,
    fourier_phases,
    from_hadamard,
)
from orthopair.continuation import (
    _canonical_phases,
    _key_grid,
    canonical_reduce,
    family_jsonl_records,
    newton_correct,
    sample_family,
    tangent_frame,
    trace_path,
    write_family_jsonl,
)
from orthopair.invariants import u_invariants
from orthopair.tangent import phase_constraints


def dumped_invariants(points, residuals=None):
    """(u1, u2, u3) of each point, as the family dump records them."""
    return np.array([[rec["invariants"][k] for k in ("u1", "u2", "u3")]
                     for rec in family_jsonl_records(points, residuals)])


def invariant_step_bound(result, h):
    """Empirical max |u(k+1) - u(k)| / h along a traced path."""
    us = dumped_invariants(result.points, result.residuals)
    return float(np.max(np.abs(np.diff(us, axis=0)))) / h


def test_tangent_frame_spans_kernel(fourier6):
    frame, _ = tangent_frame(fourier6)
    assert frame.shape == (25, 4)
    _, J = phase_constraints(fourier6)
    for k in range(4):
        assert np.linalg.norm(J @ frame[:, k]) <= 1e-8
    gram = frame.T @ frame
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_tangent_frame_subspace_stable_under_alignment(fourier6):
    rng = np.random.default_rng(27)
    frame, pinv = tangent_frame(fourier6)
    rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    aligned, aligned_pinv = tangent_frame(fourier6, prev=frame @ rot)
    assert np.array_equal(aligned_pinv, pinv)  # the alignment rotates the kernel basis only
    p1 = frame @ frame.T
    p2 = aligned @ aligned.T
    assert np.max(np.abs(p1 - p2)) <= 1e-10
    # alignment minimises rotation: close to the requested frame
    assert np.max(np.abs(aligned - frame @ rot)) <= 1e-8


def test_tangent_frame_rigid_point_errors():
    with pytest.raises(ValueError):
        tangent_frame(fourier_phases(2))


def test_newton_fixed_point(fourier6):
    result = newton_correct(fourier6)
    assert result.converged
    assert result.iterations == 0
    assert np.array_equal(result.point.phases, fourier6.phases)


def test_newton_quadratic_convergence(fourier6):
    rng = np.random.default_rng(28)
    frame, _ = tangent_frame(fourier6)
    for size in (1e-4, 1e-3):
        for _ in range(5):
            d = rng.standard_normal(4)
            d /= np.linalg.norm(d)
            start = HadamardPoint(6, fourier6.phases + size * (frame @ d).reshape(5, 5))
            result = newton_correct(start)
            assert result.converged
            assert result.residual <= 1e-12
            assert result.iterations <= 6


def test_newton_large_normal_kick_is_never_silent(fourier6):
    rng = np.random.default_rng(29)
    _, J = phase_constraints(fourier6)
    _, _, vt = np.linalg.svd(J)
    normal = vt[0]  # direction with the largest constraint response
    start = HadamardPoint(6, fourier6.phases + 0.5 * normal.reshape(5, 5))
    try:
        result = newton_correct(start)
    except ValueError:
        return  # refused outright: residual outside any basin
    if result.converged:
        assert result.point.unitarity_residual() <= 1e-9
    else:
        assert result.residual > 1e-12  # flagged, not silently wrong


def test_converged_corrector_hands_over_its_jacobian(fourier6_swapped):
    # alike from Gauss-Newton (no J+) and from the chord, which builds the
    # Jacobian once, at the point where it converged
    frame, pinv = tangent_frame(fourier6_swapped)
    rng = np.random.default_rng(40)
    for size in (0.0, 1e-3, 1e-2):
        step = frame @ rng.standard_normal(4) + 1e-3 * rng.standard_normal(25)
        start = HadamardPoint(6, fourier6_swapped.phases + size * step.reshape(5, 5))
        for chord in (None, pinv):
            result = newton_correct(start, chord)
            assert result.converged and result.iterations >= (size > 0)
            assert result.chord == (chord is not None)
            c, J = phase_constraints(result.point)
            assert np.array_equal(result.jacobian, J)
            assert result.residual == np.linalg.norm(c) <= continuation.CORRECTOR_TOL
            handed = tangent_frame(result.point, prev=frame, jacobian=result.jacobian)
            again = tangent_frame(result.point, prev=frame)
            assert all(np.array_equal(a, b) for a, b in zip(handed, again))


def test_frame_hands_over_the_truncated_pseudo_inverse(fourier6, fourier6_swapped):
    # J+ of the frame's SVD is numpy's pinv at the corrector's cut, at walk
    # starts and at corrected points whose Jacobian was handed over
    frame, pinv = tangent_frame(fourier6_swapped)
    rng = np.random.default_rng(48)
    points = [(fourier6, None), (fourier6_swapped, None)]
    for _ in range(4):
        step = frame @ (1e-2 * rng.standard_normal(4))
        result = newton_correct(HadamardPoint(6, fourier6_swapped.phases + step.reshape(5, 5)), pinv)
        assert result.converged and result.chord
        points.append((result.point, result.jacobian))
    for h, jacobian in points:
        _, handed = tangent_frame(h, jacobian=jacobian)
        ref = np.linalg.pinv(phase_constraints(h)[1], rcond=continuation.PINV_CUTOFF)
        assert handed.shape == (25, 30)
        assert np.linalg.norm(handed - ref) <= 1e-12 * np.linalg.norm(ref)


def test_stale_or_zero_pinv_falls_back_to_gauss_newton(fourier6, fourier6_swapped):
    # a zero J+ leaves the norm where it is, and the J+ of another point (F6,
    # whose columns are swapped against F6 swap34) does not converge: either
    # chord stalls, and Gauss-Newton from the same start gives the point it
    # gives without a J+
    frame, pinv = tangent_frame(fourier6_swapped)
    rng = np.random.default_rng(47)
    step = frame @ (5e-2 * rng.standard_normal(4)) + 1e-3 * rng.standard_normal(25)
    start = HadamardPoint(6, fourier6_swapped.phases + step.reshape(5, 5))
    plain = newton_correct(start)
    assert plain.converged and not plain.chord
    for stale in (np.zeros_like(pinv), tangent_frame(fourier6)[1]):
        result = newton_correct(start, stale)
        assert result.converged and not result.chord
        assert result.point.phases.tobytes() == plain.point.phases.tobytes()
        assert result.residual == plain.residual
        assert np.array_equal(result.jacobian, plain.jacobian)
        assert result.iterations > plain.iterations
    assert newton_correct(start, np.zeros_like(pinv)).iterations == plain.iterations + continuation.CORRECTOR_WINDOW
    assert newton_correct(start, pinv).chord


def _count_calls(monkeypatch, fn) -> list:
    """Record every call of ``fn`` through any orthopair module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (config, continuation, invariants, linalg, tangent):
        for key, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, key, counted)
    return calls


def test_trace_path_builds_one_jacobian_per_evaluation(fourier6_swapped, monkeypatch):
    # a chord iterate evaluates the constraints alone: the corrector builds
    # one Jacobian, at the point where it converged, the frame reuses it, and
    # only the start builds one for its frame, with no defect report and no
    # least-squares solve; the unitarity gates pass on the Frobenius screen,
    # so the one SVD norm is the start's residual
    builds = _count_calls(monkeypatch, tangent.phase_constraints)
    norms = _count_calls(monkeypatch, linalg.spectral_norm)
    reports = _count_calls(monkeypatch, tangent.defect_report)

    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares solve in the walk")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    results = []
    correct = continuation.newton_correct
    monkeypatch.setattr(continuation, "newton_correct",
                        lambda h, pinv=None: results.append(correct(h, pinv)) or results[-1])
    path = trace_path(fourier6_swapped, [1.0, 0.0, 0.0, 0.0], steps=50, h=1e-2)
    assert path.ok and len(results) >= 50
    assert all(r.chord and r.converged for r in results)  # no move fell back to Gauss-Newton
    assert len(builds) == len(results) + 1
    assert len(norms) == 1
    assert len(reports) == 0


def test_corrector_fault_is_not_a_step_halving(fourier6_swapped, monkeypatch):
    # only a refusal outside the corrector's basin (OffVariety) halves the
    # step; any other ValueError from a mid-walk corrector call propagates
    correct, calls = continuation.newton_correct, []

    def faulty(h, pinv=None):
        calls.append(h)
        if len(calls) == 3:
            raise ValueError("injected corrector fault")
        return correct(h, pinv)

    monkeypatch.setattr(continuation, "newton_correct", faulty)
    with pytest.raises(ValueError, match="injected corrector fault") as info:
        trace_path(fourier6_swapped, [1.0, 0.0, 0.0, 0.0], steps=5, h=1e-2)
    assert not isinstance(info.value, linalg.OffVariety)
    assert len(calls) == 3


def test_trace_path_basic(fourier6_swapped):
    result = trace_path(fourier6_swapped, [1.0, 0.0, 0.0, 0.0], steps=20, h=1e-2)
    assert result.ok
    assert result.completed_steps == 20
    assert all(r <= 1e-10 for r in result.residuals)
    for a, b in zip(result.points, result.points[1:]):
        d = np.mod(a.phases - b.phases + np.pi, 2 * np.pi) - np.pi
        assert np.linalg.norm(d) >= 1e-2 / 2
    assert invariant_step_bound(result, 1e-2) > 0


def test_trace_path_zero_steps(fourier6_swapped):
    result = trace_path(fourier6_swapped, [0.0, 1.0, 0.0, 0.0], steps=0, h=1e-2)
    assert result.ok and len(result.points) == 1
    assert result.points[0] is fourier6_swapped


def test_trace_path_retraces_backwards(fourier6_swapped):
    # pointwise retracing carries the O(h^2) curvature of the manifold per
    # step, so the 1e-8 bound needs a small step
    h = 2e-5
    forward = trace_path(fourier6_swapped, [0.0, 0.0, 1.0, 0.0], steps=4, h=h)
    assert forward.ok
    back = trace_path(forward.points[-1], [0.0, 0.0, -1.0, 0.0], steps=4, h=h,
                      initial_frame=forward.final_frame)
    assert back.ok
    for a, b in zip(back.points, forward.points[::-1]):
        d = np.mod(a.phases - b.phases + np.pi, 2 * np.pi) - np.pi
        assert np.max(np.abs(d)) <= 1e-8


def test_trace_path_validates_direction(fourier6):
    with pytest.raises(ValueError):
        trace_path(fourier6, [1.0, 0.0], steps=1, h=1e-2)
    with pytest.raises(ValueError):
        trace_path(fourier6, [0.0, 0.0, 0.0, 0.0], steps=1, h=1e-2)


@pytest.mark.parametrize("h, direction", [
    (0.0, [1.0, 0.0, 0.0, 0.0]),
    (-1e-2, [1.0, 0.0, 0.0, 0.0]),
    (np.nan, [1.0, 0.0, 0.0, 0.0]),
    (np.inf, [1.0, 0.0, 0.0, 0.0]),
    (1e-2, [np.nan, 0.0, 0.0, 0.0]),
    (1e-2, [np.inf, 0.0, 0.0, 0.0]),
])
def test_trace_path_refuses_step_without_progress_guard(fourier6_swapped, h, direction):
    # the guard wants consecutive points h/2 apart: h <= 0 or a non-finite
    # predictor would make it vacuous or turn bad input into a corrector failure
    with pytest.raises(ValueError, match="finite"):
        trace_path(fourier6_swapped, direction, steps=3, h=h)


def test_sample_family_single(fourier6):
    sample = sample_family(fourier6, count=1, seed=0)
    assert len(sample.points) == 1
    assert sample.points[0] is fourier6


def test_sample_family_deterministic(fourier6_swapped):
    s1 = sample_family(fourier6_swapped, count=12, seed=99)
    s2 = sample_family(fourier6_swapped, count=12, seed=99)
    assert len(s1.points) == len(s2.points) == 12
    for a, b in zip(s1.points, s2.points):
        assert np.array_equal(a.phases, b.phases)


def test_seeded_walks_are_bit_equal(fourier6_swapped):
    # a trace and a sample, run twice: points, residuals and metadata alike
    walks = [(trace_path(fourier6_swapped, [0.0, 1.0, 0.0, 0.0], steps=20, h=1e-2),
              sample_family(fourier6_swapped, count=30, seed=7)) for _ in range(2)]
    (p1, s1), (p2, s2) = walks
    for a, b in ((p1.points, p2.points), (s1.points, s2.points)):
        assert [h.phases.tobytes() for h in a] == [h.phases.tobytes() for h in b]
    assert p1.residuals == p2.residuals and p1.final_frame.tobytes() == p2.final_frame.tobytes()
    assert s1.metadata == s2.metadata


def test_every_walk_point_meets_the_corrector_tolerance(fourier6_swapped):
    # each trace step and sample move is a corrected point: ||c|| <= CORRECTOR_TOL,
    # and a trace records that norm, from the c the Jacobian's builder takes too
    path = trace_path(fourier6_swapped, [0.0, 0.0, 0.0, 1.0], steps=30, h=2e-2)
    sample = sample_family(fourier6_swapped, count=60, seed=11, step_scale=2e-2)
    assert path.ok and len(sample.points) == 60
    for h in path.points + sample.points:
        assert np.linalg.norm(phase_constraints(h)[0]) <= continuation.CORRECTOR_TOL
    for h, r in zip(path.points[1:], path.residuals[1:]):
        assert r == np.linalg.norm(phase_constraints(h)[0])
    assert sample.metadata["corrector_fallbacks"] == 0


def _loop_sample_family(start, count, seed, step_scale):
    """Reference: the sample walk keying one move at a time.  Returns the
    points, the metadata counts and the final state of its generator."""
    rng = np.random.default_rng(seed)
    points = [start]
    seen = {_canonical_phases(start, full=False)[0]}
    frame, pinv = tangent_frame(start)
    current, failures, fallbacks, duplicates = start, 0, 0, 0
    for _ in range(10 * count):
        if len(points) == count:
            break
        result, tries_failed, fell_back = continuation._corrected_step(
            current, pinv, step_scale, lambda s: frame @ (s * rng.standard_normal(4)), 0.0)
        failures += tries_failed
        fallbacks += fell_back
        if result is None:
            failures += 1
            continue
        try:
            frame, pinv = tangent_frame(result.point, prev=frame, jacobian=result.jacobian)
        except ValueError:
            failures += 1
            continue
        current = result.point
        key = _canonical_phases(current, full=False)[0]
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        points.append(current)
    counts = {"corrector_retries": failures, "corrector_fallbacks": fallbacks, "duplicates_skipped": duplicates}
    return points, counts, rng.bit_generator.state


@pytest.mark.parametrize("count, seed, step_scale", [
    (10, 3, 1e-8),  # moves below the key grid: nearly all duplicates, the move cap hit inside a batch
    (25, 3, 3e-7),  # some duplicates
    (20, 5, 4.0),   # failed tries and chords that fall back to Gauss-Newton
])
def test_batched_sample_keys_match_one_key_per_move(fourier6_swapped, monkeypatch, count, seed, step_scale):
    points, counts, state = _loop_sample_family(fourier6_swapped, count, seed, step_scale)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
    sample = sample_family(fourier6_swapped, count, seed, step_scale)
    assert [h.phases.tobytes() for h in sample.points] == [h.phases.tobytes() for h in points]
    assert {k: sample.metadata[k] for k in counts} == counts
    assert len(made) == 1 and made[0].bit_generator.state == state
    assert counts["duplicates_skipped" if step_scale < 1 else "corrector_retries"] > 0


def test_sample_family_validity(family_sample):
    for h in family_sample.points:
        assert h.unitarity_residual() <= 1e-9
    assert family_sample.metadata["max_residual"] <= 1e-10


def test_sample_family_500_spans_positive_volume(fourier6_swapped):
    sample = sample_family(fourier6_swapped, count=500, seed=42)
    assert len(sample.points) >= 450
    for h in sample.points:
        assert h.unitarity_residual() <= 1e-9
    us = dumped_invariants(sample.points)
    # pairwise-distinct invariant vectors
    keys = {tuple(np.round(u, 12)) for u in us}
    assert len(keys) == len(us)
    extent = us.max(axis=0) - us.min(axis=0)
    assert np.all(extent > 0.0)


def test_trace_invariants_vary_continuously(fourier6_swapped):
    result = trace_path(fourier6_swapped, [0.0, 1.0, 0.0, 0.0], steps=25, h=1e-2)
    assert result.ok
    # the empirical constant bounds per-step invariant motion
    assert 0 < invariant_step_bound(result, 1e-2) < 100.0


def test_family_invariants_match_restriction(family_sample):
    h = family_sample.points[3]
    c = from_hadamard(h)
    vec = u_invariants(c.p[0] + c.p[1] + c.p[2], *c.q[:3])
    assert np.array_equal(dumped_invariants([h])[0], u_array(vec))


def test_invariants_only_in_family_dump(fourier6_swapped, monkeypatch):
    paths = [trace_path(fourier6_swapped, np.eye(4)[k], steps=20, h=1e-2) for k in range(4)]
    sample = sample_family(fourier6_swapped, count=12, seed=5)

    def refuse(h):
        raise AssertionError("restriction invariants computed outside the family dump")

    monkeypatch.setattr(continuation, "_restriction_invariants", refuse)
    for k, path in enumerate(paths):
        again = trace_path(fourier6_swapped, np.eye(4)[k], steps=20, h=1e-2)
        assert again.status == path.status == "ok"
        assert all(np.array_equal(a.phases, b.phases) for a, b in zip(again.points, path.points))
    again = sample_family(fourier6_swapped, count=12, seed=5)
    assert len(again.points) == len(sample.points) == 12
    assert all(np.array_equal(a.phases, b.phases) for a, b in zip(again.points, sample.points))
    callers = {f.name for f in ast.walk(ast.parse(inspect.getsource(continuation)))
               if isinstance(f, ast.FunctionDef)
               and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_restriction_invariants"
                       for c in ast.walk(f))}
    assert callers == {"family_jsonl_records"}


def test_canonical_reduce_column_swap(fourier6):
    u = fourier6.reconstruct()
    swapped = HadamardPoint(6, np.angle(np.sqrt(6) * u[:, [0, 1, 3, 2, 4, 5]][1:, 1:]))
    reduced = canonical_reduce([fourier6, swapped])
    assert len(reduced) == 1


def test_canonical_reduce_first_column_swap_needs_full(fourier6):
    u = fourier6.reconstruct()[:, [1, 0, 2, 3, 4, 5]]
    # re-dephase after moving column 1
    col = u[0, :] / np.abs(u[0, :])
    u = u / col[None, :]
    row = u[:, 0] / np.abs(u[:, 0])
    u = u / row[:, None]
    moved = HadamardPoint(6, np.angle(np.sqrt(6) * u[1:, 1:]))
    assert len(canonical_reduce([fourier6, moved], full=True)) == 1


def test_canonical_reduce_phase_gauge(fourier6):
    # changing basis phases re-dephases to the same point
    u = fourier6.reconstruct()
    dr = np.exp(1j * np.linspace(0.1, 0.6, 6))
    dc = np.exp(1j * np.linspace(-0.3, 0.4, 6))
    v = dr[:, None] * u * dc[None, :]
    col = v[0, :] / np.abs(v[0, :])
    v = v / col[None, :]
    row = v[:, 0] / np.abs(v[:, 0])
    v = v / row[:, None]
    shifted = HadamardPoint(6, np.angle(np.sqrt(6) * v[1:, 1:]))
    assert len(canonical_reduce([fourier6, shifted])) == 1


def _loop_canonical_phases(h, full):
    """Reference: the canonical key searched one column permutation at a time."""
    n = h.n
    u = h.reconstruct()
    pivots = [(r, c) for r in range(n) for c in range(n)] if full else [(0, 0)]
    best_key = best_ph = None
    for r, c in pivots:
        row_order = [r] + [i for i in range(n) if i != r]
        col_order = [c] + [j for j in range(n) if j != c]
        ph = dephased_phases(u[np.ix_(row_order, col_order)])
        rounded = _key_grid(ph)
        for cperm in itertools.permutations(range(n - 1)):
            cand = rounded[:, cperm]
            rperm = sorted(range(n - 1), key=lambda i: tuple(cand[i]))
            key = tuple(tuple(cand[i]) for i in rperm)
            if best_key is None or key < best_key:
                best_key, best_ph = key, ph[np.ix_(rperm, cperm)]
    return best_key, best_ph


def test_canonical_key_matches_permutation_loop(fourier6, family_sample):
    # keys and realising phases are equal, ties included: F6 and F8 have
    # many least permutations (the first in itertools order must win), and
    # phase blocks drawn from three values tie within rows and columns (the
    # key needs no unitarity); n = 8 searches 5040 permutations in blocks
    rng = np.random.default_rng(34)
    tied = [HadamardPoint(n, rng.choice([-2.0, 0.0, 1.0], (n - 1, n - 1))) for n in (6, 6, 8)]
    cases = [(h, False) for h in [fourier6, fourier_phases(3), fourier_phases(8)] + tied
             + family_sample.points]
    cases += [(h, True) for h in [fourier6, tied[0], family_sample.points[7]]]
    for h, full in cases:
        key, ph = _canonical_phases(h, full)
        key_ref, ph_ref = _loop_canonical_phases(h, full)
        assert key == key_ref
        assert np.array_equal(ph, ph_ref)


def _near_pi(ph):
    return np.abs(np.abs(ph) - np.pi) <= 1e-6


def test_canonical_reduce_phase_at_minus_pi(fourier6):
    # F6 has five phases at pi; the twin writes them as -pi + 1e-12, a torus
    # distance of 1e-12, on the other side of the branch cut of np.angle
    ph = fourier6.phases.copy()
    assert np.count_nonzero(_near_pi(ph)) == 5
    ph[_near_pi(ph)] = -np.pi + 1e-12
    twin = HadamardPoint(6, ph)
    assert np.all(twin.phases[_near_pi(ph)] < 0)
    for full in (False, True):
        assert len(canonical_reduce([fourier6, twin], full=full)) == 1


# Property tests: fixed example streams, so the suite stays deterministic.
_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


@_PROPERTY_SETTINGS
@given(index=st.integers(0, 39), rows=st.permutations(range(1, 6)),
       cols=st.permutations(range(1, 6)),
       gauge=st.lists(st.floats(-np.pi, np.pi), min_size=12, max_size=12))
def test_canonical_key_invariant_under_permutation_and_dephasing(
        family_sample, fourier6, index, rows, cols, gauge):
    h = ([fourier6] + family_sample.points)[index]
    u = h.reconstruct()[np.ix_([0] + rows, [0] + cols)]
    u = np.exp(1j * np.array(gauge[:6]))[:, None] * u * np.exp(1j * np.array(gauge[6:]))
    moved = HadamardPoint(6, dephased_phases(u))
    assert _canonical_phases(moved, full=False)[0] == _canonical_phases(h, full=False)[0]


@_PROPERTY_SETTINGS
@given(swap34=st.booleans(), rows=st.permutations(range(5)), cols=st.permutations(range(5)),
       offsets=st.lists(st.floats(-1e-9, 1e-9), min_size=5, max_size=5), full=st.booleans())
def test_canonical_key_not_split_at_pi(swap34, rows, cols, offsets, full):
    # the phases at pi move by up to 1e-9 either way, so each lands just
    # below pi or just above -pi; the key must not tell them apart
    base = HadamardPoint(6, fourier_phases(6, swap34).phases[np.ix_(rows, cols)])
    ph = base.phases.copy()
    ph[_near_pi(ph)] += offsets
    moved = HadamardPoint(6, ph)
    assert _canonical_phases(moved, full)[0] == _canonical_phases(base, full)[0]


def test_canonical_reduce_idempotent(family_sample):
    pts = family_sample.points[:5]
    once = canonical_reduce(pts)
    twice = canonical_reduce(once)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        assert np.allclose(a.phases, b.phases, atol=1e-12)


def _on_gate(h, direction, gate):
    """Points on the ray h + t direction whose unitarity residuals bracket
    ``gate``: (just below, just above), by bisection on t."""
    lo, hi = 0.0, 1.0
    while HadamardPoint(h.n, h.phases + hi * direction).unitarity_residual() <= gate:
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        if HadamardPoint(h.n, h.phases + mid * direction).unitarity_residual() <= gate:
            lo = mid
        else:
            hi = mid
    return tuple(HadamardPoint(h.n, h.phases + t * direction) for t in (lo, hi))


@pytest.mark.parametrize("gate", [UNITARITY_TOL, 0.5])
def test_unitarity_screen_keeps_the_spectral_verdict(fourier6, gate):
    # the Frobenius norm exceeds the gate on both sides, so the screen cannot
    # decide and the spectral norm does, just below and just above the gate
    direction = np.random.default_rng(41).standard_normal((5, 5))
    below, above = _on_gate(fourier6, direction, gate)
    for h in (below, above):
        u = h.reconstruct()
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) > gate
    assert below.unitarity_residual() <= gate < above.unitarity_residual()
    assert below.unitarity_violation(gate) is None
    assert above.unitarity_violation(gate) == above.unitarity_residual()
    if gate == UNITARITY_TOL:
        assert np.array_equal(below.unitary(), below.reconstruct())
        with pytest.raises(ValueError, match="do not reconstruct to a unitary"):
            above.unitary()
    else:
        assert isinstance(newton_correct(below), continuation.CorrectorResult)
        with pytest.raises(linalg.OffVariety, match="starting residual above 0.5") as info:
            newton_correct(above)
        assert info.value.residual == above.unitarity_residual()


def test_canonical_key_refuses_n11_before_any_permutation(monkeypatch):
    enumerated = []
    monkeypatch.setattr(continuation, "permutations", lambda *a: enumerated.append(a))
    h = fourier_phases(11)
    for full in (False, True):
        with pytest.raises(ValueError, match="up to n = 10"):
            canonical_reduce([h], full=full)
    assert enumerated == []


def test_jsonl_records(tmp_path, fourier6_swapped):
    result = trace_path(fourier6_swapped, [1.0, 0.0, 0.0, 0.0], steps=3, h=1e-2)
    path = tmp_path / "family.jsonl"
    write_family_jsonl(path, result.points, result.residuals, path_id=2)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert set(rec) == {"phases", "residual", "invariants", "step", "path"}
    assert rec["path"] == 2
    assert rec["step"] == 0
    assert len(rec["phases"]) == 5
    records = list(family_jsonl_records(result.points, result.residuals, path_id=2))
    assert records[1]["step"] == 1


def _loop_records(points, residuals=None, path_id=0):
    """Reference: the family dump one point at a time, each point gated by
    HadamardPoint.unitary, its projectors from np.vdot and np.outer and its
    invariants from u_invariants."""
    for k, h in enumerate(points):
        res = residuals[k] if residuals is not None else h.unitarity_residual()
        u = h.unitary()
        qs = []
        for j in range(3):
            p = np.outer(u[:, j], u[:, j].conj()) / np.vdot(u[:, j], u[:, j]).real
            qs.append((p + p.conj().T) / 2.0)
        inv = u_invariants(np.diag((np.arange(h.n) < 3).astype(np.complex128)), *qs)
        yield {
            "phases": [[float(x) for x in row] for row in h.phases],
            "residual": float(res),
            "invariants": {"u1": inv.u1, "u2": inv.u2, "u3": inv.u3, "imag_residue": inv.imag_residue},
            "step": k,
            "path": path_id,
        }


def test_batched_records_equal_per_point_records(fourier6_swapped):
    # the dump of a 50-step trace and of a 100-point sample, byte for byte
    path = trace_path(fourier6_swapped, [0.0, 0.0, -1.0, 0.0], steps=50, h=1e-2)
    sample = sample_family(fourier6_swapped, count=100, seed=42)
    assert path.ok and len(path.points) == 51 and len(sample.points) == 100
    for points, residuals in ((path.points, path.residuals), (path.points, None), (sample.points, None)):
        got = [json.dumps(rec) for rec in family_jsonl_records(points, residuals, path_id=3)]
        assert got == [json.dumps(rec) for rec in _loop_records(points, residuals, path_id=3)]
    assert sample.metadata["max_residual"] == max(h.unitarity_residual() for h in sample.points)
    assert list(family_jsonl_records([])) == []


def test_batched_records_refuse_the_first_point_off_the_variety(tmp_path, fourier6_swapped):
    # the later point is further off the variety, but the first one is refused
    rng = np.random.default_rng(45)
    good = [fourier6_swapped, HadamardPoint(6, fourier6_swapped.phases + 1e-12 * rng.standard_normal((5, 5)))]
    near, far = (HadamardPoint(6, fourier6_swapped.phases + d * rng.standard_normal((5, 5))) for d in (1e-4, 1e-1))
    assert UNITARITY_TOL < near.unitarity_residual() < far.unitarity_residual()
    points = good + [near, fourier6_swapped, far]
    with pytest.raises(linalg.OffVariety) as info:
        near.unitary()
    path = tmp_path / "family.jsonl"
    write_family_jsonl(path, good)
    before = path.read_bytes()
    for append in (False, True):
        with pytest.raises(linalg.OffVariety) as got:
            write_family_jsonl(path, points, append=append)
        assert str(got.value) == str(info.value)
        assert got.value.residual == near.unitarity_residual()
        assert path.read_bytes() == before


def test_fresh_writes_leave_a_prior_file_when_the_rename_fails(tmp_path, monkeypatch, fourier6_swapped):
    # a fresh dump and a JSON file are written to a temporary file and renamed
    path = tmp_path / "out"
    path.write_bytes(b"prior\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    for write in (lambda: write_family_jsonl(path, [fourier6_swapped]),
                  lambda: config.save_hadamard(path, fourier6_swapped)):
        with pytest.raises(OSError, match="rename refused"):
            write()
        assert path.read_bytes() == b"prior\n"
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left


def test_batched_keys_match_permutation_loop(fourier6):
    # one key kernel for a mixed-n list, chunks of candidates straddling
    # points (full=True at n = 6 is 36 candidates a point), ties and n = 1
    rng = np.random.default_rng(46)
    fourier = [fourier_phases(n) for n in range(2, 9)]
    tied = [HadamardPoint(n, rng.choice([-2.0, 0.0, 1.0], (n - 1, n - 1))) for n in (3, 5, 6, 6, 7)]
    mixed = fourier + tied + [HadamardPoint(1, np.zeros((0, 0)))] + fourier[2::-1]
    for points, full in ((mixed, False), ([h for h in mixed if h.n <= 6] + [fourier6] * 2, True)):
        keys = continuation._canonical_keys(points, full)
        assert len(keys) == len(points)
        for h, (key, ph) in zip(points, keys):
            key_ref, ph_ref = _loop_canonical_phases(h, full)
            assert key == key_ref
            assert ph.shape == ph_ref.shape and ph.tobytes() == ph_ref.tobytes()
        reduced = canonical_reduce(points, full)
        assert len(reduced) == len(set(key for key, _ in keys))


def test_jsonl_refuses_nonunitary_point(tmp_path):
    rng = np.random.default_rng(27)
    bad = HadamardPoint(6, rng.uniform(-3, 3, (5, 5)))
    assert bad.unitarity_residual() > 1e-8
    with pytest.raises(ValueError, match="unitary"):
        write_family_jsonl(tmp_path / "bad.jsonl", [bad])
    assert not (tmp_path / "bad.jsonl").exists()
    # a refused point leaves an existing file byte-identical in both modes
    good = fourier_phases(6, swap34=True)
    path = tmp_path / "family.jsonl"
    write_family_jsonl(path, [good])
    before = path.read_bytes()
    assert len(before.splitlines()) == 1
    for append in (False, True):
        with pytest.raises(ValueError, match="unitary"):
            write_family_jsonl(path, [good, bad], append=append)
        assert path.read_bytes() == before
