import ast
import inspect
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopair import continuation
from orthopair.config import (
    HadamardPoint,
    dephased_phases,
    fourier_phases,
    from_hadamard,
    is_complex_hadamard,
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
    frame = tangent_frame(fourier6)
    assert frame.shape == (25, 4)
    _, J = phase_constraints(fourier6)
    for k in range(4):
        assert np.linalg.norm(J @ frame[:, k]) <= 1e-8
    gram = frame.T @ frame
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_tangent_frame_subspace_stable_under_alignment(fourier6):
    rng = np.random.default_rng(27)
    frame = tangent_frame(fourier6)
    rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    aligned = tangent_frame(fourier6, prev=frame @ rot)
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
    frame = tangent_frame(fourier6)
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
        ok, res = is_complex_hadamard(result.point.reconstruct(), 1e-9)
        assert ok, res
    else:
        assert result.residual > 1e-12  # flagged, not silently wrong


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


def test_sample_family_validity(family_sample):
    for h in family_sample.points:
        ok, res = is_complex_hadamard(h.reconstruct(), 1e-9)
        assert ok, res
    assert family_sample.metadata["max_residual"] <= 1e-10


def test_sample_family_500_spans_positive_volume(fourier6_swapped):
    sample = sample_family(fourier6_swapped, count=500, seed=42)
    assert len(sample.points) >= 450
    for h in sample.points:
        ok, res = is_complex_hadamard(h.reconstruct(), 1e-9)
        assert ok, res
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
    assert np.array_equal(dumped_invariants([h])[0], vec.as_array())


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
