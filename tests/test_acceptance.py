"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import U1_AFFINE, U2_AFFINE, sigma, tau, theta, u_array
from orthopair import exact
from orthopair.cli import OK, main
from orthopair.config import (
    from_hadamard,
    fourier_phases,
    standard_pair,
)
from orthopair.continuation import sample_family, trace_path
from orthopair.invariants import (
    Membership,
    identity_check,
    membership_test,
    solve_complement,
    u_invariants,
)
from orthopair.relations import graph_restriction, restrict
from orthopair.tangent import (
    defect_report,
    fiber_rank_check,
    moduli_tangent_report,
)

SAMPLE_SEED = 424242


def report(number, ok, detail):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def base_hadamard():
    return fourier_phases(6, swap34=True)


@pytest.fixture(scope="module")
def samples100(base_hadamard):
    sample = sample_family(base_hadamard, count=100, seed=SAMPLE_SEED)
    return sample


@pytest.fixture(scope="module")
def traces(base_hadamard):
    runs = []
    for k in range(4):
        direction = np.zeros(4)
        direction[k] = 1.0
        runs.append(trace_path(base_hadamard, direction, steps=50, h=1e-2))
    return runs


def test_criterion_01_standard_pair_validity(tmp_path, capsys):
    t0 = time.perf_counter()
    pair_path = str(tmp_path / "pair.json")
    assert main(["standard-pair", "--n", "6", "--out", pair_path]) == OK
    assert main(["verify", pair_path, "--tol", "1e-12"]) == OK
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    c = standard_pair(6)
    worst = max(abs(np.trace(p @ q) - 1.0 / 6.0) for p in c.p for q in c.q)
    ok = worst <= 1e-13 and elapsed < 0.1
    report(1, ok, f"verify at 1e-12 passed; max |Tr pq - 1/6| = {worst:.2e} "
                  f"(<= 1e-13); runtime {elapsed * 1e3:.0f} ms (< 100 ms)")


def test_criterion_02_tangent_dimension_at_base_point():
    results = []
    for swap in (True, False):
        t0 = time.perf_counter()
        rep = moduli_tangent_report(standard_pair(6, swap34=swap))
        elapsed = time.perf_counter() - t0
        results.append((swap, rep, elapsed))
    ok = all(rep.moduli_dim == 4 and rep.gap_ratio >= 1e3 and dt < 30.0
             for _, rep, dt in results)
    detail = "; ".join(
        f"swap34={swap}: dim {rep.moduli_dim}, gap {rep.gap_ratio:.1e}, {dt:.1f}s"
        for swap, rep, dt in results)
    report(2, ok, detail)


def test_criterion_03_dephased_defect():
    t0 = time.perf_counter()
    rep = defect_report(fourier_phases(6))
    elapsed = time.perf_counter() - t0
    ok = rep.moduli_dim == 4 and elapsed < 1.0
    report(3, ok, f"defect(F6) = {rep.moduli_dim} (want 4), gap {rep.gap_ratio:.1e}, "
                  f"{elapsed * 1e3:.0f} ms (< 1 s)")


def test_criterion_04_a6_moduli_dimension():
    t0 = time.perf_counter()
    rep = moduli_tangent_report(restrict(standard_pair(6, swap34=True), [1, 2, 3]))
    elapsed = time.perf_counter() - t0
    ok = rep.moduli_dim == 8 and elapsed < 30.0
    report(4, ok, f"partial-sum point moduli dim = {rep.moduli_dim} (want 8, "
                  f"= 2(n-k-1)(k-1) at n=6, k=3), {elapsed:.1f}s (< 30 s)")


def test_criterion_05_x33_dimension_and_fibration(samples100):
    base_pair = standard_pair(6, swap34=True)
    dim = moduli_tangent_report(graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])).moduli_dim
    ranks = []
    flagged = 0
    for h in samples100.points[1:51]:
        point = graph_restriction(from_hadamard(h), [1, 2, 3], [1, 2, 3])
        rep = fiber_rank_check(point)
        ranks.append(rep.rank)
        if rep.rank < 3 or rep.degenerate_u3:
            flagged += 1
    frac = ranks.count(3) / len(ranks)
    ok = dim == 4 and frac >= 0.9
    report(5, ok, f"x33 moduli dim = {dim} (want 4); fiber rank 3 at "
                  f"{100 * frac:.0f}% of 50 samples (want >= 90%), {flagged} drops flagged")


def test_criterion_06_family_witness(traces):
    t0 = time.perf_counter()
    total_requested = sum(r.requested_steps for r in traces)
    total_done = sum(r.completed_steps for r in traces)
    points = [p for r in traces for p in r.points]
    hadamard_ok = 0
    membership_ok = 0
    for h in points:
        hadamard_ok += h.unitarity_residual() <= 1e-9
        mem = membership_test(from_hadamard(h))
        membership_ok += mem.status is Membership.REAL_LOCUS
    us = np.array([u_array(u_invariants(
        (c := from_hadamard(h)).p[0] + c.p[1] + c.p[2], *c.q[:3]))
        for h in points])
    extent = us.max(axis=0) - us.min(axis=0)
    elapsed = time.perf_counter() - t0
    ok = (total_done >= 0.95 * total_requested
          and hadamard_ok == len(points)
          and membership_ok == len(points)
          and np.all(extent > 1e-4)
          and elapsed < 300.0)
    report(6, ok, f"{total_done}/{total_requested} steps succeeded; "
                  f"{hadamard_ok}/{len(points)} Hadamard at 1e-9; "
                  f"{membership_ok}/{len(points)} on real locus; "
                  f"u-extent ({extent[0]:.3f}, {extent[1]:.3f}, {extent[2]:.3f}) "
                  f"all > 1e-4; {elapsed:.0f}s (< 300 s)")


def test_criterion_07_identity_verification(samples100):
    rng = np.random.default_rng(7)
    subsets = list(itertools.combinations(range(1, 7), 3))
    worst = 0.0
    checks = 0
    for h in samples100.points:
        c = from_hadamard(h)
        pairs = [((1, 2, 3), (1, 2, 3))]
        pairs += [(subsets[rng.integers(len(subsets))], subsets[rng.integers(len(subsets))])
                  for _ in range(4)]
        for sp, sq in pairs:
            rep = identity_check([c.p[i - 1] for i in sp], [c.q[j - 1] for j in sq])
            worst = max(worst, rep.gap)
            checks += 1
    # exact-arithmetic oracle at the base point's Fourier sub-triples
    exact_ok = all(exact.identity_sides(pa, qc) [0] == exact.identity_sides(pa, qc)[1]
                   for pa in itertools.combinations(range(6), 3)
                   for qc in itertools.combinations(range(6), 3))
    ok = worst <= 1e-9 and exact_ok
    report(7, ok, f"identity gap <= {worst:.2e} over {checks} sub-triple pairs of 100 "
                  f"samples (want <= 1e-9); exact oracle gap = 0 at all Fourier sub-triples")


def test_criterion_08_complement_solvability(samples100):
    base_pair = standard_pair(6, swap34=True)
    trivial_ok = True
    for subset, want_axes in (((1, 2, 3), {3, 4, 5}), ((4, 5, 6), {0, 1, 2})):
        P = sum(base_pair.p[i - 1] for i in subset)
        res = solve_complement(P, list(base_pair.q), seed=SAMPLE_SEED)
        got_axes = set()
        if not (res.success and res.residual <= 1e-9):
            trivial_ok = False
            continue
        for t in res.triple:
            got_axes.add(int(np.argmax(np.real(np.diag(t)))))
            if np.max(np.abs(t - np.diag(np.diag(t)))) > 1e-9:
                trivial_ok = False
        trivial_ok = trivial_ok and got_axes == want_axes
    successes = 0
    worst = 0.0
    for k, h in enumerate(samples100.points):
        c = from_hadamard(h)
        P = c.p[0] + c.p[1] + c.p[2]
        res = solve_complement(P, list(c.q), seed=SAMPLE_SEED + k)
        if res.success and res.residual <= 1e-9:
            successes += 1
        else:
            worst = max(worst, res.residual)
    ok = trivial_ok and successes >= 95
    detail = (f"complement solved on {successes}/100 samples (want >= 95), "
              f"both trivial complements at the base point recovered exactly")
    if successes < 100:
        detail += f"; worst failed residual {worst:.2e}"
    report(8, ok, detail)


def test_criterion_09_property_suites(samples100):
    base_pair = standard_pair(6, swap34=True)
    P = base_pair.p[0] + base_pair.p[1] + base_pair.p[2]
    inv_ok = (np.array_equal(sigma(sigma(P)), P)
              and tau(tau(base_pair)).p is base_pair.p
              and all(np.array_equal(a, b) for a, b in
                      zip(theta(theta(base_pair)).matrices(), base_pair.matrices())))
    perm_ok = True
    base = u_array(u_invariants(P, *base_pair.q[:3]))
    for perm in itertools.permutations(range(3)):
        got = u_array(u_invariants(P, base_pair.q[perm[0]], base_pair.q[perm[1]], base_pair.q[perm[2]]))
        perm_ok = perm_ok and np.max(np.abs(got - base)) <= 1e-12
    a1, b1 = exact.fit_u1_constants()
    a2, b2, c2 = exact.fit_u2_constants()
    const_ok = (float(a1), float(b1)) == U1_AFFINE and (float(a2), float(b2), float(c2)) == U2_AFFINE
    worst1 = worst2 = 0.0
    for h in samples100.points:
        c = from_hadamard(h)
        Pc = c.p[0] + c.p[1] + c.p[2]
        Qc = c.q[0] + c.q[1] + c.q[2]
        vec = u_invariants(Pc, *c.q[:3])
        t4 = np.trace(Pc @ Qc @ Pc @ Qc).real
        t6 = np.trace(Pc @ Qc @ Pc @ Qc @ Pc @ Qc).real
        worst1 = max(worst1, abs(vec.u1 - (U1_AFFINE[0] * 36.0 * t4 + U1_AFFINE[1])))
        worst2 = max(worst2, abs(vec.u2 - (U2_AFFINE[0] * t6 + U2_AFFINE[1] * t4 + U2_AFFINE[2])))
    ok = inv_ok and perm_ok and const_ok and worst1 <= 1e-9 and worst2 <= 1e-9
    report(9, ok, f"involutions square to identity; u invariants S3xS3-symmetric; "
                  f"u1 affine fit residual {worst1:.2e}, u2 three-term fit residual "
                  f"{worst2:.2e} over 100 samples (want <= 1e-9), constants fixed by exact oracle")


def test_criterion_10_rigidity_controls():
    dim3 = moduli_tangent_report(standard_pair(3)).moduli_dim
    defect2 = defect_report(fourier_phases(2)).moduli_dim
    ok = dim3 == 0 and defect2 == 0
    report(10, ok, f"moduli dim at n=3 = {dim3} (want 0), defect(F2) = {defect2} "
                   f"(want 0): the nullity rule does not inflate dimensions")
