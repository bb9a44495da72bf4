import functools
import itertools

import numpy as np
import pytest

from conftest import (
    U1_AFFINE,
    U2_AFFINE,
    bent_rank1,
    conjugated_hermitian_pair,
    random_invertible,
    random_unitary,
    sigma,
    tau,
    theta,
    u_array,
)
from orthopair import exact, invariants, relations
from orthopair.config import from_hadamard, pair_from_matrices, standard_pair
from orthopair.invariants import (
    Membership,
    identity_check,
    membership_test,
    solve_complement,
    u_invariants,
    u_invariants_directional,
    z_functions,
)
from orthopair.linalg import OffVariety, decide_rank
from orthopair.relations import commutant_dimension


def triple_P(c, idx=(1, 2, 3)):
    return sum(c.p[i - 1] for i in idx)


# ---------------------------------------------------------------------------
# u and z values against the exact oracle.
# ---------------------------------------------------------------------------


def test_u_values_standard_pair(standard6):
    P = triple_P(standard6)
    vec = u_invariants(P, *standard6.q[:3])
    want = exact.u_for_columns([0, 1, 2])
    assert abs(vec.u1 - float(want[0])) <= 1e-12
    assert abs(vec.u2 - float(want[1])) <= 1e-12
    assert abs(vec.u3 - float(want[2])) <= 1e-12
    assert (vec.u1, vec.u2, vec.u3) == pytest.approx((8.0, 0.0, -9.0), abs=1e-12)
    assert vec.imag_residue <= 1e-13
    assert vec.imag_residue <= 1e-10


def test_u_values_column_gap_three(standard6):
    P = triple_P(standard6)
    vec = u_invariants(P, standard6.q[0], standard6.q[1], standard6.q[3])
    want = exact.u_for_columns([0, 1, 3])
    assert abs(vec.u3 - float(want[2])) <= 1e-12
    assert vec.u3 == pytest.approx(0.0, abs=1e-12)
    assert vec.u1 == pytest.approx(5.0, abs=1e-12)


def test_u_values_swapped_base_point(base_pair):
    P = triple_P(base_pair)
    vec = u_invariants(P, *base_pair.q[:3])
    # swapped q-system: columns (1, 2, 4) of the Fourier matrix
    want = exact.u_for_columns([0, 1, 3])
    assert np.allclose(u_array(vec), [float(w) for w in want], atol=1e-12)


def test_u_symmetric_under_q_permutations(standard6, family_sample):
    P = triple_P(standard6)
    qs = standard6.q[:3]
    base = u_array(u_invariants(P, *qs))
    for perm in itertools.permutations(range(3)):
        got = u_array(u_invariants(P, qs[perm[0]], qs[perm[1]], qs[perm[2]]))
        assert np.max(np.abs(got - base)) <= 1e-12
    # invariant under conjugation, so the differential vanishes on the orbit
    # directions ([xi, P], [xi, q_i]), measured against equally long random ones
    rng = np.random.default_rng(16)
    for h in family_sample.points[1:4]:
        c = from_hadamard(h)
        gens = [triple_P(c), *c.q[:3]]
        base = u_array(u_invariants(*gens))
        g = random_invertible(rng, 6)
        ginv = np.linalg.inv(g)
        got = u_array(u_invariants(*(g @ m @ ginv for m in gens)))
        assert np.max(np.abs(got - base)) <= 1e-10 * max(1.0, np.max(np.abs(base)))
        xi = rng.standard_normal((6, 6, 8)) + 1j * rng.standard_normal((6, 6, 8))
        orbit = np.stack([np.einsum("abk,bc->ack", xi, m) - np.einsum("ab,bck->ack", m, xi) for m in gens])
        noise = rng.standard_normal(orbit.shape) + 1j * rng.standard_normal(orbit.shape)
        noise *= np.linalg.norm(orbit.reshape(-1, 8), axis=0) / np.linalg.norm(noise.reshape(-1, 8), axis=0)
        d_orbit = u_invariants_directional(gens[0], gens[1:], orbit[0], orbit[1:])
        d_noise = u_invariants_directional(gens[0], gens[1:], noise[0], noise[1:])
        assert np.all(np.max(np.abs(d_orbit), axis=1) <= 1e-10 * np.max(np.abs(d_noise), axis=1))


def test_z_functions(base_pair):
    P = triple_P(base_pair)
    z1, z2 = z_functions(P, list(base_pair.q))
    assert z1 == pytest.approx(1.0 / 9.0, abs=1e-13)
    assert z2 == pytest.approx(1.0 / 9.0, abs=1e-13)
    z1, z2 = z_functions(np.zeros((6, 6)), list(base_pair.q))
    assert z1 == 0.0 and z2 == 0.0


def test_z_conjugation_invariance(base_pair):
    rng = np.random.default_rng(15)
    w = random_unitary(rng, 6)
    P = triple_P(base_pair)
    base = z_functions(P, list(base_pair.q))
    conj = z_functions(w @ P @ w.conj().T, [w @ q @ w.conj().T for q in base_pair.q])
    assert np.allclose(base, conj, atol=1e-12)


# ---------------------------------------------------------------------------
# Involutions.
# ---------------------------------------------------------------------------


def test_sigma_involution_and_complement(base_pair):
    P = triple_P(base_pair)
    assert np.array_equal(sigma(sigma(P)), P)
    s = sigma(P)
    assert np.max(np.abs(s @ s - s)) <= 1e-13
    assert abs(np.trace(s) - 3.0) <= 1e-13


def test_tau_involution(base_pair):
    t = tau(base_pair)
    assert tau(t).p is base_pair.p
    assert t.residual == base_pair.residual
    # invariants relabel: (sum p, q-triple) on c equals (sum q, p-triple) on tau(c)
    v1 = u_array(u_invariants(triple_P(base_pair), *base_pair.q[:3]))
    tt = tau(base_pair)
    v2 = u_array(u_invariants(sum(tt.p[i] for i in range(3)), *tt.q[:3]))
    # tau swaps the systems, so v2 is the u-vector of (sum q, p-triple)
    v3 = u_array(u_invariants(sum(base_pair.q[i] for i in range(3)), *base_pair.p[:3]))
    assert np.array_equal(v2, v3)
    assert v1.shape == v2.shape


def test_theta_involution(base_pair):
    t = theta(base_pair)
    tt = theta(t)
    for a, b in zip(tt.matrices(), base_pair.matrices()):
        assert np.array_equal(a, b)
    assert abs(t.residual - base_pair.residual) <= 1e-12
    # Hermitian configuration is a fixed point
    for a, b in zip(t.matrices(), base_pair.matrices()):
        assert np.max(np.abs(a - b)) <= 1e-15


def test_theta_on_non_hermitian_configuration(base_pair):
    rng = np.random.default_rng(16)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    skew = pair_from_matrices([h @ p @ hinv for p in base_pair.p],
                              [h @ q @ hinv for q in base_pair.q])
    t = theta(skew)
    assert abs(t.residual - skew.residual) <= 1e-10
    back = theta(t)
    for a, b in zip(back.matrices(), skew.matrices()):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The trace identity.
# ---------------------------------------------------------------------------


def test_identity_at_standard_subtriples(standard6):
    rep = identity_check(list(standard6.p[:3]), list(standard6.q[:3]))
    assert rep.gap <= 1e-12
    lhs_exact, rhs_exact = exact.identity_sides((0, 1, 2), (0, 1, 2))
    assert lhs_exact == rhs_exact == 81
    assert rep.lhs == pytest.approx(81.0, abs=1e-10)


def test_identity_at_swapped_subtriples(base_pair):
    rep = identity_check(list(base_pair.p[:3]), list(base_pair.q[:3]))
    assert rep.gap <= 1e-12
    lhs_exact, rhs_exact = exact.identity_sides((0, 1, 2), (0, 1, 3))
    assert lhs_exact == rhs_exact == 0
    assert abs(rep.lhs) <= 1e-10


def test_identity_exact_oracle_all_subtriples():
    cols = list(itertools.combinations(range(6), 3))
    for p_axes in cols:
        for q_cols in cols:
            lhs, rhs = exact.identity_sides(p_axes, q_cols)
            assert lhs == rhs


def test_identity_swap_symmetry(base_pair):
    # exchanging the roles of the triples exchanges lhs and rhs exactly
    rep = identity_check(list(base_pair.p[:3]), list(base_pair.q[:3]))
    rep_swapped = identity_check(list(base_pair.q[:3]), list(base_pair.p[:3]))
    assert rep.lhs == rep_swapped.rhs
    assert rep.rhs == rep_swapped.lhs
    assert rep.gap == rep_swapped.gap


def test_identity_precondition_enforced(standard6):
    with pytest.raises(ValueError):
        identity_check(list(standard6.p[:3]), list(standard6.p[:3]))
    with pytest.raises(ValueError):
        identity_check(list(standard6.p[:2]), list(standard6.q[:3]))
    for n in (3, 4):  # another dimension is an input error, refused before the relation gate
        c = standard_pair(n)
        with pytest.raises(ValueError, match="six-dimensional") as exc:
            identity_check(list(c.p[:3]), list(c.q[:3]))
        assert not isinstance(exc.value, OffVariety)


def test_identity_precondition_reads_relation_terms(standard6, monkeypatch):
    monkeypatch.setattr(invariants, "spectral_norm", None)  # the precondition takes no norm of its own
    assert identity_check(list(standard6.p[:3]), list(standard6.q[:3])).gap <= 1e-12
    qs = [standard6.q[0], standard6.q[1], 2.0 * standard6.q[2]]
    with pytest.raises(ValueError, match="idempotency x5"):
        identity_check(list(standard6.p[:3]), qs)


def test_identity_on_family_samples(family_sample):
    rng = np.random.default_rng(17)
    subsets = list(itertools.combinations(range(1, 7), 3))
    for h in family_sample.points[:15]:
        c = from_hadamard(h)
        for _ in range(4):
            sp = subsets[rng.integers(len(subsets))]
            sq = subsets[rng.integers(len(subsets))]
            rep = identity_check([c.p[i - 1] for i in sp], [c.q[j - 1] for j in sq])
            assert rep.gap <= 1e-9


def _loop_identity_sides(p, q):
    """Both sides of the identity as products over the six ordered pairs."""
    P, Q = sum(p), sum(q)
    lhs = rhs = 1.0 + 0.0j
    for i, j in itertools.permutations(range(3), 2):
        lhs *= 36.0 * np.trace(P @ q[i] @ P @ q[j]) - 1.0
        rhs *= 36.0 * np.trace(Q @ p[i] @ Q @ p[j]) - 1.0
    return lhs, rhs


def _reduce_identity(p, q):
    """identity_check's arithmetic with its products batched by hand: the
    pair words ((P q_i) P) q_j of both sides as three broadcast matmuls."""
    triples = np.stack([*p, *q]).astype(complex).reshape(2, 3, 6, 6)
    sums = (triples[:, 0] + triples[:, 1] + triples[:, 2])[:, None]
    i, j = [0, 0, 1], [1, 2, 2]
    words = sums @ triples[::-1, i] @ sums @ triples[::-1, j]

    def u3_squared(traces):
        f12, f13, f23 = (36.0 * t - 1.0 for t in traces)
        return (f12 * f23 * f13) ** 2

    lhs, rhs = (u3_squared(t) for t in np.trace(words, axis1=2, axis2=3).tolist())
    return lhs.real, rhs.real, abs(lhs - rhs)


def _reduce_trace(*mats):
    return complex(np.trace(functools.reduce(np.matmul, mats)))


def _reduce_directional(P, qs, dP, dqs):
    """u_invariants_directional with every word multiplied out by reduce."""
    gens = [P, *qs]
    G = np.zeros((5, 4, 6, 6), dtype=complex)
    for k, word in enumerate(invariants.U_WORDS):
        for s, g in enumerate(word):
            G[k, g] += functools.reduce(np.matmul, [gens[x] for x in word[s + 1:] + word[:s]]).T
    traces = [_reduce_trace(*(gens[g] for g in word)) for word in invariants.U_WORDS]
    grad = invariants._u_chain(traces) @ G.reshape(5, -1)
    return grad @ np.stack([dP, *dqs]).reshape(grad.shape[1], -1)


def test_word_kernel_paths_match_reduce_references(base_pair, family_sample):
    # identity sides, z functions and the invariant differential, bit for bit,
    # at family points and at a non-unitary conjugate of the base pair
    rng = np.random.default_rng(47)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    conj = pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    subsets = list(itertools.combinations(range(6), 3))
    for c in [base_pair, *(from_hadamard(x) for x in family_sample.points[::4]), conj]:
        for _ in range(2):
            p = [c.p[i] for i in subsets[rng.integers(len(subsets))]]
            q = [c.q[j] for j in subsets[rng.integers(len(subsets))]]
            rep = identity_check(p, q)
            assert (rep.lhs, rep.rhs, rep.gap) == _reduce_identity(p, q)
        P = triple_P(c)
        z = (_reduce_trace(P, c.q[0], P, c.q[1]).real, _reduce_trace(P, c.q[4], P, c.q[5]).real)
        assert z_functions(P, list(c.q)) == z
        d = rng.standard_normal((4, 6, 6, 5)) + 1j * rng.standard_normal((4, 6, 6, 5))
        assert np.array_equal(u_invariants_directional(P, c.q[:3], d[0], d[1:]),
                              _reduce_directional(P, c.q[:3], d[0], d[1:]))


def test_identity_matches_ordered_pair_loop(family_sample):
    # each side is u3 of its triple squared; the loop takes every factor twice
    rng = np.random.default_rng(36)
    subsets = list(itertools.combinations(range(6), 3))
    for h in family_sample.points[:15]:
        c = from_hadamard(h)
        for _ in range(4):
            p = [c.p[i] for i in subsets[rng.integers(len(subsets))]]
            q = [c.q[j] for j in subsets[rng.integers(len(subsets))]]
            rep = identity_check(p, q)
            lhs, rhs = _loop_identity_sides(p, q)
            assert abs(rep.lhs - lhs.real) <= 1e-12 * max(abs(lhs), 1.0)
            assert abs(rep.rhs - rhs.real) <= 1e-12 * max(abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# Complement solver.
# ---------------------------------------------------------------------------


def match_up_to_relabeling(triple, reference, tol):
    used = set()
    for t in triple:
        best = min((k for k in range(3) if k not in used),
                   key=lambda k: np.max(np.abs(t - reference[k])))
        if np.max(np.abs(t - reference[best])) > tol:
            return False
        used.add(best)
    return True


def test_complement_at_base_point(base_pair):
    P = triple_P(base_pair)
    result = solve_complement(P, list(base_pair.q), seed=1)
    assert result.success and result.residual <= 1e-9
    assert match_up_to_relabeling(result.triple, list(base_pair.p[3:]), 1e-9)


def test_complement_other_half(base_pair):
    P = sum(base_pair.p[i] for i in (3, 4, 5))
    result = solve_complement(P, list(base_pair.q), seed=2)
    assert result.success and result.residual <= 1e-9
    assert match_up_to_relabeling(result.triple, list(base_pair.p[:3]), 1e-9)


def test_complement_deterministic(base_pair):
    P = triple_P(base_pair)
    r1 = solve_complement(P, list(base_pair.q), seed=7)
    r2 = solve_complement(P, list(base_pair.q), seed=7)
    assert r1.attempts == r2.attempts
    for a, b in zip(r1.triple, r2.triple):
        assert np.array_equal(a, b)


def test_complement_rejects_off_locus(base_pair):
    with pytest.raises(ValueError):
        solve_complement(np.eye(6) * 0.5, list(base_pair.q), seed=0)


def test_complement_failure_reports_smallest_residual(base_pair, monkeypatch):
    # two starts of three steps each fail; seed 0 is the smallest seed at which
    # both do and the last iterate is worse than the best
    norms = []
    residual = invariants._cross_residual

    def recorded(*args):
        r, jacobian = residual(*args)
        norms.append(float(np.linalg.norm(r)))
        return r, jacobian

    monkeypatch.setattr(invariants, "_cross_residual", recorded)
    monkeypatch.setattr(invariants, "COMPLEMENT_RESTARTS", 2)
    monkeypatch.setattr(invariants, "COMPLEMENT_MAX_ITER", 3)
    result = solve_complement(triple_P(base_pair), list(base_pair.q), seed=0)
    assert not result.success and result.triple is None
    assert len(norms) == 2 * (3 + 1)
    assert result.residual == min(norms) < norms[-1]


def test_complement_refuses_rank_other_than_three(base_pair):
    # P = p1 + p2 passes the sandwich precheck at r = 1/3, but I - P has rank 4
    # and no unbiased triple sums to it
    for idx in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="rank"):
            solve_complement(triple_P(base_pair, idx), list(base_pair.q), seed=1)


def test_complement_accepts_convergence_on_final_step(base_pair, monkeypatch):
    # at seed 3 the first start meets COMPLEMENT_TOL after exactly five steps
    monkeypatch.setattr(invariants, "COMPLEMENT_RESTARTS", 1)
    monkeypatch.setattr(invariants, "COMPLEMENT_MAX_ITER", 5)
    result = solve_complement(triple_P(base_pair), list(base_pair.q), seed=3)
    assert result.success and result.residual <= invariants.COMPLEMENT_TOL
    assert result.attempts == 1


def test_complement_result_quality_on_sample(family_sample):
    h = family_sample.points[7]
    c = from_hadamard(h)
    P = triple_P(c)
    result = solve_complement(P, list(c.q), seed=11)
    assert result.success
    triple = result.triple
    M = np.eye(6) - P
    assert np.max(np.abs(sum(triple) - M)) <= 1e-9
    for i, t in enumerate(triple):
        assert np.max(np.abs(t @ t - t)) <= 1e-9
        for j, s in enumerate(triple):
            if i != j:
                assert np.max(np.abs(t @ s)) <= 1e-9
        for q in c.q:
            assert abs(np.trace(t @ q) - 1.0 / 6.0) <= 1e-9


def _complement_residual(vs, us, M, qs):
    """Reference: the 63 complement conditions in the factors p'_k = v_k u_k^T,
    duality u_i . v_j = delta_ij, then the sum, then the 18 cross traces."""
    r1 = np.array([us[i] @ vs[j] - (1.0 if i == j else 0.0) for i in range(3) for j in range(3)])
    r2 = (sum(np.outer(vs[k], us[k]) for k in range(3)) - M).ravel()
    r3 = np.array([us[i] @ qs[j] @ vs[i] - 1.0 / 6.0 for i in range(3) for j in range(6)])
    return np.concatenate([r1, r2, r3])


def _loop_complement_jacobian(vs, us, qs):
    """Reference: the complement Jacobian accumulated entry by entry."""
    d = 6
    J = np.zeros((9 + 36 + 18, 36), dtype=np.complex128)
    row = 0
    for i in range(3):
        for j in range(3):
            J[row, d * j:d * j + d] += us[i]
            J[row, 18 + d * i:18 + d * i + d] += vs[j]
            row += 1
    for a in range(d):
        for b in range(d):
            for k in range(3):
                J[row, d * k + a] += us[k][b]
                J[row, 18 + d * k + b] += vs[k][a]
            row += 1
    for i in range(3):
        for j in range(6):
            J[row, d * i:d * i + d] += us[i] @ qs[j]
            J[row, 18 + d * i:18 + d * i + d] += qs[j] @ vs[i]
            row += 1
    return J


def test_complement_jacobian_matches_entrywise_loop(family_sample):
    # the 3x3 core against the 63-row system in (v, u), through the chart
    # v_k = column k of B A, u_k = row k of A^-1 C; at solver starts and at
    # random A, at seeded family points
    rng = np.random.default_rng(34)
    units = np.eye(9).reshape(9, 3, 3)
    for h in family_sample.points[::4]:
        c = from_hadamard(h)
        qs = list(c.q)
        M = np.eye(6) - triple_P(c)
        B = np.linalg.svd(M)[0][:, :3]
        C = B.conj().T @ M
        X = C @ np.stack(qs) @ B
        V, _ = np.linalg.qr(B @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))))
        for A in (B.conj().T @ V, random_invertible(rng, 3, spread=1.0)):
            Ainv = np.linalg.inv(A)
            vs, us = (B @ A).T, Ainv @ C
            r, jacobian = invariants._cross_residual(A, X)
            r_ref = _complement_residual(vs, us, M, qs)
            assert np.max(np.abs(r_ref[:45])) <= 1e-13
            assert np.max(np.abs(r - r_ref[45:])) <= 1e-13
            # (dv, du) = (B dA, -A^-1 dA A^-1 C) for each unit dA, in the
            # oracle's column order (v_1, v_2, v_3, u_1, u_2, u_3)
            chart = np.stack([np.concatenate([(B @ dA).T.ravel(), (-Ainv @ dA @ Ainv @ C).ravel()])
                              for dA in units], axis=1)
            J = jacobian()
            J_ref = _loop_complement_jacobian(vs, us, qs)[45:] @ chart
            assert np.linalg.norm(J - J_ref) <= 1e-12 * np.linalg.norm(J_ref)
            # the residual is holomorphic in A: central differences along real steps
            step = 1e-6
            fd = np.stack([(invariants._cross_residual(A + step * dA, X)[0]
                            - invariants._cross_residual(A - step * dA, X)[0]) / (2 * step)
                           for dA in units], axis=1)
            assert np.linalg.norm(J - fd) <= 1e-8 * np.linalg.norm(J)


# ---------------------------------------------------------------------------
# Membership of the real locus.
# ---------------------------------------------------------------------------


def test_membership_hermitian_configuration(base_pair):
    result = membership_test(base_pair)
    assert result.status is Membership.REAL_LOCUS
    # the conjugator line is the identity, up to scale and sign
    g = result.conjugator
    g = g / g[0, 0]
    assert np.max(np.abs(g - np.eye(6))) <= 1e-10


def test_membership_invariant_under_nonunitary_conjugation(base_pair):
    rng = np.random.default_rng(18)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    conj = pair_from_matrices([h @ p @ hinv for p in base_pair.p],
                              [h @ q @ hinv for q in base_pair.q])
    result = membership_test(conj)
    assert result.status is Membership.REAL_LOCUS


def _dual_system(vectors, g):
    """Rank-1 idempotents self-adjoint for the indefinite form g."""
    out = []
    for v in vectors:
        w = g @ v
        out.append(np.outer(v, w.conj()) / np.vdot(w, v))
    return out


def test_membership_not_theta_stable():
    rng = np.random.default_rng(19)
    # generic non-Hermitian complete idempotent systems: the conjugator
    # system is overdetermined and has no solution
    a = random_invertible(rng, 6, spread=0.7)
    b = random_invertible(rng, 6, spread=0.7)

    def system(m):
        minv = np.linalg.inv(m)
        return [np.outer(m[:, i], minv[i, :]) for i in range(6)]

    c = pair_from_matrices(system(a), system(b))
    assert membership_test(c).status is Membership.NOT_THETA_STABLE


def test_membership_theta_stable_only():
    g = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    # two complete systems of g-self-adjoint idempotents: theta-stable with
    # an indefinite conjugator, hence not on the real locus
    c = _g_self_adjoint_pair(np.random.default_rng(20), g)
    result = membership_test(c)
    assert result.status is Membership.THETA_STABLE_ONLY


def test_membership_boundary_indeterminate():
    # conjugator diag(1, 1e-10): definite, but its smaller eigenvalue is
    # within the tolerance of zero, so the inertia is undecided
    c = conjugated_hermitian_pair(np.random.default_rng(21), np.diag([1.0, 1e5]))
    result = membership_test(c)
    assert result.status is Membership.BOUNDARY_INDETERMINATE
    lam = np.sort(np.abs(result.eigenvalues))
    assert lam[1] == 1.0 and abs(lam[0] - 1e-10) <= 1e-12


def _g_self_adjoint_pair(rng, g):
    """Two complete systems of rank-1 idempotents self-adjoint for the form g:
    each draws n complex Gaussian vectors, g-orthogonalises them in turn and
    redraws until every vector's g-norm is at least 1e-3; g is their
    conjugator."""
    n = g.shape[0]

    def system():
        while True:
            basis = []
            for v in [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(n)]:
                for u in basis:
                    v = v - u * (np.conj(g @ u) @ v / (np.conj(g @ u) @ u))
                basis.append(v)
            if all(abs(np.conj(g @ v) @ v) >= 1e-3 for v in basis):
                return _dual_system(basis, g)

    return pair_from_matrices(system(), system())


def _conjugate(c, u):
    return pair_from_matrices([u.conj().T @ p @ u for p in c.p], [u.conj().T @ q @ u for q in c.q])


# (seed, form) of the g-self-adjoint points below: an indefinite diagonal
# form, and a form whose first basis vector is isotropic
_FORMS = {"indefinite": (20, np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])),
          "isotropic_e1": (21, np.array([[0.0, 1.0], [1.0, 0.0]]))}


@pytest.mark.parametrize("point, want", [("indefinite", Membership.THETA_STABLE_ONLY),
                                         ("isotropic_e1", Membership.THETA_STABLE_ONLY),
                                         ("swap34", Membership.REAL_LOCUS)],
                         ids=["indefinite", "isotropic_e1", "swap34"])
def test_membership_invariant_under_conjugation_and_involutions(point, want, base_pair):
    # the inertia of the conjugator decides, and it does not change under
    # unitary conjugation (the conjugator goes to u^dag g u), a relabelling of
    # the p's, tau, or theta (the conjugator goes to g^-1)
    if point == "swap34":
        c = base_pair
    else:
        seed, g = _FORMS[point]
        c = _g_self_adjoint_pair(np.random.default_rng(seed), g)
    rng = np.random.default_rng(44)
    # a unitary whose first column (e1 + e_m)/sqrt(2) is g-isotropic at the
    # indefinite point, where g = diag(1, 1, 1, -1, -1, -1) and m = 4
    m = c.n // 2
    probe = np.eye(c.n)
    probe[np.ix_([0, m], [0, m])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    transforms = {
        "identity": lambda c: c,
        "probe": lambda c: _conjugate(c, probe),
        "unitary": lambda c: _conjugate(c, random_unitary(rng, c.n)),
        "permute_p": lambda c: pair_from_matrices([c.p[i] for i in rng.permutation(c.n)], list(c.q)),
        "tau": tau,
        "theta": theta,
    }
    statuses = {key: membership_test(t(c)).status for key, t in transforms.items()}
    assert statuses == dict.fromkeys(transforms, want)


def _kron_membership_operator(mats):
    """The operator of g -> m^dag g - g m as a loop of np.kron blocks."""
    eye = np.eye(mats[0].shape[0])
    return np.vstack([np.kron(m.conj().T, eye) - np.kron(eye, m.T) for m in mats])


def _unreduced_membership(c, tol=1e-8):
    """Status, conjugator and eigenvalues from the full SVD of the kron-built operator."""
    K = _kron_membership_operator(c.matrices())
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    assert K.shape[1] - decide_rank(s, tol, "oracle conjugator space").rank == 1
    g = vh[-1].conj().reshape(c.n, c.n)
    g = g * np.exp(1j * np.angle(np.vdot(g.ravel(), g.conj().T.ravel())) / 2.0)
    g = (g + g.conj().T) / 2.0
    g = g / np.linalg.norm(g, 2)
    lam = np.linalg.eigvalsh(g)
    definite = np.all(lam > 0) or np.all(lam < 0)
    return (Membership.REAL_LOCUS if definite else Membership.THETA_STABLE_ONLY), g, lam


def test_membership_matches_unreduced_svd_oracle(standard6, base_pair, family_sample):
    rng = np.random.default_rng(37)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    conj = pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    forms = [_g_self_adjoint_pair(np.random.default_rng(seed), g) for seed, g in _FORMS.values()]
    points = [standard_pair(3), standard6, base_pair,
              *(from_hadamard(x) for x in family_sample.points[::13][:3]), conj, *forms]
    for c in points:
        result = membership_test(c)
        status, g, lam = _unreduced_membership(c)
        assert result.status is status
        # the conjugator line is fixed up to sign; the eigenvalues of -g are
        # those of g negated and in reverse order
        sign = 1.0 if np.max(np.abs(result.conjugator - g)) <= np.max(np.abs(result.conjugator + g)) else -1.0
        assert np.max(np.abs(result.conjugator - sign * g)) <= 1e-10
        flipped = lam if sign > 0 else -lam[::-1]
        assert np.all(np.abs(np.array(result.eigenvalues) - flipped) <= 1e-10 * np.abs(flipped))
        assert result.eigenvalues[-1] == 1.0  # the line is oriented: its largest |lambda| is +1


def test_membership_commutant_gate_matches_commutant_dimension(monkeypatch, standard6, base_pair,
                                                              family_sample):
    # the gate decides the joint commutant that commutant_dimension decides,
    # at Hermitian, non-unitarily conjugated and reducible points, from one
    # SVD of n-column operators and without calling commutant_dimension
    rng = np.random.default_rng(43)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    conj = pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    points = [standard_pair(3), standard6, base_pair,
              *(from_hadamard(x) for x in family_sample.points[::13][:3]), conj,
              pair_from_matrices(list(standard6.p), list(standard6.p))]
    want = [commutant_dimension(c.matrices()) for c in points]
    assert want == [1] * (len(points) - 1) + [6]
    ranks, shapes = [], []
    real_decide, real_svd = invariants.decide_rank, np.linalg.svd

    def decide(s, tol, what):
        report = real_decide(s, tol, what)
        if what == "joint commutant":
            ranks.append(report.rank)
        return report

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(invariants, "decide_rank", decide)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(relations, "commutant_dimension", None)
    for c in points[:-1]:
        shapes.clear()
        assert membership_test(c).status is Membership.REAL_LOCUS
        assert [s[0] for s in shapes] == [2] and shapes[0][-1] == c.n
    with pytest.raises(ValueError, match="reducible"):
        membership_test(points[-1])
    assert [c.n - r for c, r in zip(points, ranks)] == want


def test_membership_answers_the_bent_p1_ladder(base_pair, monkeypatch):
    # with p1 bent, the p sum is off I by the relation residual, up to
    # 6.2e-9 inside the 1e-8 gate; the commutant operator takes I in place of the last p_k, so
    # its zero singular value stays exact and the gate decides with an
    # infinite gap (gaps 2.3 to 23 when it took p_6 itself)
    gaps, real_decide = [], invariants.decide_rank

    def decide(s, tol, what):
        report = real_decide(s, tol, what)
        if what == "joint commutant":
            gaps.append(report.gap_ratio)
        return report

    monkeypatch.setattr(invariants, "decide_rank", decide)
    for eps in (3e-10, 1e-9, 3e-9):
        c = pair_from_matrices([bent_rank1(base_pair.p[0], eps), *base_pair.p[1:]], list(base_pair.q))
        assert 1e-10 < relations.evaluate_relations(c.matrices(), relations.pair_relation_terms(6))[0] <= 1e-8
        result = membership_test(c)
        assert result.status is Membership.REAL_LOCUS
        assert np.allclose(result.eigenvalues, 1.0, rtol=0, atol=1e-6)
    assert gaps == [np.inf] * 3


def test_membership_rejects_reducible(standard6):
    c = pair_from_matrices(list(standard6.p), list(standard6.p))
    with pytest.raises(ValueError):
        membership_test(c)


# ---------------------------------------------------------------------------
# Trace-relation constants.
# ---------------------------------------------------------------------------


def test_affine_constants_match_exact_oracle():
    alpha, beta = exact.fit_u1_constants()
    assert (float(alpha), float(beta)) == U1_AFFINE
    a2, b2, c2 = exact.fit_u2_constants()
    assert (float(a2), float(b2), float(c2)) == U2_AFFINE


def test_affine_relations_on_family_samples(family_sample):
    for h in family_sample.points[:20]:
        c = from_hadamard(h)
        P = triple_P(c)
        Q = sum(c.q[j] for j in range(3))
        vec = u_invariants(P, *c.q[:3])
        t4 = np.trace(P @ Q @ P @ Q).real
        t6 = np.trace(P @ Q @ P @ Q @ P @ Q).real
        assert abs(vec.u1 - (U1_AFFINE[0] * 36.0 * t4 + U1_AFFINE[1])) <= 1e-9
        assert abs(vec.u2 - (U2_AFFINE[0] * t6 + U2_AFFINE[1] * t4 + U2_AFFINE[2])) <= 1e-9
