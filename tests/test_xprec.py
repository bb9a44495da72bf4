"""Extended-precision re-checks agree with double precision and the exact field."""

import numpy as np

from orthopair import exact, xprec
from orthopair.config import residual_categories, standard_pair
from orthopair.invariants import u_invariants


def test_mp_singular_values_match_numpy():
    rng = np.random.default_rng(30)
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    s_np = np.linalg.svd(m, compute_uv=False)
    s_mp = xprec.mp_singular_values(m)
    assert np.allclose(s_np, s_mp, rtol=1e-12)


def test_mp_basic_operations():
    a = xprec.to_mp(np.array([[1.0, 2j], [0.0, 1.0]]))
    b = a * a
    assert complex(b[0, 1]) == 4j
    assert complex(xprec.mp_trace(a)) == 2.0
    adj = a.transpose_conj()
    assert complex(adj[1, 0]) == -2j
    _, qs = xprec.standard_pair_mp(2)
    assert abs(complex(qs[0][0, 1]) - 0.5) < 1e-30


def test_standard_pair_residual_extended():
    # the double-precision construction residual is rounding noise, and the
    # high-precision rebuild pushes it to ~1e-34
    for swap34 in (False, True):
        ps, qs = xprec.standard_pair_mp(6, swap34)
        assert max(xprec.pair_residual_categories_mp(ps, qs).values()) < 1e-30


def test_residual_kinds_match_double():
    # the mp verifier restates the pair relations by kind; both precisions
    # report the same kinds, and agree on their values at double inputs
    for n in range(2, 8):
        c = standard_pair(n)
        double = residual_categories(c)
        extended = xprec.pair_residual_categories_mp(c.p, c.q)
        assert list(extended) == list(double) == ["idempotency", "non-edge", "edge", "sum"]
        for kind in double:
            assert abs(extended[kind] - double[kind]) <= 1e-14


def test_u_invariants_extended_match_exact():
    ps, qs = xprec.standard_pair_mp(6, False)
    u1, u2, u3, residue = xprec.u_invariants_mp_matrices(ps[0] + ps[1] + ps[2], qs[:3])
    want = exact.u_for_columns([0, 1, 2])
    assert abs(u1 - float(want[0])) < 1e-28
    assert abs(u2 - float(want[1])) < 1e-28
    assert abs(u3 - float(want[2])) < 1e-28
    assert residue < 1e-28


def test_identity_gap_extended():
    for swap34, p_idx, q_idx in ((True, (0, 1, 2), (0, 1, 2)), (False, (0, 1, 2), (3, 4, 5))):
        ps, qs = xprec.standard_pair_mp(6, swap34)
        _, _, gap = xprec.identity_sides_mp_matrices([ps[i] for i in p_idx], [qs[j] for j in q_idx])
        assert gap < 1e-28


def test_generic_mp_matches_double(standard6):
    P = standard6.p[0] + standard6.p[1] + standard6.p[2]
    vec = u_invariants(P, *standard6.q[:3])
    u1, u2, u3, residue = xprec.u_invariants_mp_matrices(P, standard6.q[:3])
    assert abs(u1 - vec.u1) < 1e-11
    assert abs(u3 - vec.u3) < 1e-11
    assert residue < 1e-12
    cats = xprec.pair_residual_categories_mp(standard6.p, standard6.q)
    assert max(cats.values()) < 1e-13
    z1, z2 = xprec.z_functions_mp_matrices(P, standard6.q)
    assert abs(z1 - 1.0 / 9.0) < 1e-13
    lhs, rhs, gap = xprec.identity_sides_mp_matrices(standard6.p[:3], standard6.q[:3])
    assert abs(lhs - 81.0) < 1e-10
    assert gap < 1e-11
