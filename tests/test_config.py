import dataclasses
import json

import numpy as np
import pytest

from conftest import count_spectral_norms, random_invertible, random_unitary, u_array
from orthopair import config, relations
from orthopair.config import (
    HadamardPoint,
    fourier_phases,
    from_hadamard,
    load_hadamard,
    load_pair,
    pair_from_matrices,
    residual_categories,
    save_hadamard,
    save_pair,
    standard_pair,
    to_hadamard,
)
from orthopair.continuation import canonical_reduce, newton_correct, tangent_frame
from orthopair.linalg import OffVariety


@pytest.mark.parametrize("n", range(2, 13))
def test_standard_pair_residual(n):
    assert standard_pair(n).residual <= 1e-13


def test_standard_pair_n2_moduli():
    c = standard_pair(2)
    for q in c.q:
        assert np.allclose(np.abs(q), 0.5, atol=1e-15)


def test_standard_pair_cross_traces(standard6):
    for p in standard6.p:
        for q in standard6.q:
            assert abs(np.trace(p @ q) - 1.0 / 6.0) <= 1e-13


def test_swapped_pair_is_valid(base_pair):
    assert base_pair.residual <= 1e-13
    # swapping reorders the q projectors of the plain standard pair
    plain = standard_pair(6)
    assert np.allclose(base_pair.q[2], plain.q[3])
    assert np.allclose(base_pair.q[3], plain.q[2])


def test_standard_pair_degenerate_inputs():
    with pytest.raises(ValueError):
        standard_pair(1)
    with pytest.raises(ValueError):
        standard_pair(3, swap34=True)
    with pytest.raises(ValueError, match="n >= 2"):  # no phase block, so its file would not load
        fourier_phases(1)


def test_unbiasedness_residual_detects_bad_projector(standard6):
    qs = list(standard6.q)
    qs[0] = standard6.p[0]
    broken = pair_from_matrices(list(standard6.p), qs)
    assert broken.residual >= 1.0 - 1.0 / 6.0 - 1e-12
    cats = residual_categories(broken)
    assert broken.residual == max(cats.values())
    assert cats["edge"] >= 1.0 - 1.0 / 6.0 - 1e-12  # p_0 q_0 p_0 = p_0, not p_0 / 6
    _, per = relations.evaluate_relations(broken.matrices(), relations.pair_relation_terms(6))
    assert max(per[f"non-edge x{i}x{j}"] for i in range(6) for j in range(6) if i != j) <= 1e-13


def test_residual_is_derived_not_stored(base_pair, fourier6, monkeypatch):
    assert [f.name for f in dataclasses.fields(config.PairConfiguration)] == ["n", "p", "q"]
    assert base_pair.residual == max(residual_categories(base_pair).values())
    assert base_pair.residual == relations.evaluate_relations(
        base_pair.matrices(), relations.pair_relation_terms(6))[0]
    svds = count_spectral_norms(monkeypatch)
    pair_from_matrices(list(base_pair.p), list(base_pair.q))
    assert svds == []
    residual_categories(base_pair)
    assert svds == [(len(relations.pair_relation_terms(6)), 6, 6)]  # one batched SVD of the residual stack
    svds.clear()
    from_hadamard(fourier6)
    assert svds == []  # the unitarity gate, linalg.worst_above, passes on the Frobenius screen
    with pytest.raises(OffVariety, match="do not reconstruct to a unitary") as info:
        from_hadamard(HadamardPoint(6, np.zeros((5, 5))))  # the all-ones matrix
    assert svds == [(1, 6, 6)]  # decided on the spectral norm, at the shared gate
    assert info.value.residual == HadamardPoint(6, np.zeros((5, 5))).unitarity_residual()  # 5 = ||J - I||


def test_unbiasedness_residual_permutation_invariant(base_pair):
    rng = np.random.default_rng(8)
    base = max(residual_categories(base_pair).values())
    perm_p = rng.permutation(6)
    perm_q = rng.permutation(6)
    shuffled = pair_from_matrices([base_pair.p[i] for i in perm_p], [base_pair.q[j] for j in perm_q])
    assert abs(shuffled.residual - base) <= 1e-15


def test_from_hadamard_zero_phases_is_standard_two():
    h = HadamardPoint(2, np.array([[np.pi]]))
    c = from_hadamard(h)
    want = standard_pair(2)
    for got, exp in zip(c.q, want.q):
        assert np.allclose(got, exp, atol=1e-15)


def test_from_hadamard_fourier6(standard6, fourier6):
    c = from_hadamard(fourier6)
    for got, exp in zip(c.q, standard6.q):
        assert np.allclose(got, exp, atol=1e-14)
    # Hermitian by construction: fixed by the adjoint involution
    for m in c.matrices():
        assert np.array_equal(m, m.conj().T)


def test_from_hadamard_rejects_nonunitary():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        from_hadamard(HadamardPoint(6, rng.uniform(-3, 3, size=(5, 5))))


def test_from_hadamard_residual_bounded_by_unitarity(family_sample):
    for h in family_sample.points[:10]:
        c = from_hadamard(h)
        assert c.residual <= 10 * h.unitarity_residual() + 1e-14


def fourier_family_point(rng):
    """Random member of the two-parameter phase family through the Fourier point."""
    u = config.fourier_matrix(6)
    x = np.exp(1j * rng.uniform(-np.pi, np.pi))
    y = np.exp(1j * rng.uniform(-np.pi, np.pi))
    scale = np.ones((6, 6), dtype=complex)
    scale[1:6:3, 1:6:2] *= x
    scale[2:6:3, 1:6:2] *= y
    u = u * scale
    return HadamardPoint(6, np.angle(u[1:, 1:] * np.sqrt(6)))


def test_fourier_family_points_are_hadamard():
    rng = np.random.default_rng(10)
    for _ in range(10):
        h = fourier_family_point(rng)
        assert h.unitarity_residual() <= 1e-12


def test_to_hadamard_fourier_is_fixed_point(standard6, fourier6):
    h = to_hadamard(standard6)
    assert np.allclose(h.phases, fourier6.phases, atol=1e-12)


def test_hadamard_round_trip_100_random_points():
    rng = np.random.default_rng(11)
    frame = None
    for k in range(100):
        h = fourier_family_point(rng)
        if k % 3 == 0:
            # push off the Fourier subfamily along the full 4-frame
            frame, pinv = tangent_frame(h)
            step = frame @ (1e-2 * rng.standard_normal(4))
            res = newton_correct(HadamardPoint(6, h.phases + step.reshape(5, 5)), pinv)
            assert res.converged
            h = res.point
        back = to_hadamard(from_hadamard(h))
        assert np.max(np.abs(back.phases - h.phases)) <= 1e-9


def test_round_trip_preserves_invariants(base_pair):
    from orthopair.invariants import u_invariants

    c2 = from_hadamard(to_hadamard(base_pair))
    for c in (base_pair, c2):
        assert c.residual <= 1e-13
    P1 = base_pair.p[0] + base_pair.p[1] + base_pair.p[2]
    P2 = c2.p[0] + c2.p[1] + c2.p[2]
    v1 = u_invariants(P1, *base_pair.q[:3])
    v2 = u_invariants(P2, *c2.q[:3])
    assert np.max(np.abs(u_array(v1) - u_array(v2))) <= 1e-9


def test_to_hadamard_gauge_invariance(base_pair):
    rng = np.random.default_rng(12)
    w = random_unitary(rng, 6)
    conj = pair_from_matrices([w @ p @ w.conj().T for p in base_pair.p],
                              [w @ q @ w.conj().T for q in base_pair.q])
    h1 = to_hadamard(base_pair)
    h2 = to_hadamard(conj)
    r1 = canonical_reduce([h1, h2], full=True)
    assert len(r1) == 1


def test_to_hadamard_rejects_non_hermitian(base_pair):
    rng = np.random.default_rng(13)
    h = np.eye(6) + 0.2 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    hinv = np.linalg.inv(h)
    skew = pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    with pytest.raises(ValueError):
        to_hadamard(skew)


def test_is_complex_hadamard_examples(fourier6):
    # reconstruct() pins every modulus to 1/sqrt(n), so unitarity decides
    assert fourier6.unitarity_residual() <= 1e-14
    assert HadamardPoint(6, np.zeros((5, 5))).unitarity_residual() > 1e-6  # the all-ones matrix
    with pytest.raises(ValueError):
        HadamardPoint(3, np.zeros((1, 2)))


def test_pair_file_round_trip(tmp_path, base_pair):
    for fmt in ("bases", "projectors"):
        path = tmp_path / f"pair_{fmt}.json"
        save_pair(path, base_pair, fmt=fmt)
        back = load_pair(path)
        assert back.residual <= 1e-12
        for a, b in zip(back.matrices(), base_pair.matrices()):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_bases_format_refuses_non_hermitian(tmp_path, base_pair, standard6):
    # a non-unitary conjugate is still a valid configuration, but its
    # projectors are not Hermitian, so two bases cannot represent it
    rng = np.random.default_rng(33)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    skew = pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    assert skew.residual <= 1e-10
    path = tmp_path / "skew.json"
    with pytest.raises(ValueError):
        save_pair(path, skew, fmt="bases")
    assert not path.exists()
    save_pair(path, skew, fmt="projectors")
    back = load_pair(path)
    for a, b in zip(back.matrices(), skew.matrices()):
        assert np.array_equal(a, b)
    # Hermitian pairs still round-trip through the bases format
    for c in (standard6, standard_pair(3), standard_pair(2)):
        save_pair(path, c, fmt="bases")
        back = load_pair(path)
        for a, b in zip(back.matrices(), c.matrices()):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_hermitian_gate_is_screened(tmp_path, base_pair, monkeypatch):
    # a Hermitian pair passes the gate on the Frobenius screen, with no SVD
    svds = count_spectral_norms(monkeypatch)
    save_pair(tmp_path / "pair.json", base_pair, fmt="bases")
    assert svds == []
    # m - m^H = 2 i t I has spectral norm 2t and Frobenius norm 2t sqrt(6):
    # the screen cannot decide, and the spectral norm decides as before
    tol = 1e-6
    for t, hermitian in ((0.45 * tol, True), (0.55 * tol, False)):
        skew = pair_from_matrices([base_pair.p[0] + 1j * t * np.eye(6)] + list(base_pair.p[1:]),
                                  list(base_pair.q))
        if hermitian:
            config._require_hermitian(skew, tol)
        else:
            with pytest.raises(ValueError, match="configuration is not Hermitian"):
                config._require_hermitian(skew, tol)
    assert svds == [(12, 6, 6), (12, 6, 6)]  # one batched SVD per undecided screen


def test_bases_format_refuses_projector_not_of_rank_one(tmp_path, base_pair):
    # p1 -> p1 + p2 (rank 2), p2 -> 0 (rank 0): Hermitian, but one vector per
    # projector cannot stand for it
    p = list(base_pair.p)
    bad = pair_from_matrices([p[0] + p[1], 0 * p[1]] + p[2:], list(base_pair.q))
    assert abs(bad.residual - 1.0 / 6.0) <= 1e-12
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="rank 2"):
        save_pair(path, bad, fmt="bases")
    assert not path.exists()


def test_projector_vectors_take_one_svd(tmp_path, base_pair, monkeypatch):
    # all 2n projectors of a pair are factored by one batched SVD, for the
    # gauge fix and for the bases format alike
    svd, calls = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    to_hadamard(base_pair)
    assert calls == [(12, 6, 6)]
    calls.clear()
    save_pair(tmp_path / "pair.json", base_pair, fmt="bases")
    assert calls == [(12, 6, 6)]
    # the first projector not of rank 1 is named, as by a call per projector
    p = list(base_pair.p)
    bad = pair_from_matrices([p[0] + p[1], 0 * p[1]] + p[2:], list(base_pair.q))
    with pytest.raises(ValueError, match="projector has rank 2"):
        to_hadamard(bad)


def test_pair_file_format_documented(tmp_path, base_pair):
    path = tmp_path / "pair.json"
    save_pair(path, base_pair, fmt="bases")
    doc = json.loads(path.read_text())
    assert doc["format"] == "bases"
    assert doc["n"] == 6
    # complex entries encoded as [re, im]
    assert len(doc["e_basis"][0][0]) == 2


def test_hadamard_file_round_trip(tmp_path, fourier6_swapped):
    path = tmp_path / "h.json"
    save_hadamard(path, fourier6_swapped)
    back = load_hadamard(path)
    assert back.n == 6
    assert np.array_equal(back.phases, fourier6_swapped.phases)


class _Interrupted(Exception):
    pass


def test_saves_are_complete_or_absent(tmp_path, monkeypatch, base_pair, fourier6_swapped):
    # a write that stops half way leaves an existing file byte-identical,
    # creates no new file and leaves no temporary file behind
    def torn(doc, fh):
        fh.write('{"n": 6, ')
        raise _Interrupted

    writers = (lambda path: save_pair(path, base_pair, fmt="bases"),
               lambda path: save_pair(path, base_pair, fmt="projectors"),
               lambda path: save_hadamard(path, fourier6_swapped))
    old = tmp_path / "old.json"
    old.write_bytes(b'{"old": true}')
    monkeypatch.setattr(json, "dump", torn)
    for write in writers:
        for path in (old, tmp_path / "new.json"):
            with pytest.raises(_Interrupted):
                write(path)
            assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
            assert old.read_bytes() == b'{"old": true}'
    monkeypatch.undo()
    save_hadamard(old, fourier6_swapped)
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
    assert np.array_equal(load_hadamard(old).phases, fourier6_swapped.phases)


def test_phase_wrapping():
    h = HadamardPoint(2, np.array([[3 * np.pi]]))
    assert abs(h.phases[0, 0] - np.pi) < 1e-15


@pytest.mark.parametrize("make", [
    lambda: standard_pair(3),
    lambda: fourier_phases(3),
    lambda: relations.restrict(standard_pair(3), [1]),
], ids=["PairConfiguration", "HadamardPoint", "AlgebraRepPoint"])
def test_points_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, a, b}) == 2 and hash(a) == hash(a)
