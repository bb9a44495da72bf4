import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugated_hermitian_pair
from orthopair import config, invariants, relations
from orthopair.cli import FAIL, INDETERMINATE, OK, USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture()
def pair_file(tmp_path, capsys):
    path = str(tmp_path / "base_pair.json")
    code, payload, _ = run(capsys, "standard-pair", "--n", "6", "--swap34", "--out", path)
    assert code == OK
    assert payload["residual"] <= 1e-13
    return path


@pytest.fixture()
def hadamard_file(tmp_path, capsys):
    path = str(tmp_path / "f6.json")
    code, _, _ = run(capsys, "hadamard", "--fourier", "6", "--swap34", "--out", path)
    assert code == OK
    return path


def test_standard_pair_and_verify(pair_file, capsys):
    code, payload, _ = run(capsys, "verify", pair_file, "--tol", "1e-12")
    assert code == OK
    assert payload["ok"] is True
    assert payload["max_residual"] <= 1e-13
    assert list(payload["categories"]) == ["idempotency", "non-edge", "edge", "sum"]


def test_standard_pair_n2(tmp_path, capsys):
    path = str(tmp_path / "p2.json")
    code, payload, _ = run(capsys, "standard-pair", "--n", "2", "--out", path)
    assert code == OK and payload["n"] == 2


def test_standard_pair_n1_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "standard-pair", "--n", "1", "--out", str(tmp_path / "x.json"))
    assert code == USAGE
    assert "usage error" in err


def test_verify_fail_names_category(pair_file, capsys, tmp_path):
    doc = json.loads(open(pair_file).read())
    doc["f_basis"][0][0] = [1.0, 0.5]  # corrupt one basis entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, payload, err = run(capsys, "verify", str(bad), "--tol", "1e-10")
    assert code == FAIL
    assert payload["ok"] is False
    assert payload["worst_category"] in payload["categories"]
    assert payload["worst_category"] in err


def test_verify_tolerance_floor(pair_file, capsys):
    # double-precision data cannot verify at 1e-16
    code, payload, _ = run(capsys, "verify", pair_file, "--tol", "1e-16")
    assert code == FAIL


def test_verify_extended_precision(pair_file, capsys):
    code, payload, _ = run(capsys, "verify", pair_file, "--tol", "1e-12", "--precision", "extended")
    assert code == OK
    assert payload["ok"] is True
    _, double, _ = run(capsys, "verify", pair_file, "--tol", "1e-12")
    assert payload["categories"].keys() == double["categories"].keys()


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--precision", "extended"], ["tangent"]])
def test_overflowing_residual_is_numerical_failure(pair_file, tmp_path, capsys, argv):
    c = config.load_pair(pair_file)
    big = tmp_path / "big.json"
    config.save_pair(big, config.pair_from_matrices([1e200 * p for p in c.p], c.q), fmt="projectors")
    code, payload, err = run(capsys, argv[0], str(big), *argv[1:])
    assert code == FAIL
    assert payload is None
    assert "numerical failure" in err and "idempotency" in err


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == USAGE


MALFORMED = [
    ("verify", {"format": "projectors", "p": [], "q": []}),
    ("verify", {"format": "projectors", "p": 5, "q": 5}),
    ("verify", {"format": "bases", "e_basis": [1, 2], "f_basis": [1, 2]}),
    ("verify", {"format": "projectors", "p": [[[[1, 0]], [[0, 0], [1, 0]]]], "q": []}),
    ("verify", None),
    ("verify", [1, 2]),
    ("defect", None),
    ("defect", [1, 2]),
    ("defect", {"n": 6.9, "phases": [[0.0] * 5] * 5}),
    ("defect", {"n": 2, "phases": [[{}]]}),
]


@pytest.mark.parametrize("command, doc", MALFORMED)
def test_malformed_document_is_input_error(tmp_path, capsys, command, doc):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    code, payload, err = run(capsys, command, str(bad))
    assert code == USAGE
    assert payload is None
    assert "input error" in err


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_number = st.floats(-2, 2) | st.floats()


def _square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def _well_shaped(n):
    """Documents of the right layout for dimension n, with arbitrary numbers."""
    matrix = _square(n, st.lists(_number, min_size=2, max_size=2))
    system = st.lists(matrix, min_size=n, max_size=n)
    return st.one_of(
        st.fixed_dictionaries({"format": st.just("projectors"), "p": system, "q": system}),
        st.fixed_dictionaries({"format": st.just("bases"), "e_basis": matrix, "f_basis": matrix}),
        st.fixed_dictionaries({"n": st.just(n + 1), "phases": _square(n, _number)}),
    )


_documents = _json | st.integers(1, 3).flatmap(_well_shaped) | st.fixed_dictionaries({}, optional={
    key: _json for key in ("n", "format", "p", "q", "e_basis", "f_basis", "phases")})


@pytest.mark.filterwarnings("ignore:overflow encountered")  # entries near the float limit
@settings(derandomize=True, max_examples=300, deadline=None)
@given(command=st.sampled_from(["verify", "defect"]), doc=_documents)
def test_any_json_input_gets_a_documented_exit_code(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    assert code in (OK, FAIL, INDETERMINATE, USAGE)
    if code == USAGE:
        assert out.getvalue() == ""


def test_invariants_frozen_values(tmp_path, capsys):
    path = str(tmp_path / "plain.json")
    run(capsys, "standard-pair", "--n", "6", "--out", path)
    code, payload, _ = run(capsys, "invariants", path,
                           "--p-subset", "1,2,3", "--q-subset", "1,2,3")
    assert code == OK
    assert payload["u1"] == pytest.approx(8.0, abs=1e-12)
    assert payload["u2"] == pytest.approx(0.0, abs=1e-12)
    assert payload["u3"] == pytest.approx(-9.0, abs=1e-12)
    assert payload["z1"] == pytest.approx(1.0 / 9.0, abs=1e-13)
    assert payload["imag_residue"] <= 1e-12


def test_invariants_permutation_invariance(tmp_path, capsys):
    path = str(tmp_path / "plain.json")
    run(capsys, "standard-pair", "--n", "6", "--out", path)
    _, a, _ = run(capsys, "invariants", path, "--q-subset", "1,2,3")
    _, b, _ = run(capsys, "invariants", path, "--q-subset", "3,1,2")
    assert a["u1"] == pytest.approx(b["u1"], abs=1e-12)
    assert a["u3"] == pytest.approx(b["u3"], abs=1e-12)


def test_invariants_extended_matches_double(pair_file, capsys):
    _, d, _ = run(capsys, "invariants", pair_file)
    _, x, _ = run(capsys, "invariants", pair_file, "--precision", "extended")
    for key in ("u1", "u2", "u3", "z1", "z2"):
        assert d[key] == pytest.approx(x[key], abs=1e-11)


def test_invariants_bad_subset(pair_file, capsys):
    code, _, _ = run(capsys, "invariants", pair_file, "--p-subset", "1,2,9")
    assert code == USAGE
    code, _, _ = run(capsys, "invariants", pair_file, "--p-subset", "1,2")
    assert code == USAGE


def test_tangent_report(pair_file, capsys):
    code, payload, _ = run(capsys, "tangent", pair_file)
    assert code == OK
    assert payload["moduli_dim"] == 4
    assert payload["orbit_dim"] == 35
    assert payload["gap_ratio"] >= 1e3


def test_defect_report(hadamard_file, capsys):
    code, payload, _ = run(capsys, "defect", hadamard_file)
    assert code == OK
    assert payload["moduli_dim"] == 4


def test_tangent_answers_scaled_p1(tmp_path, capsys):
    # p1 scaled by 1 + 1e-9 passes the residual gate; the residual lifted
    # zero singular values only through the sum rows, which a complete
    # system implies, so the Jacobian on the edge rows alone keeps a
    # rounding-level gap
    c = config.standard_pair(6, swap34=True)
    path = tmp_path / "scaled.json"
    config.save_pair(path, config.pair_from_matrices([(1.0 + 1e-9) * c.p[0], *c.p[1:]], list(c.q)))
    code, payload, _ = run(capsys, "tangent", str(path))
    assert code == OK
    assert (payload["nullity"], payload["orbit_dim"], payload["moduli_dim"]) == (39, 35, 4)
    assert payload["gap_ratio"] >= 1e12
    assert len(payload["singular_values"]) == 36


def test_tangent_refuses_nullity_below_orbit_exit_code(tmp_path, capsys):
    # q1 = v' w^T / w^T v' with v' = v + 1e-9 delta stays a rank-1
    # idempotent, but its other relations hold only to 2.4e-9, inside the
    # gate and not in the sums alone: the cut counts that residual as rank,
    # and nullity 34 < orbit 35 is refused, exit code 2
    c = config.standard_pair(6, swap34=True)
    rng = np.random.default_rng(0)
    delta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = np.linalg.svd(c.q[0])[0][:, 0]
    w = v.conj()
    bent = v + 1e-9 * delta
    point = config.pair_from_matrices(list(c.p), [np.outer(bent, w) / (w @ bent), *c.q[1:]])
    assert 1e-9 < point.residual <= relations.RELATION_TOL
    path = tmp_path / "bent.json"
    config.save_pair(path, point)
    code, payload, err = run(capsys, "tangent", str(path))
    assert code == INDETERMINATE
    assert payload["status"] == "indeterminate"
    assert len(payload["singular_values"]) == 36
    assert "nullity 34 < orbit dimension 35" in err


def test_tangent_rejects_extended(pair_file, capsys):
    code, _, err = run(capsys, "tangent", pair_file, "--precision", "extended")
    assert code == USAGE


@pytest.mark.parametrize("argv", [
    ["standard-pair", "--n", "6", "--out", "{out}", "--precision", "extended"],
    ["hadamard", "--fourier", "6", "--out", "{out}", "--precision", "extended"],
    ["identity", "{pair}", "--tol", "1e-3"],
    ["complement", "{pair}", "--seed", "7", "--out", "{out}", "--tol", "1"],
    ["trace", "--start", "{hadamard}", "--direction", "0", "--steps", "1", "--out", "{out}",
     "--precision", "double"],
    # every rank cut is a module constant: only verify takes a --tol
    ["tangent", "{pair}", "--tol", "1"],
    ["defect", "{hadamard}", "--tol", "inf"],
    ["membership", "{pair}", "--tol", "1"],
])
def test_cli_flags_only_where_read(argv, pair_file, hadamard_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [a.format(out=out, pair=pair_file, hadamard=hadamard_file) for a in argv]
    code, payload, err = run(capsys, *argv)
    assert code == USAGE
    assert payload is None
    assert "unrecognized arguments" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "{pair}", "--tol", "inf"],
    ["verify", "{pair}", "--tol", "-1"],
    ["verify", "{pair}", "--tol", "-0"],
    ["verify", "{pair}", "--tol", "1e-400"],  # underflows to 0
    ["verify", "{pair}", "--tol", "nan"],
    ["verify", "{pair}", "--tol", "0"],
])
def test_out_of_range_tolerance_is_an_input_error(argv, pair_file, capsys):
    # verify's residual bound must be finite and positive, and no bound
    # that JSON cannot carry is echoed
    argv = [a.format(pair=pair_file) for a in argv]
    code, payload, err = run(capsys, *argv)
    assert code == USAGE
    assert payload is None
    assert "--tol must be finite and positive" in err


def test_tangent_off_variety_fails_with_residual(pair_file, tmp_path, capsys):
    doc = json.loads(open(pair_file).read())
    doc["f_basis"][2][3] = [0.3, 0.1]  # knock the point off the variety
    bad = tmp_path / "off.json"
    bad.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "tangent", str(bad))
    assert code == FAIL
    assert payload["status"] == "fail"
    assert payload["residual"] > 1e-8


def test_defect_off_variety_fails_with_residual(tmp_path, capsys):
    rng = np.random.default_rng(31)
    bad = tmp_path / "offh.json"
    bad.write_text(json.dumps({"n": 6, "phases": rng.uniform(-3, 3, (5, 5)).tolist()}))
    code, payload, _ = run(capsys, "defect", str(bad))
    assert code == FAIL
    assert payload["residual"] > 1e-8


@pytest.fixture()
def off_variety_inputs(pair_file, tmp_path):
    """An off-unitary Hadamard file, a pair file with p2 and q4 bent off their
    bases, and a pair file with a repeated projector."""
    rng = np.random.default_rng(31)
    hadamard = tmp_path / "offh.json"
    hadamard.write_text(json.dumps({"n": 6, "phases": rng.uniform(-3, 3, (5, 5)).tolist()}))
    doc = json.loads(open(pair_file).read())
    doc["e_basis"][3][1] = [0.3, 0.1]
    doc["f_basis"][2][3] = [0.3, 0.1]
    pair = tmp_path / "off.json"
    pair.write_text(json.dumps(doc))
    c = config.standard_pair(6, swap34=True)
    repeated = tmp_path / "repeated.json"
    config.save_pair(str(repeated), config.pair_from_matrices([c.p[0], c.p[0]] + list(c.p[2:]), list(c.q)))
    return {"HADAMARD": str(hadamard), "PAIR": str(pair), "REPEATED": str(repeated)}


@pytest.mark.parametrize("argv", [
    ["tangent", "PAIR"],
    ["defect", "HADAMARD"],
    ["trace", "--start", "HADAMARD", "--direction", "0", "--steps", "3", "--out", "OUT"],
    ["sample", "--start", "HADAMARD", "--count", "3", "--seed", "1", "--out", "OUT"],
    ["membership", "PAIR"],
    ["identity", "PAIR"],
    ["identity", "PAIR", "--precision", "extended"],
    ["invariants", "PAIR"],
    ["invariants", "PAIR", "--precision", "extended"],
    ["complement", "PAIR", "--seed", "7", "--out", "OUT"],
    ["hadamard", "--from-pair", "REPEATED", "--out", "OUT"],
    ["hadamard", "--from-pair", "PAIR", "--out", "OUT"],
], ids=["tangent", "defect", "trace", "sample", "membership", "identity", "identity-extended",
        "invariants", "invariants-extended", "complement", "hadamard-repeated", "hadamard-unbiased"])
def test_off_variety_exit_code_matrix(argv, off_variety_inputs, tmp_path, capsys):
    # every command that gates a point refuses one off the variety alike: exit
    # 1, the gate's residual on stdout, and no output file
    out = tmp_path / "out.json"
    paths = {**off_variety_inputs, "OUT": str(out)}
    code, payload, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == FAIL
    assert payload["status"] == "fail" and payload["residual"] > 1e-8
    assert "off the variety" in err
    assert not out.exists()


def test_hadamard_fourier_n1_is_an_input_error(tmp_path, capsys):
    # n = 1 has no phase block, so its file could not be loaded back
    out = tmp_path / "h1.json"
    code, payload, err = run(capsys, "hadamard", "--fourier", "1", "--out", str(out))
    assert code == USAGE
    assert payload is None
    assert "input error" in err
    assert not out.exists()


@pytest.mark.parametrize("n", [3, 4])
def test_identity_refuses_pairs_not_of_dimension_six(n, tmp_path, capsys):
    # the identity is stated for six-dimensional points: a smaller pair on
    # its variety is an input error, not a point off the variety
    path = str(tmp_path / f"p{n}.json")
    assert run(capsys, "standard-pair", "--n", str(n), "--out", path)[0] == OK
    code, payload, err = run(capsys, "identity", path)
    assert code == USAGE
    assert payload is None
    assert "six-dimensional" in err


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("n", [3, 4])
def test_invariants_refuses_pairs_not_of_dimension_six(n, precision, tmp_path, capsys, monkeypatch):
    # the u's and z's are stated for six-dimensional pairs: a smaller pair on
    # its variety is an input error, refused before any invariant is computed
    path = str(tmp_path / f"p{n}.json")
    assert run(capsys, "standard-pair", "--n", str(n), "--out", path)[0] == OK
    monkeypatch.setattr(relations, "require_relations", None)  # the gate would be the first work
    code, payload, err = run(capsys, "invariants", path, "--precision", precision)
    assert code == USAGE
    assert payload is None
    assert "six-dimensional" in err


def test_non_hermitian_pair_is_an_input_error(base_pair, tmp_path, capsys):
    # a non-unitary conjugate satisfies the relations but is not Hermitian,
    # so no Hadamard gauge fix exists for it
    h = np.diag(np.linspace(1.0, 2.0, 6)).astype(complex)
    hinv = np.linalg.inv(h)
    skew = config.pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    path = tmp_path / "skew.json"
    config.save_pair(str(path), skew, fmt="projectors")
    out = tmp_path / "h.json"
    code, payload, err = run(capsys, "hadamard", "--from-pair", str(path), "--out", str(out))
    assert code == USAGE
    assert payload is None
    assert "configuration is not Hermitian" in err
    assert not out.exists()


def test_trace_and_seed_determinism(hadamard_file, tmp_path, capsys):
    out1 = str(tmp_path / "path1.jsonl")
    code, payload, _ = run(capsys, "trace", "--start", hadamard_file, "--direction", "0",
                           "--steps", "5", "--step", "1e-2", "--out", out1)
    assert code == OK
    assert payload["steps_completed"] == 5
    lines = open(out1).read().strip().split("\n")
    assert len(lines) == 6
    rec = json.loads(lines[-1])
    assert rec["residual"] <= 1e-10

    out2 = str(tmp_path / "s1.jsonl")
    out3 = str(tmp_path / "s2.jsonl")
    run(capsys, "sample", "--start", hadamard_file, "--count", "6", "--seed", "5", "--out", out2)
    run(capsys, "sample", "--start", hadamard_file, "--count", "6", "--seed", "5", "--out", out3)
    assert open(out2).read() == open(out3).read()
    # re-running onto the same path reproduces the file bit for bit
    run(capsys, "sample", "--start", hadamard_file, "--count", "6", "--seed", "5", "--out", out2)
    assert open(out2).read() == open(out3).read()


def test_trace_append_accumulates_paths(hadamard_file, tmp_path, capsys):
    out = str(tmp_path / "multi.jsonl")
    run(capsys, "trace", "--start", hadamard_file, "--direction", "0",
        "--steps", "2", "--out", out)
    run(capsys, "trace", "--start", hadamard_file, "--direction", "1",
        "--steps", "2", "--path-id", "1", "--out", out, "--append")
    lines = [json.loads(l) for l in open(out).read().strip().split("\n")]
    assert len(lines) == 6
    assert {rec["path"] for rec in lines} == {0, 1}


@pytest.mark.parametrize("step, direction", [("0", "0"), ("-1e-2", "0"), ("inf", "0"),
                                             ("1e-2", "nan,0,0,0"), ("1e-2", "inf,0,0,0")])
def test_trace_refuses_step_without_progress_guard(step, direction, hadamard_file, tmp_path, capsys):
    out = tmp_path / "p.jsonl"
    code, payload, err = run(capsys, "trace", "--start", hadamard_file, "--direction", direction,
                             "--steps", "3", f"--step={step}", "--out", str(out))
    assert code == USAGE
    assert payload is None
    assert "input error" in err
    assert not out.exists()


def test_trace_zero_steps(hadamard_file, tmp_path, capsys):
    out = str(tmp_path / "p.jsonl")
    code, payload, _ = run(capsys, "trace", "--start", hadamard_file, "--direction", "1",
                           "--steps", "0", "--out", out)
    assert code == OK
    assert len(open(out).read().strip().split("\n")) == 1


def test_sample_requires_seed(hadamard_file, tmp_path, capsys):
    code, _, _ = run(capsys, "sample", "--start", hadamard_file, "--count", "3",
                     "--out", str(tmp_path / "o.jsonl"))
    assert code == USAGE


def test_sample_refuses_n_beyond_the_canonical_key(tmp_path, capsys):
    start = str(tmp_path / "f11.json")
    assert run(capsys, "hadamard", "--fourier", "11", "--out", start)[0] == OK
    out = tmp_path / "o.jsonl"
    code, payload, err = run(capsys, "sample", "--start", start, "--count", "2", "--seed", "1",
                             "--out", str(out))
    assert code == USAGE and payload is None
    assert "canonical key is searched up to n = 10" in err
    assert not out.exists()


def test_membership(pair_file, capsys):
    code, payload, _ = run(capsys, "membership", pair_file)
    assert code == OK
    assert payload["status"] == "real_locus"


def test_membership_boundary_exit_code(tmp_path, capsys):
    # conjugators diag(1, 1e-12) and diag(1, 1.0e-9): an eigenvalue within
    # invariants.MEMBERSHIP_TOL of zero leaves the inertia undecided, exit
    # code 2, and the command decides as membership_test does
    for seed, scale in ((32, 1e6), (33, 3.16e4)):
        c = conjugated_hermitian_pair(np.random.default_rng(seed), np.diag([1.0, scale]))
        path = tmp_path / f"boundary{seed}.json"
        config.save_pair(path, c)
        code, payload, err = run(capsys, "membership", str(path))
        assert code == INDETERMINATE
        assert payload["status"] == invariants.membership_test(c).status.value == "boundary_indeterminate"
        assert min(abs(x) for x in payload["eigenvalues"]) == pytest.approx(scale ** -2, rel=1e-6)
        assert "eigenvalue" in err


def test_membership_reports_conjugator_eigenvalues(pair_file, capsys):
    code, payload, _ = run(capsys, "membership", pair_file)
    assert code == OK and payload["status"] == "real_locus"
    lam = np.array(payload["eigenvalues"])
    assert lam.shape == (6,) and np.max(np.abs(lam)) == 1.0
    assert np.all(lam > 0) or np.all(lam < 0)


def _projectors_file(path, ps, qs):
    doc = {"n": len(ps), "format": "projectors",
           "p": [config.encode_matrix(m) for m in ps], "q": [config.encode_matrix(m) for m in qs]}
    path.write_text(json.dumps(doc))
    return str(path)


def test_membership_undecided_commutant_exit_code(tmp_path, capsys):
    # coordinate p's, and q_j = p_j plus symmetric couplings 4e-11 between
    # coordinates 0 and 1, 2e-9 between 1 and 2, and 1 between 2 and 3: the
    # diagonal matrices commuting with the q's leave 2e-9 above the 1e-10
    # cut and 4e-11 below it, so the irreducibility gate has no decisive
    # gap; membership reports the spectrum of the 4-column commutant
    # operator and exits 2
    ps = [np.diag(e) for e in np.eye(4)]
    coupling = np.zeros((4, 4))
    for (i, j), x in {(0, 1): 4e-11, (1, 2): 2e-9, (2, 3): 1.0}.items():
        coupling[i, j] = coupling[j, i] = x
    path = _projectors_file(tmp_path / "undecided.json", ps, [p + coupling for p in ps])
    code, payload, err = run(capsys, "membership", path)
    assert code == INDETERMINATE
    assert payload["status"] == "indeterminate"
    assert payload["gap_ratio"] < 1e3
    assert len(payload["singular_values"]) == 4
    assert "joint commutant" in err and "gap ratio" in err


def test_membership_refuses_p_off_a_complete_system(tmp_path, capsys):
    # four copies of diag(0, 2e-9, 1, 1) are idempotent within 1e-8 but sum
    # to diag(0, 8e-9, 4, 4): the reduction to n unknowns does not hold there
    a = np.diag([0.0, 2e-9, 1.0, 1.0])
    b = np.diag([0.0, 0.0, 1.0, 1.0 + 4e-11])
    path = _projectors_file(tmp_path / "off.json", [a] * 4, [b] * 4)
    code, payload, err = run(capsys, "membership", path)
    assert code == FAIL
    assert payload["status"] == "fail" and payload["residual"] == pytest.approx(3.0)
    assert "off the variety" in err and "sum p - 1 residual 3.000e+00" in err


def test_numerical_failure_exit_code(pair_file, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must not be reported as bad input
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    code, payload, err = run(capsys, "tangent", pair_file)
    assert code == FAIL
    assert payload is None
    assert "numerical failure: SVD did not converge" in err
    assert "input error" not in err


def test_arithmetic_failure_exit_code(pair_file, capsys, monkeypatch):
    # a failed normalisation is an ArithmeticError, unlike the gap refusal
    def not_normalised(*args, **kwargs):
        raise ArithmeticError("conjugator failed to normalise to Hermitian")

    monkeypatch.setattr(invariants, "membership_test", not_normalised)
    code, payload, err = run(capsys, "membership", pair_file)
    assert code == FAIL
    assert payload is None
    assert "numerical failure" in err


def test_identity(pair_file, capsys):
    code, payload, _ = run(capsys, "identity", pair_file,
                           "--p-subset", "1,2,3", "--q-subset", "1,2,3")
    assert code == OK
    assert payload["gap"] <= 1e-12


def test_identity_extended(pair_file, capsys):
    code, payload, _ = run(capsys, "identity", pair_file, "--precision", "extended")
    assert code == OK
    assert payload["gap"] <= 1e-11


def test_complement(pair_file, tmp_path, capsys):
    out = str(tmp_path / "comp.json")
    code, payload, _ = run(capsys, "complement", pair_file, "--subset", "1,2,3",
                           "--seed", "3", "--out", out)
    assert code == OK
    assert payload["success"] is True
    assert payload["residual"] <= 1e-9
    doc = json.loads(open(out).read())
    # the complementary triple at the swapped standard point is the other
    # three coordinate projectors, up to relabeling
    triples = [np.array([[complex(re, im) for re, im in row] for row in m]) for m in doc["p"]]
    axes = set()
    for t in triples:
        diag = np.real(np.diag(t))
        axes.add(int(np.argmax(diag)))
        assert np.max(np.abs(t - np.diag(np.diag(t)))) <= 1e-9
    assert axes == {3, 4, 5}
    # three p's against six q's: tagged as a triple, not a pair file
    assert doc["format"] == "triple"
    code, payload, err = run(capsys, "verify", out)
    assert code == USAGE
    assert payload is None
    assert "unknown pair format 'triple'" in err


def test_complement_requires_seed(pair_file, capsys):
    code, _, _ = run(capsys, "complement", pair_file)
    assert code == USAGE


@pytest.mark.parametrize("subset", ["1,2", "1,2,3,4"])
def test_complement_refuses_subset_not_of_size_three(subset, pair_file, tmp_path, capsys):
    # I - P then has rank 4 or 2, and no unbiased triple sums to it
    out = tmp_path / "triple.json"
    code, payload, err = run(capsys, "complement", pair_file, "--subset", subset, "--seed", "7",
                             "--out", str(out))
    assert code == USAGE
    assert payload is None
    assert "three distinct indices" in err
    assert not out.exists()


class _Interrupted(Exception):
    pass


def test_complement_out_is_complete_or_absent(pair_file, tmp_path, capsys, monkeypatch):
    def torn(doc, fh):
        fh.write('{"n": 6, "format": ')
        raise _Interrupted

    old = tmp_path / "old.json"
    old.write_bytes(b'{"old": true}')
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(json, "dump", torn)
    for out in (old, tmp_path / "new.json"):
        with pytest.raises(_Interrupted):
            main(["complement", pair_file, "--seed", "3", "--out", str(out)])
        assert sorted(tmp_path.iterdir()) == before
        assert old.read_bytes() == b'{"old": true}'


def test_hadamard_from_pair(pair_file, tmp_path, capsys):
    out = str(tmp_path / "h.json")
    code, payload, _ = run(capsys, "hadamard", "--from-pair", pair_file, "--out", out)
    assert code == OK
    assert payload["unitarity_residual"] <= 1e-12


@pytest.mark.parametrize("edit, reason, want", [
    (lambda p: [p[0] + p[1], 0 * p[1]] + p[2:], "rank 2", USAGE),  # a collapsed projector next to a rank-2 one
    (lambda p: [p[0], p[0]] + p[2:], "unitary", FAIL),  # a repeated projector
], ids=["collapsed", "repeated"])
def test_hadamard_from_pair_refuses_non_configuration(edit, reason, want, tmp_path, capsys):
    # both p-systems keep every transition-matrix modulus at 1/sqrt(6): the
    # rank-2 projector has no one basis vector (an input error), and the
    # repeated projector's phases are far from a unitary (off the variety);
    # refused before anything is written
    c = config.standard_pair(6, swap34=True)
    bad = config.pair_from_matrices(edit(list(c.p)), list(c.q))
    assert bad.residual >= 0.1
    path = tmp_path / "bad.json"
    config.save_pair(str(path), bad)
    out = tmp_path / "h.json"
    code, payload, err = run(capsys, "hadamard", "--from-pair", str(path), "--out", str(out))
    assert code == want
    assert (payload is None) == (want == USAGE)  # a point off the variety reports its residual
    assert reason in err
    assert not out.exists()


def test_commands_are_read_only_on_inputs(pair_file, capsys):
    before = open(pair_file).read()
    run(capsys, "verify", pair_file)
    run(capsys, "invariants", pair_file)
    run(capsys, "membership", pair_file)
    assert open(pair_file).read() == before


def test_output_full_precision(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    run(capsys, "standard-pair", "--n", "6", "--out", path)
    _, payload, _ = run(capsys, "invariants", path)
    # shortest round-trip decimals: parsing back reproduces the float exactly
    assert json.loads(json.dumps(payload)) == payload
