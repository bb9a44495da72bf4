import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopair import invariants
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
])
def test_cli_flags_only_where_read(argv, pair_file, hadamard_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [a.format(out=out, pair=pair_file, hadamard=hadamard_file) for a in argv]
    code, payload, err = run(capsys, *argv)
    assert code == USAGE
    assert payload is None
    assert "unrecognized arguments" in err
    assert not out.exists()


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


def test_membership(pair_file, capsys):
    code, payload, _ = run(capsys, "membership", pair_file)
    assert code == OK
    assert payload["status"] == "real_locus"


def test_membership_boundary_exit_code(tmp_path, capsys):
    # a configuration whose conjugator has a vanishing leading minor:
    # Sylvester undecidable, exit code 2
    rng = np.random.default_rng(32)
    g = np.zeros((2, 2))
    g[0, 1] = g[1, 0] = 1.0

    def dual_system(vectors):
        out = []
        for v in vectors:
            w = g @ v
            out.append(np.outer(v, w.conj()) / np.vdot(w, v))
        return out

    def sample_system():
        while True:
            vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
            w0 = g @ vecs[0]
            if abs(np.vdot(w0, vecs[0])) < 1e-2:
                continue
            v1 = vecs[1] - vecs[0] * (np.conj(w0) @ vecs[1] / (np.conj(w0) @ vecs[0]))
            if abs(np.conj(g @ v1) @ v1) < 1e-2:
                continue
            return dual_system([vecs[0], v1])

    from orthopair.config import encode_matrix

    doc = {
        "n": 2,
        "format": "projectors",
        "p": [encode_matrix(m) for m in sample_system()],
        "q": [encode_matrix(m) for m in sample_system()],
    }
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run(capsys, "membership", str(path))
    assert code == INDETERMINATE
    assert payload["status"] == "boundary_indeterminate"


def test_membership_undecided_commutant_exit_code(tmp_path, capsys):
    # diagonal generators whose entry differences leave 2e-9 above the
    # 1e-10 cut and 4e-11 below it: the irreducibility gate has no decisive
    # gap, so membership reports the spectrum and exits 2
    from orthopair.config import encode_matrix

    a = np.diag([0.0, 2e-9, 1.0, 1.0])
    b = np.diag([0.0, 0.0, 1.0, 1.0 + 4e-11])
    doc = {"n": 4, "format": "projectors",
           "p": [encode_matrix(a)] * 4, "q": [encode_matrix(b)] * 4}
    path = tmp_path / "undecided.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run(capsys, "membership", str(path))
    assert code == INDETERMINATE
    assert payload["status"] == "indeterminate"
    assert payload["gap_ratio"] < 1e3
    assert len(payload["singular_values"]) == 16
    assert "joint commutant" in err and "gap ratio" in err


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


def test_complement_requires_seed(pair_file, capsys):
    code, _, _ = run(capsys, "complement", pair_file)
    assert code == USAGE


def test_hadamard_from_pair(pair_file, tmp_path, capsys):
    out = str(tmp_path / "h.json")
    code, payload, _ = run(capsys, "hadamard", "--from-pair", pair_file, "--out", out)
    assert code == OK
    assert payload["unitarity_residual"] <= 1e-12


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
