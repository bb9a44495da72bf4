"""Golden records (``tests/golden``): the README's ``trace --steps 50
--step 1e-2``, ``sample --count 100 --seed 42``, ``tangent pair.json``,
``invariants``, ``membership``, ``identity`` and ``defect`` runs, made
afresh through ``cli.main`` and compared with the records that
``tests/golden/regenerate.py`` wrote.

Exit codes, JSON keys, integers, statuses and strings must be equal.
Floats are compared to tolerances, since CI installs the latest numpy
wheels on Python 3.10 and 3.11, whose BLAS need not round as the machine
that wrote the records did:

* phases within PHASE_TOL = 1e-8 on the torus.  Each point is a correction
  converged to ||c|| <= 1e-12 and the frames are continued by Procrustes
  alignment, so a walk carries a rounding difference forward without
  amplifying it: random relative changes of 2e-16 in every c and J after
  the start moved both walks by at most 5e-15.  A change of the corrector
  or the predictor moves points by far more (the chord corrector moved
  them by up to 1.4e-2);
* invariants within INVARIANT_TOL = 1e-6: they move at most ~100 times the
  phases (``test_trace_invariants_vary_continuously``);
* residuals within CORRECTOR_TOL, the tolerance the points were corrected
  to: below it they are rounding noise;
* every other float exactly (the step scale and the tolerance).

The one input that rounding picks freely is the start frame: the phase
Jacobian's kernel is four-dimensional, so its SVD returns a basis of it
that a change of 1e-16 in J rotates by O(1), and the walks, whose
directions are given in that basis, then trace other curves.  So the
floats are compared only where the platform's start frame is the recorded
one.

The tangent record's integers and exit code must be equal, and so must
its number of singular values.  Each value is compared within
SPECTRUM_TOL = 1e-12 of the largest: those above the cut are entries of the
Fourier pair's spectrum, found to rounding, and those below it rounding
noise under 1e-14 of the largest, whereas a change of the Jacobian's rows,
columns or scales moves them by O(1) (the largest was 1.826 with the cores
of the complete systems as rows, and is 1.633 on the edge rows alone).  The
gap ratio divides by a rounding-level value, so it is only required to be
decisive.

The command records (``commands.json``) are taken at the Fourier pair and
the Fourier matrix, where every float is an exact value found to rounding
or a rounding-level zero of magnitude at most 36: the invariants, the
membership eigenvalues, the identity's sides, the residual of ``hadamard
--from-pair`` and the defect spectra (largest 0.567).  So each is compared
within RECORD_TOL = 1e-12 of its record, except the defect's gap ratio,
which is only required to be decisive, as the tangent record's.
"""

import json
import re

import numpy as np
import pytest

from golden.regenerate import COMMANDS, GOLDEN, run_commands, run_tangent, run_walks
from orthopair.continuation import CORRECTOR_TOL
from orthopair.linalg import GAP_RATIO_REQUIRED

PHASE_TOL = 1e-8
INVARIANT_TOL = 1e-6
FRAME_TOL = 1e-8
SPECTRUM_TOL = 1e-12
RECORD_TOL = 1e-12
TOLERANCES = {"phases": PHASE_TOL, "residual": CORRECTOR_TOL, "max_residual": CORRECTOR_TOL,
              "u1": INVARIANT_TOL, "u2": INVARIANT_TOL, "u3": INVARIANT_TOL, "imag_residue": INVARIANT_TOL}


def _records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


def _split(got, want, where: str = ""):
    """Assert that ``got`` and ``want`` have one structure, one key set and
    equal non-float values; yield (where, got, want) for every float."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            yield from _split(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _split(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        yield where, got, want
    else:
        assert got == want, where


@pytest.fixture(scope="module")
def walks(tmp_path_factory):
    """(fresh, recorded) pairs: the manifests without the start frame, then
    the records of each file the runs wrote; and the two start frames."""
    manifest, files = run_walks(tmp_path_factory.mktemp("golden"))
    recorded = json.loads((GOLDEN / "manifest.json").read_text())
    frames = np.array(manifest.pop("start_frame")), np.array(recorded.pop("start_frame"))
    pairs = [(manifest, recorded)]
    for run in recorded["runs"].values():
        pairs.append((_records(files[run["out"]]), _records((GOLDEN / run["out"]).read_text())))
    return pairs, frames


def test_golden_walks_keep_exit_codes_keys_integers_and_statuses(walks):
    pairs, _ = walks
    for got, want in pairs:
        list(_split(got, want))
    manifest = pairs[0][0]
    assert [run["exit"] for run in manifest["runs"].values()] == [0, 0]
    assert manifest["runs"]["trace"]["stdout"]["status"] == "ok"


def test_golden_walk_floats_within_tolerance(walks):
    pairs, (frame, recorded_frame) = walks
    if frame.shape != recorded_frame.shape or np.abs(frame - recorded_frame).max() > FRAME_TOL:
        pytest.skip("this platform's SVD returns another basis of the start's kernel: the walks trace other curves")
    for got, want in pairs:
        for where, g, w in _split(got, want):
            name = re.findall(r"\.(\w+)", where)[-1]
            if name == "phases":
                assert abs((g - w + np.pi) % (2 * np.pi) - np.pi) <= PHASE_TOL, where
            elif name in TOLERANCES:
                assert abs(g - w) <= TOLERANCES[name], where
            else:
                assert g == w, where


def test_golden_tangent_report(tmp_path):
    got = run_tangent(tmp_path)
    want = json.loads((GOLDEN / "tangent.json").read_text())
    floats = {where for where, _, _ in _split(got, want)}
    assert floats == {".stdout.gap_ratio"} | {f".stdout.singular_values[{i}]" for i in range(36)}
    assert got["exit"] == 0
    s, s_want = (np.array(run["stdout"]["singular_values"]) for run in (got, want))
    assert np.max(np.abs(s - s_want)) <= SPECTRUM_TOL * s_want[0]
    assert min(got["stdout"]["gap_ratio"], want["stdout"]["gap_ratio"]) >= GAP_RATIO_REQUIRED


@pytest.mark.parametrize("group", list(COMMANDS))
def test_golden_command_records(tmp_path, group):
    got = run_commands(tmp_path, group)
    want = json.loads((GOLDEN / "commands.json").read_text())[group]
    for where, g, w in _split(got, want):
        if where.endswith(".gap_ratio"):
            assert min(g, w) >= GAP_RATIO_REQUIRED, where
        else:
            assert abs(g - w) <= RECORD_TOL, where
    assert [run["exit"] for run in got["runs"].values()] == [0] * len(COMMANDS[group][1])
