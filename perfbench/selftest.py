"""Self-test of the benchmark's output checks, in a few seconds.

    python3 perfbench/selftest.py

Each check is run once on a correct output, which it must accept, and on
deliberately corrupted copies, which it must reject.  The correct outputs
come from the program on tiny inputs (F6, the standard pair, one short
trace).  Exits 1 if any check accepts a corrupted output or rejects a
correct one.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from orthopair import config, continuation, invariants  # noqa: E402

failures = []


def expect(name: str, accept: bool, fn, *args) -> None:
    try:
        fn(name, *args)
        accepted = True
    except checks.CheckError:
        accepted = False
    verdict = "ok" if accepted == accept else "WRONG"
    if accepted != accept:
        failures.append(name)
    print(f"{verdict:5s} {'accepts' if accept else 'rejects'} {name}")


def edit_record(text: str, index: int, edit) -> str:
    """The dump with record ``index`` changed in place by ``edit``."""
    lines = text.splitlines()
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def perturbed(phases: np.ndarray, delta: float = 1e-6) -> np.ndarray:
    out = np.array(phases, dtype=float)
    out[1, 2] += delta
    return out


def integer_answers() -> None:
    expect("dimension 4 with gap 1e14", True, checks.dimension, 4, 4, 1e14)
    expect("wrong dimension 5", False, checks.dimension, 5, 4, 1e14)
    expect("undecided gap 10", False, checks.dimension, 4, 4, 10.0)
    expect("fiber rank 3 on 4", True, checks.fiber, 3, 4, False, [1.0, 0.5, 0.1])
    expect("fiber rank 2", False, checks.fiber, 2, 4, False, [1.0, 0.5, 1e-14])
    expect("fiber degenerate point", True, checks.fiber, 2, 4, True, [1.0, 0.5, 1e-14])


def family(workdir: Path) -> None:
    start = config.fourier_phases(6, swap34=True)
    path = continuation.trace_path(start, np.eye(4)[0], 3, 1e-2)
    phases = [p.phases for p in path.points]
    expect("trace points unitary", True, checks.unitary, phases[2])
    expect("one phase off by 1e-6", False, checks.unitary, perturbed(phases[2]))
    expect("trace step lengths", True, checks.step_lengths, phases, 1e-2)
    expect("repeated trace point", False, checks.step_lengths, [phases[0], phases[1], phases[1]], 1e-2)

    u = invariants.u_invariants(*_leading(config.from_hadamard(path.points[2])))
    closed = checks.closed_form_invariants(phases[2])
    expect("closed form equals trace formula", True,
           lambda what: checks.require(max(abs(a - b) for a, b in zip(closed, (u.u1, u.u2, u.u3))) < 1e-12,
                                       f"{what}: {closed} vs {u}"))

    dump = workdir / "family.jsonl"
    continuation.write_family_jsonl(dump, path.points, path.residuals)
    text = dump.read_text()
    lines = text.splitlines()
    expect("family dump", True, checks.jsonl_records, text, {0: phases})
    expect("dump record with a phase off by 1e-6", False, checks.jsonl_records,
           edit_record(text, 1, lambda rec: rec["phases"][1].__setitem__(2, rec["phases"][1][2] + 1e-6)),
           {0: phases})
    expect("dump record with u1 off by 1e-6", False, checks.jsonl_records,
           edit_record(text, 2, lambda rec: rec["invariants"].__setitem__("u1", rec["invariants"]["u1"] + 1e-6)),
           {0: phases})
    expect("dump missing its last record", False, checks.jsonl_records, "\n".join(lines[:-1]), {0: phases})

    equivalent = start.phases[:, [1, 0, 2, 3, 4]]
    expect("distinct canonical keys", True, checks.distinct_keys, [start.phases, phases[3]])
    expect("column-permuted duplicate", False, checks.distinct_keys, [start.phases, equivalent])
    expect("bit-identical repeat", True, checks.same_points, phases, [p.copy() for p in phases])
    expect("repeat off by one ulp", False, checks.same_points, phases,
           phases[:-1] + [np.nextafter(phases[-1], 4.0)])


def _leading(c):
    return c.p[0] + c.p[1] + c.p[2], c.q[0], c.q[1], c.q[2]


def certify() -> None:
    h = continuation.trace_path(config.fourier_phases(6, swap34=True), np.eye(4)[1], 2, 1e-2).points[-1]
    c = config.from_hadamard(h)
    P, qs = checks.point_projectors(h.phases)
    expect("membership real_locus", True, checks.membership, invariants.membership_test(c).status.value)
    expect("membership theta_stable_only", False, checks.membership, "theta_stable_only")
    gap = invariants.identity_check(c.p[:3], c.q[:3]).gap
    expect("identity gap", True, checks.identity_gap, gap)
    expect("identity gap 1e-6", False, checks.identity_gap, 1e-6)

    result = invariants.solve_complement(c.p[0] + c.p[1] + c.p[2], list(c.q), seed=7)
    triple = list(result.triple)
    expect("complement triple", True, checks.complement_triple, triple, P, qs)
    expect("two members swapped for q's", False, checks.complement_triple, [qs[0], qs[1], triple[2]], P, qs)
    g = np.eye(6)
    g[[0, 0, 5, 5], [0, 5, 0, 5]] = np.cos(0.3), -np.sin(0.3), np.sin(0.3), np.cos(0.3)
    expect("triple against rotated q's", False, checks.complement_triple, triple, P,
           [g @ q @ g.T for q in qs])
    expect("triple with two members merged", False, checks.complement_triple,
           [triple[0] + triple[1], np.zeros((6, 6)), triple[2]], P, qs)

    u = invariants.u_invariants(*_leading(c))
    expect("u on its trace relations", True, checks.u_affine, P, qs, u.u1, u.u2)
    expect("u1 off by 1e-6", False, checks.u_affine, P, qs, u.u1 + 1e-6, u.u2)
    z1, z2 = invariants.z_functions(P, list(c.q))
    expect("z values", True, checks.z_values, P, qs, z1, z2)
    expect("z values off by 1e-6", False, checks.z_values, P, qs, z1 + 1e-6, z2)


def cli() -> None:
    expect("JSON stdout", True, checks.cli_json, '{"ok": true}\n')
    expect("traceback on stdout", False, checks.cli_json, "Traceback (most recent call last):\n")
    expect("u = (5, 0, 0) at q-subset 1,2,3", True, checks.u_exact, {"u1": 5.0, "u2": 0.0, "u3": 0.0},
           [1, 2, 3], [1, 2, 3])
    expect("u = (5, 0, 0) at q-subset 1,2,4", False, checks.u_exact, {"u1": 5.0, "u2": 0.0, "u3": 0.0},
           [1, 2, 3], [1, 2, 4])
    lhs, rhs = _identity_sides([1, 2, 3], [1, 2, 3])
    expect("identity sides", True, checks.identity_exact, {"lhs": lhs, "rhs": rhs, "gap": 0.0},
           [1, 2, 3], [1, 2, 3])
    expect("identity lhs off by 1e-6", False, checks.identity_exact,
           {"lhs": lhs + 1e-6, "rhs": rhs, "gap": 1e-6}, [1, 2, 3], [1, 2, 3])
    expect("extended agrees", True, checks.extended_agrees, {"u1": 5.0, "c": {"x": 1e-16}},
           {"u1": 5.0 + 1e-15, "c": {"x": 1e-31}}, ["u1", "c"])
    expect("extended off by 1e-10", False, checks.extended_agrees, {"u1": 5.0}, {"u1": 5.0 + 1e-10}, ["u1"])


def _identity_sides(p_subset, q_subset):
    c = config.standard_pair(6, swap34=True)
    rep = invariants.identity_check([c.p[i - 1] for i in p_subset], [c.q[j - 1] for j in q_subset])
    return rep.lhs, rep.rhs


def main() -> int:
    integer_answers()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        family(Path(tmp))
    certify()
    cli()
    print(f"{len(failures)} wrong verdicts" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
