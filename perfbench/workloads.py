"""The four workloads: inputs made from the seed, one round of operations,
and the checks on that round's outputs.

A round always runs the same operations on the same inputs, so every round
of a run does the same work and the share of failed operations is fixed.
Program calls are timed by :meth:`Round.attempt`; the checks run outside
those timings.  Workload code calls the program through module attributes
(``tangent.moduli_tangent_report``, never a name imported from a module), so
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

import checks
from orthopair import config, continuation, invariants, relations, tangent

N = 6
TRACE_STEPS = 50
TRACE_H = 1e-2
SAMPLE_COUNT = 100
CERTIFY_POINTS = 120
# Neighbouring points of one walk are alike in how often the complement
# solver must restart, and restarts dominate the cost of a point; twelve
# short walks keep the cost of a round within a few percent across seeds.
CERTIFY_WALKS = 12
SUBTRIPLE_PAIRS = 4
WALK_STEP = 0.05        # step scale of the set-up walks that pick family points
CLI_TIMEOUT_S = 120


class Round:
    """Timings, tallies and check results of one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.busy_s = 0.0                       # time inside program calls
        self.wall_s = 0.0                       # whole round, checks included
        self.attempted = 0
        self.failed = 0
        self.timings: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.errors: list[str] = []             # failed operations
        self.problems: list[str] = []           # failed checks
        self.layer: dict[str, float] = {}       # per-layer figures of a traced round

    def attempt(self, kind: str, fn: Callable, *args, span: str | None = None, **kwargs):
        """Time one program call.  Returns (ok, result); an exception raised by
        the call is recorded as a failed operation, not propagated."""
        opened = self.tracer.span(span) if self.tracer and span else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with opened:
                return True, fn(*args, **kwargs)
        except Exception as exc:  # the round must go on and report the failure
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return False, None
        finally:
            dt = time.perf_counter() - t0
            self.busy_s += dt
            self.timings.setdefault(kind, []).append(dt)

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def check(self, what: str, fn: Callable, *args) -> bool:
        """Run one check, untimed and untraced; a failure is recorded."""
        if self.tracer:
            scope = contextlib.ExitStack()
            scope.enter_context(self.tracer.span("bench.checks"))
            scope.enter_context(self.tracer.paused())
        else:
            scope = contextlib.nullcontext()
        with scope:
            try:
                fn(what, *args)
                return True
            except checks.CheckError as exc:
                self.problems.append(str(exc))
            except Exception as exc:  # a malformed output can break a check: still a failed check
                self.problems.append(f"{what}: check raised {type(exc).__name__}: {exc}")
        return False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path, dict], object]
    run_round: Callable[[object, Round, int], None]
    details: Callable[[list[Round]], dict[str, tuple[float, str]]]


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(x) for x in rng.integers(0, 2 ** 31, size=k)]


def _family_points(rng: np.random.Generator, walks: int, length: int) -> list:
    """``walks`` seeded random walks of ``length`` points from F6 swap34 (the
    start itself excluded), concatenated."""
    start = config.fourier_phases(N, swap34=True)
    return [h for seed in _seeds(rng, walks)
            for h in continuation.sample_family(start, length + 1, seed, step_scale=WALK_STEP).points[1:]]


def _rate(n: float, seconds: list[float]) -> float:
    total = sum(seconds)
    return n / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# dimensions: certified integer answers from the dense rank kernel.
# ---------------------------------------------------------------------------


@dataclass
class Answer:
    kind: str            # "dense" (n = 6 moduli report), "fiber" or "small"
    what: str
    call: Callable
    expected: int


def setup_dimensions(seed: int, workdir: Path, env: dict) -> list[Answer]:
    rng = np.random.default_rng(seed)
    pair6 = config.standard_pair(N)
    pair6s = config.standard_pair(N, swap34=True)
    pair3 = config.standard_pair(3)
    walk = _family_points(rng, 1, 29)
    family = [walk[9], walk[19], walk[28]]
    sandwich = relations.restrict(pair6s, [1, 2, 3])
    graph33 = relations.graph_restriction(pair6s, [1, 2, 3], [1, 2, 3])
    f6, f6s, f2 = (config.fourier_phases(6), config.fourier_phases(6, swap34=True),
                   config.fourier_phases(2))
    answers = [
        Answer("dense", "moduli pair n=6", lambda: tangent.moduli_tangent_report(pair6), 4),
        Answer("dense", "moduli pair n=6 swap34", lambda: tangent.moduli_tangent_report(pair6s), 4),
        Answer("small", "moduli pair n=3", lambda: tangent.moduli_tangent_report(pair3), 0),
        Answer("dense", "moduli sandwich P=p1+p2+p3",
               lambda: tangent.a6_moduli_tangent_report(sandwich), 8),
        Answer("dense", "moduli graph 3+3", lambda: tangent.x33_moduli_tangent_report(graph33), 4),
    ]
    for k, h in enumerate(family[:2]):
        answers.append(Answer("dense", f"moduli family point {k}",
                              lambda h=h: tangent.moduli_tangent_report(config.from_hadamard(h)), 4))
        answers.append(Answer("small", f"defect family point {k}", lambda h=h: tangent.defect_report(h), 4))
    for k, h in enumerate(family):
        answers.append(Answer("fiber", f"fiber rank family point {k}", lambda h=h: tangent.fiber_rank_check(
            relations.graph_restriction(config.from_hadamard(h), [1, 2, 3], [1, 2, 3])), 3))
    answers += [
        Answer("small", "defect F6", lambda: tangent.defect_report(f6), 4),
        Answer("small", "defect F6 swap34", lambda: tangent.defect_report(f6s), 4),
        Answer("small", "defect F2", lambda: tangent.defect_report(f2), 0),
    ]
    return answers


def _agree(what: str, moduli_dim: int, defect: int) -> None:
    checks.require(moduli_dim == defect == 4,
                   f"{what}: moduli dimension {moduli_dim} and dephased defect {defect} should both be 4")


def run_dimensions(answers: list[Answer], r: Round, index: int) -> None:
    values = {}
    for a in answers:
        ok, rep = r.attempt(a.kind, a.call)
        r.tally(1, 0 if ok else 1)
        if not ok:
            continue
        if a.kind == "fiber":
            r.check(a.what, checks.fiber, rep.rank, rep.moduli_dim, rep.degenerate_u3, rep.singular_values)
            continue
        value = rep.defect if hasattr(rep, "defect") else rep.moduli_dim
        values[a.what] = value
        r.check(a.what, checks.dimension, value, a.expected, rep.gap_ratio)
    for k in range(2):
        m, d = values.get(f"moduli family point {k}"), values.get(f"defect family point {k}")
        if m is not None and d is not None:
            r.check(f"family point {k}", _agree, m, d)


def details_dimensions(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    dense = [t for r in rounds for t in r.timings.get("dense", [])]
    fiber = [t for r in rounds for t in r.timings.get("fiber", [])]
    return {"dense_report_s": (median(dense), "s"), "fiber_checks_per_s": (_rate(len(fiber), fiber), "1/s")}


# ---------------------------------------------------------------------------
# family: predictor-corrector walks, sampling, deduplication, the dump.
# ---------------------------------------------------------------------------


@dataclass
class FamilyInputs:
    start: object
    directions: list[np.ndarray]
    sample_seed: int
    dump: Path
    first: dict = field(default_factory=dict)   # round 0 outputs, for the repeat check


def setup_family(seed: int, workdir: Path, env: dict) -> FamilyInputs:
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=4)
    directions = [signs[k] * np.eye(4)[k] for k in range(4)]
    return FamilyInputs(config.fourier_phases(N, swap34=True), directions, _seeds(rng, 1)[0],
                        workdir / "family.jsonl")


def run_family(s: FamilyInputs, r: Round, index: int) -> None:
    s.dump.unlink(missing_ok=True)
    paths = {}
    for k, direction in enumerate(s.directions):
        ok, res = r.attempt("trace", continuation.trace_path, s.start, direction, TRACE_STEPS, TRACE_H)
        r.tally(TRACE_STEPS, TRACE_STEPS - res.completed_steps if ok else TRACE_STEPS)
        if ok:
            r.attempt("trace", continuation.write_family_jsonl, s.dump, res.points, res.residuals,
                      path_id=k, append=True)
            paths[k] = res.points
            r.count("trace_steps", res.completed_steps)
            r.count("corrected_points", res.completed_steps)
    ok, sample = r.attempt("sample", continuation.sample_family, s.start, SAMPLE_COUNT, s.sample_seed)
    r.tally(SAMPLE_COUNT, SAMPLE_COUNT - len(sample.points) if ok else SAMPLE_COUNT)
    if ok:
        r.attempt("sample", continuation.write_family_jsonl, s.dump, sample.points,
                  path_id=len(s.directions), append=True)
        paths[len(s.directions)] = sample.points
        r.count("sample_points", len(sample.points))
        r.count("corrected_points", len(sample.points) - 1)   # the first point is the start
    merged = [p for points in paths.values() for p in points]
    ok, reduced = r.attempt("sample", continuation.canonical_reduce, merged)
    r.count("jsonl_bytes", s.dump.stat().st_size if s.dump.exists() else 0)

    phases = {k: [p.phases for p in points] for k, points in paths.items()}
    for k, ph in phases.items():
        is_trace = k < len(s.directions)
        r.check(f"trace {k}" if is_trace else "sample", checks.unitary_points, ph)
        if is_trace:
            r.check(f"trace {k}", checks.step_lengths, ph, TRACE_H)
    r.check("family dump", lambda what: checks.jsonl_records(what, s.dump.read_text(), phases))
    if not ok:
        r.problems.append("canonical_reduce raised: " + r.errors[-1])
        return
    reduced_phases = [p.phases for p in reduced]
    outputs = {"paths": phases, "reduced": reduced_phases}
    if index == 0:
        s.first = outputs
        r.check("canonical_reduce output", checks.distinct_keys, reduced_phases)
        r.check("canonical_reduce twice", lambda what: checks.same_points(
            what, [p.phases for p in continuation.canonical_reduce(reduced)], reduced_phases, tol=1e-9))
    else:
        for k, ph in outputs["paths"].items():
            r.check(f"repeat of path {k}", checks.same_points, ph, s.first["paths"].get(k, []))
        r.check("repeat of canonical_reduce", checks.same_points, reduced_phases, s.first["reduced"])


def details_family(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    def rate(counter, kind):
        return _rate(sum(r.counters.get(counter, 0) for r in rounds),
                     [t for r in rounds for t in r.timings.get(kind, [])])

    return {"trace_steps_per_s": (rate("trace_steps", "trace"), "1/s"),
            "sample_points_per_s": (rate("sample_points", "sample"), "1/s")}


# ---------------------------------------------------------------------------
# certify: per-point certification through the invariants layer.
# ---------------------------------------------------------------------------


@dataclass
class CertifyPoint:
    hadamard: object
    solver_seed: int
    subtriples: list[tuple[list[int], list[int]]]   # 0-based (p indices, q indices)


def setup_certify(seed: int, workdir: Path, env: dict) -> list[CertifyPoint]:
    rng = np.random.default_rng(seed)
    points = _family_points(rng, CERTIFY_WALKS, CERTIFY_POINTS // CERTIFY_WALKS)
    out = []
    for h in points:
        subtriples = [(sorted(int(i) for i in rng.choice(N, 3, replace=False)),
                       sorted(int(j) for j in rng.choice(N, 3, replace=False)))
                      for _ in range(SUBTRIPLE_PAIRS)]
        out.append(CertifyPoint(h, _seeds(rng, 1)[0], subtriples))
    return out


def _certify(pt: CertifyPoint) -> dict:
    c = config.from_hadamard(pt.hadamard)
    P = c.p[0] + c.p[1] + c.p[2]
    triples = [([0, 1, 2], [0, 1, 2])] + pt.subtriples
    return {
        "membership": invariants.membership_test(c).status.value,
        "gaps": [invariants.identity_check([c.p[i] for i in ps], [c.q[j] for j in qs]).gap
                 for ps, qs in triples],
        "complement": invariants.solve_complement(P, list(c.q), seed=pt.solver_seed),
        "u": invariants.u_invariants(P, c.q[0], c.q[1], c.q[2]),
        "z": invariants.z_functions(P, list(c.q)),
    }


def run_certify(points: list[CertifyPoint], r: Round, index: int) -> None:
    for k, pt in enumerate(points):
        ok, out = r.attempt("point", _certify, pt)
        if ok and not out["complement"].success:
            r.errors.append(f"point {k}: complement solver gave up, residual {out['complement'].residual:.3g}")
            ok = False
        r.tally(1, 0 if ok else 1)
        if not ok:
            continue
        what = f"point {k}"
        P, qs = checks.point_projectors(pt.hadamard.phases)
        passed = [
            r.check(what, checks.membership, out["membership"]),
            *(r.check(f"{what} triple pair {i}", checks.identity_gap, g) for i, g in enumerate(out["gaps"])),
            r.check(f"{what} complement", checks.complement_triple, out["complement"].triple, P, qs),
            r.check(what, checks.u_affine, P, qs, out["u"].u1, out["u"].u2),
            r.check(what, checks.z_values, P, qs, *out["z"]),
        ]
        r.count("certified", all(passed))


def details_certify(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    point_s = [t for r in rounds for t in r.timings.get("point", [])]
    return {"certified_points_per_s": (_rate(sum(r.counters.get("certified", 0) for r in rounds), point_s), "1/s")}


# ---------------------------------------------------------------------------
# cli: the README command sequence as child processes.
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("standard_pair", "verify", "invariants", "tangent", "hadamard", "defect", "trace",
                "sample", "membership", "identity", "complement")
EXTENDED_COMMANDS = ("verify", "invariants", "identity")

# A fixed non-unitary conjugator: the conjugated swap34 pair is a valid,
# non-Hermitian configuration (relation residual ~2e-15).
_CONJUGATOR = (np.eye(N) + 0.25 * np.triu(np.ones((N, N)), 1)
               + 0.1j * np.tril(np.ones((N, N)), -1))


class CliFailed(RuntimeError):
    pass


class RoundTripMismatch(RuntimeError):
    pass


@dataclass
class CliInputs:
    workdir: Path
    env: dict
    q_subset: list[int]                  # 1-based, for invariants (P = p1 + p2 + p3)
    identity_subsets: tuple[list[int], list[int]]
    direction: int
    sample_seed: int
    complement_seed: int
    conjugated: object


def setup_cli(seed: int, workdir: Path, env: dict) -> CliInputs:
    rng = np.random.default_rng(seed)

    def subset():
        return sorted(int(i) + 1 for i in rng.choice(N, 3, replace=False))

    pair = config.standard_pair(N, swap34=True)
    s_inv = np.linalg.inv(_CONJUGATOR)
    conjugated = config.pair_from_matrices([_CONJUGATOR @ p @ s_inv for p in pair.p],
                                           [_CONJUGATOR @ q @ s_inv for q in pair.q])
    q_subset = subset()
    identity = (subset(), subset())
    direction = int(rng.integers(4))
    sample_seed, complement_seed = _seeds(rng, 2)
    return CliInputs(workdir, env, q_subset, identity, direction, sample_seed, complement_seed, conjugated)


def _orthopair(s: CliInputs, *argv: str) -> str:
    proc = subprocess.run([sys.executable, "-m", "orthopair.cli", *argv], cwd=s.workdir, env=s.env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise CliFailed(f"exit {proc.returncode}: {tail[0]}")
    return proc.stdout


def _bases_round_trip(c, path: Path) -> str:
    """Save in the bases format and load back; refusing is a pass, a silent change is not."""
    try:
        config.save_pair(path, c, fmt="bases")
        back = config.load_pair(path)
    except ValueError:
        return "refused"
    dev = max(float(np.max(np.abs(a - b))) for a, b in zip(back.matrices(), c.matrices()))
    if dev > 1e-12:
        raise RoundTripMismatch(f"bases file loads back as another configuration: entries off by "
                                f"{dev:.3g}, relation residual {back.residual:.3g}")
    return "equal"


def _comma(idx) -> str:
    return ",".join(str(i) for i in idx)


def run_cli(s: CliInputs, r: Round, index: int) -> None:
    p_id, q_id = s.identity_subsets
    q_inv = _comma(s.q_subset)
    commands = [
        ("standard_pair", ["standard-pair", "--n", "6", "--swap34", "--out", "pair.json"]),
        ("verify", ["verify", "pair.json", "--tol", "1e-12"]),
        ("invariants", ["invariants", "pair.json", "--p-subset", "1,2,3", "--q-subset", q_inv]),
        ("tangent", ["tangent", "pair.json"]),
        ("hadamard", ["hadamard", "--fourier", "6", "--swap34", "--out", "f6.json"]),
        ("defect", ["defect", "f6.json"]),
        ("trace", ["trace", "--start", "f6.json", "--direction", str(s.direction), "--steps",
                   str(TRACE_STEPS), "--step", repr(TRACE_H), "--out", "path.jsonl"]),
        ("sample", ["sample", "--start", "f6.json", "--count", str(SAMPLE_COUNT), "--seed",
                    str(s.sample_seed), "--out", "family.jsonl"]),
        ("membership", ["membership", "pair.json"]),
        ("identity", ["identity", "pair.json", "--p-subset", _comma(p_id), "--q-subset", _comma(q_id)]),
        ("complement", ["complement", "pair.json", "--subset", "1,2,3", "--seed",
                        str(s.complement_seed), "--out", "triple.json"]),
        ("verify_extended", ["verify", "pair.json", "--tol", "1e-12", "--precision", "extended"]),
        ("invariants_extended", ["invariants", "pair.json", "--p-subset", "1,2,3", "--q-subset", q_inv,
                                 "--precision", "extended"]),
        ("identity_extended", ["identity", "pair.json", "--p-subset", _comma(p_id), "--q-subset",
                               _comma(q_id), "--precision", "extended"]),
    ]
    for name in ("pair.json", "f6.json", "path.jsonl", "family.jsonl", "triple.json"):
        (s.workdir / name).unlink(missing_ok=True)
    docs = {}

    def parse(what: str, stdout: str) -> None:
        docs[what] = checks.cli_json(what, stdout)

    for name, argv in commands:
        ok, stdout = r.attempt(f"cli.{name}", _orthopair, s, *argv, span=f"cli.{name}")
        r.tally(1, 0 if ok else 1)
        if ok:
            r.check(name, parse, stdout)
    ok, _ = r.attempt("round_trip", _bases_round_trip, s.conjugated, s.workdir / "conjugated.json")
    r.tally(1, 0 if ok else 1)
    _check_cli(s, r, docs)


def _check_cli(s: CliInputs, r: Round, docs: dict) -> None:
    def have(*names):
        return all(n in docs for n in names)

    p_id, q_id = s.identity_subsets
    if have("verify"):
        r.check("verify", lambda what, d: checks.require(d["ok"] is True, f"{what}: pair does not verify"),
                docs["verify"])
    if have("invariants"):
        r.check("invariants", checks.u_exact, docs["invariants"], [1, 2, 3], s.q_subset)
    if have("tangent"):
        r.check("tangent", lambda what, d: checks.dimension(what, d["moduli_dim"], 4, d["gap_ratio"]),
                docs["tangent"])
    if have("defect"):
        r.check("defect", lambda what, d: checks.dimension(what, d["moduli_dim"], 4, d["gap_ratio"]),
                docs["defect"])
    if have("trace"):
        r.check("trace", lambda what, d: checks.require(d["steps_completed"] == TRACE_STEPS,
                                                        f"{what}: {d['steps_completed']} steps"), docs["trace"])
        r.check("trace dump", _check_dump, s.workdir / "path.jsonl", TRACE_H)
    if have("sample"):
        r.check("sample", lambda what, d: checks.require(d["count"] == SAMPLE_COUNT,
                                                         f"{what}: {d['count']} points"), docs["sample"])
        r.check("sample dump", _check_dump, s.workdir / "family.jsonl", None)
    if have("membership"):
        r.check("membership", lambda what, d: checks.membership(what, d["status"]), docs["membership"])
    if have("identity"):
        r.check("identity", checks.identity_exact, docs["identity"], p_id, q_id)
    if have("complement"):
        r.check("complement", _check_triple_file, s.workdir / "triple.json")
    if have("verify", "verify_extended"):
        r.check("verify extended", checks.extended_agrees, docs["verify"], docs["verify_extended"],
                ["categories", "max_residual"])
    if have("invariants", "invariants_extended"):
        r.check("invariants extended", checks.extended_agrees, docs["invariants"],
                docs["invariants_extended"], ["u1", "u2", "u3", "z1", "z2"])
    if have("identity", "identity_extended"):
        r.check("identity extended", checks.extended_agrees, docs["identity"],
                docs["identity_extended"], ["lhs", "rhs"])


def _check_dump(what: str, path: Path, h: float | None) -> None:
    text = path.read_text()
    phases = [np.array(json.loads(line)["phases"], dtype=float) for line in text.splitlines()]
    checks.jsonl_records(what, text, {0: phases})
    if h is None:
        checks.distinct_keys(what, phases)
    else:
        checks.step_lengths(what, phases, h)


def _check_triple_file(what: str, path: Path) -> None:
    doc = json.loads(path.read_text())
    triple = [checks.decode_matrix(m) for m in doc["p"]]
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    swap34_fourier_phases = (2 * np.pi * i * j / N)[:, checks.standard_columns()][1:, 1:]
    P, qs = checks.point_projectors(swap34_fourier_phases)
    checks.complement_triple(what, triple, P, qs)


def details_cli(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    return {"cli_sequence_s": (median(r.busy_s for r in rounds), "s")}


WORKLOADS = {
    "dimensions": Workload("dimensions", setup_dimensions, run_dimensions, details_dimensions),
    "family": Workload("family", setup_family, run_family, details_family),
    "certify": Workload("certify", setup_certify, run_certify, details_certify),
    "cli": Workload("cli", setup_cli, run_cli, details_cli),
}
