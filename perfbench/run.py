"""orthopair benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload dimensions --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up its inputs from the seed (three times, reporting the median
set-up time), then runs whole rounds of the workload's operations until the
next round would end after ``--seconds``.  With ``--trace 1`` rounds
alternate between untraced and traced, and the per-layer figures come from
the traced ones.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric for a reader.  Scratch files live under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("dimensions", "family", "certify", "cli")
SETUP_REPEATS = 3
IMPORT_CODE = "import time; t = time.perf_counter(); import orthopair.cli; print(time.perf_counter() - t)"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env: dict) -> float:
    """Import time of the whole package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    blas, threads = "unknown", -1
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                threads, blas = get_threads(), get_config().decode().split("  ")[0]
                break
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": threads, "nproc": os.cpu_count()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    env = child_env()
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds(env))
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir, env)
        setups.append(imports[-1] + time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        r = workloads.Round(tracer if traced else None)
        lo = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.run_round(state, r, len(rounds))
        finally:
            if traced:
                tracer.uninstall()
        r.wall_s = time.perf_counter() - t0
        if traced:
            r.layer = tracing.round_metrics(tracer.spans, lo, len(tracer.spans), r.wall_s)
        rounds.append(r)
        elapsed = time.perf_counter() - t_start
        if (not trace or len(rounds) >= 2) and elapsed + r.wall_s > seconds:
            break

    result = {
        "correct": all(not r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if trace:
        metrics = per_layer_metrics(rounds, imports)
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"spans-{name}-seed{seed}.tsv", tracer.spans)
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
        busy = [r.busy_s for r in rounds]
        values = {
            "setup_s": median(setups),
            "ops_per_s": (result["attempted"] - result["failed"]) / sum(busy),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        result["details"] = {k: {"value": v, "unit": u} for k, (v, u) in wl.details(rounds).items()}
    result["metrics"] = metrics
    result["rounds"] = [r.busy_s for r in rounds]
    result["errors"] = sorted({e for r in rounds for e in r.errors})
    result["problems"] = sorted({p for r in rounds for p in r.problems})
    return result


def per_layer_metrics(rounds: list, imports: list[float]) -> dict:
    import tracer as tracing
    import workloads

    traced, untraced = rounds[1::2], rounds[0::2]
    for r in traced:
        calls = r.layer["continuation.newton_calls"]
        accepted = r.counters.get("corrected_points", 0.0)
        r.layer["continuation.accepted_per_newton"] = accepted / calls if calls else 0.0
        r.layer["continuation.jsonl_bytes"] = r.counters.get("jsonl_bytes", 0.0)
    values = tracing.median_metrics([r.layer for r in traced])
    values["cli.import_s"] = median(imports)
    commands = [(f"cli.{c}", f"cli.{c}_s") for c in workloads.CLI_COMMANDS]
    commands += [(f"cli.{c}_extended", f"xprec.{c}_extended_s") for c in workloads.EXTENDED_COMMANDS]
    for kind, metric in commands:
        values[metric] = median(r.timings[kind][0] for r in rounds) \
            if all(kind in r.timings for r in rounds) else 0.0
    traced_s = median(r.busy_s for r in traced)
    values["trace.round_s"] = traced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s / median(r.busy_s for r in untraced) - 1.0)
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return {"lapack.svd_gflop_computed": "GFLOP", "continuation.jsonl_bytes": "bytes",
            "continuation.accepted_per_newton": "ratio", "trace.coverage": "ratio"}.get(name, "count")


def report(name: str, seed: int, result: dict, env: dict) -> None:
    print(f"workload {name} seed {seed} attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    print(f"rounds {len(result['rounds'])} busy_s " + " ".join(f"{t:.4f}" for t in result["rounds"]))
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for section in ("metrics", "details"):
        for key, m in result.get(section, {}).items():
            print(f"{'metric' if section == 'metrics' else 'detail'} {key} {m['value']:.6g} {m['unit']}")
    for e in result["errors"]:
        print(f"failed operation: {e}", file=sys.stderr)
    for p in result["problems"]:
        print(f"check failed: {p}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orthopair" / "__init__.py").is_file():
        print(f"perfbench: no orthopair sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, args.seed, result, environment())
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
