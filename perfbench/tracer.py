"""Spans around calls into the orthopair layers, recorded from outside.

The tracer replaces the module-level names through which one layer calls
another (``continuation.newton_correct``, ``tangent.evaluate_word``,
``config.spectral_norm``, ``numpy.linalg.svd``, ...) with timing wrappers.
Every orthopair module that holds a reference to a wrapped function gets the
wrapper, so calls are seen whichever module makes them.  Python resolves a
module global at call time, so installing and removing the wrappers between
rounds is enough; the program itself is not changed.

Each span is a list ``[name, start, end, parent, extra]``: ``parent`` is the
index of the enclosing span (-1 for a top-level span) and ``extra`` what
was read from the call's arguments or return value, such as the corrector
iterations of a ``CorrectorResult`` or the shape-derived cost of an SVD.  Spans stay in memory until the run
ends; :func:`write_spans` dumps them.
"""

from __future__ import annotations

import contextlib
import sys
import time
from statistics import median

import numpy as np

from orthopair import config, continuation, invariants, linalg, relations, tangent

NAME, START, END, PARENT, EXTRA = range(5)


def _svd_cost(args, kwargs) -> tuple[float, float]:
    """(LAPACK operation count, matrix entries) of one SVD, from the input shape.

    Golub & Van Loan, *Matrix Computations*, 4th ed., Fig. 8.6.1, for an
    m x n matrix with m >= n: values only 4mn^2 - 4n^3/3; thin factors
    14mn^2 + 8n^3; full U 4m^2n + 8mn^2 + 9n^3.  A complex flop counts four
    real ones.
    """
    a = np.asarray(args[0])
    m, n = a.shape[-2:]
    m, n = max(m, n), min(m, n)
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif full:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 14 * m * n * n + 8 * n ** 3
    if np.iscomplexobj(a):
        flops *= 4
    return float(flops * batch), float(m * n)


# (module, attribute, span name, what to record in ``extra``)
TARGETS = [
    (config, "from_hadamard", "config.from_hadamard", None),
    (config, "pair_from_matrices", "config.pair_from_matrices", None),
    (config, "save_pair", "config.save_pair", None),
    (config, "load_pair", "config.load_pair", None),
    (relations, "evaluate_word", "relations.evaluate_word", None),
    (relations, "evaluate_relations", "relations.evaluate_relations", None),
    (relations, "commutant_dimension", "relations.commutant_dimension", None),
    (relations, "commutator_operator", "relations.commutator_operator", None),
    (linalg, "spectral_norm", "linalg.spectral_norm", None),
    (tangent, "moduli_tangent_report", "tangent.moduli_tangent_report", None),
    (tangent, "a6_moduli_tangent_report", "tangent.a6_moduli_tangent_report", None),
    (tangent, "x33_moduli_tangent_report", "tangent.x33_moduli_tangent_report", None),
    (tangent, "fiber_rank_check", "tangent.fiber_rank_check", None),
    (tangent, "defect_report", "tangent.defect_report", None),
    (tangent, "phase_constraints", "tangent.phase_constraints", None),
    (tangent, "orbit_tangent_dim", "tangent.orbit_tangent_dim", None),
    (continuation, "newton_correct", "continuation.newton_correct",
     ("result", lambda res: float(res.iterations))),
    (continuation, "tangent_frame", "continuation.tangent_frame", None),
    (continuation, "trace_path", "continuation.trace_path", None),
    (continuation, "sample_family", "continuation.sample_family", None),
    (continuation, "canonical_reduce", "continuation.canonical_reduce", None),
    (continuation, "write_family_jsonl", "continuation.write_family_jsonl", None),
    (invariants, "u_invariants", "invariants.u_invariants", None),
    (invariants, "u_invariants_directional", "invariants.u_invariants_directional", None),
    (invariants, "z_functions", "invariants.z_functions", None),
    (invariants, "identity_check", "invariants.identity_check", None),
    (invariants, "solve_complement", "invariants.solve_complement",
     ("result", lambda res: float(res.attempts))),
    (invariants, "membership_test", "invariants.membership_test", None),
    (np.linalg, "svd", "lapack.svd", ("args", _svd_cost)),
    (np.linalg, "lstsq", "lapack.lstsq", None),
    (np.linalg, "qr", "lapack.qr", None),
    (np.linalg, "det", "lapack.det", None),
]


class Tracer:
    """In-memory span recorder; wrappers record only while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a CLI command, the checks)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _wrap(self, fn, name: str, extra):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if extra is not None:
                source, read = extra
                span[EXTRA] = read(result) if source == "result" else read(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Put a wrapper on every module-level name bound to a target function."""
        modules = [m for key, m in sys.modules.items()
                   if key == "orthopair" or key.startswith("orthopair.")]
        for owner, attr, name, extra in TARGETS:
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, extra)
            holders = modules if owner is not np.linalg else [np.linalg]
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Aggregation of one run's spans into per-layer metrics.
# ---------------------------------------------------------------------------

# metric -> span names; the time is the union of those spans' intervals,
# i.e. nested spans of the same group are counted once.
TIME_METRICS = {
    "tangent.moduli_report_s": {"tangent.moduli_tangent_report", "tangent.a6_moduli_tangent_report",
                                "tangent.x33_moduli_tangent_report"},
    "tangent.fiber_rank_s": {"tangent.fiber_rank_check"},
    "tangent.defect_s": {"tangent.defect_report"},
    "tangent.phase_constraints_s": {"tangent.phase_constraints"},
    "lapack.svd_s": {"lapack.svd"},
    "lapack.lstsq_s": {"lapack.lstsq"},
    "relations.evaluate_word_s": {"relations.evaluate_word"},
    "relations.evaluate_relations_s": {"relations.evaluate_relations"},
    "relations.commutant_s": {"relations.commutant_dimension", "relations.commutator_operator"},
    "linalg.spectral_norm_s": {"linalg.spectral_norm"},
    "config.from_hadamard_s": {"config.from_hadamard"},
    "continuation.newton_s": {"continuation.newton_correct"},
    "continuation.frame_s": {"continuation.tangent_frame"},
    "continuation.canonical_reduce_s": {"continuation.canonical_reduce"},
    "continuation.writer_s": {"continuation.write_family_jsonl"},
    "invariants.u_invariants_s": {"invariants.u_invariants"},
    "invariants.directional_s": {"invariants.u_invariants_directional"},
    "invariants.membership_s": {"invariants.membership_test"},
    "invariants.identity_s": {"invariants.identity_check"},
    "invariants.complement_s": {"invariants.solve_complement"},
    "bench.checks_s": {"bench.checks"},
}

CALL_METRICS = {
    "tangent.defect_calls": "tangent.defect_report",
    "tangent.phase_constraints_calls": "tangent.phase_constraints",
    "lapack.svd_calls": "lapack.svd",
    "lapack.lstsq_calls": "lapack.lstsq",
    "relations.evaluate_word_calls": "relations.evaluate_word",
    "linalg.spectral_norm_calls": "linalg.spectral_norm",
    "config.from_hadamard_calls": "config.from_hadamard",
    "continuation.newton_calls": "continuation.newton_correct",
    "continuation.frame_calls": "continuation.tangent_frame",
    "invariants.u_invariants_calls": "invariants.u_invariants",
}

# metric -> span name: the sum of ``extra`` over those spans
EXTRA_SUMS = {
    "continuation.corrector_iterations": "continuation.newton_correct",
    "invariants.complement_restarts": "invariants.solve_complement",
}

SELF_LAYERS = ("config", "relations", "linalg", "tangent", "continuation", "invariants", "lapack")


def round_metrics(spans: list[list], lo: int, hi: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round, the spans ``spans[lo:hi]``."""
    out = dict.fromkeys([*TIME_METRICS, *CALL_METRICS, *EXTRA_SUMS], 0.0)
    out.update({f"{layer}.self_s": 0.0 for layer in SELF_LAYERS})
    out["lapack.svd_gflop_computed"] = 0.0
    out["tangent.jacobian_max_entries"] = 0.0
    time_metrics_of: dict[str, list[str]] = {}
    for metric, names in TIME_METRICS.items():
        for name in names:
            time_metrics_of.setdefault(name, []).append(metric)
    call_metric_of = {name: metric for metric, name in CALL_METRICS.items()}
    extra_metric_of = {name: metric for metric, name in EXTRA_SUMS.items()}

    def has_ancestor(i: int, test) -> bool:
        p = spans[i][PARENT]
        while p >= lo:
            if test(spans[p][NAME]):
                return True
            p = spans[p][PARENT]
        return False

    child_time = [0.0] * (hi - lo)
    top_level = 0.0
    for i in range(lo, hi):
        name, start, end, parent, extra = spans[i]
        dur = end - start
        if parent >= lo:
            child_time[parent - lo] += dur
        else:
            top_level += dur
        for metric in time_metrics_of.get(name, ()):
            if not has_ancestor(i, TIME_METRICS[metric].__contains__):
                out[metric] += dur
        if name in call_metric_of:
            out[call_metric_of[name]] += 1
        if name in extra_metric_of:
            out[extra_metric_of[name]] += extra
        if name == "lapack.svd":
            flops, entries = extra
            out["lapack.svd_gflop_computed"] += flops * 1e-9
            if has_ancestor(i, lambda n: n.startswith("tangent.")):
                out["tangent.jacobian_max_entries"] = max(out["tangent.jacobian_max_entries"], entries)
    for i in range(lo, hi):
        name, start, end = spans[i][:3]
        layer = name.split(".", 1)[0]
        if layer in SELF_LAYERS:
            out[f"{layer}.self_s"] += (end - start) - child_time[i - lo]
    out["trace.coverage"] = top_level / wall_s if wall_s > 0 else 0.0
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {key: float(median(r[key] for r in per_round)) for key in per_round[0]}


def write_spans(path, spans: list[list]) -> None:
    """One line per span: index, name, start, end, parent (seconds, perf_counter clock)."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
