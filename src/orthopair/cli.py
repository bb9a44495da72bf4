"""Command-line interface.

One binary, one subcommand per batch operation, machine-readable JSON on
stdout and human diagnostics on stderr.  Exit codes: 0 ok, 1 fail, 2
indeterminate (e.g. membership, decided by the conjugator's inertia, with
one of its "eigenvalues" within invariants.MEMBERSHIP_TOL of zero), 3 usage
or input error.  A fail is a numerical failure, such as a non-converged
SVD, or a point off the variety: every command that gates a point on a
residual of its defining equations (OffVariety) prints {"status": "fail",
"residual": ...}, mapped in one place, main.  Numeric output uses shortest
round-trip decimal (up to 17 significant digits).  Randomised commands
refuse to run without an explicit --seed so every reported number is
reproducible.  --tol is verify's residual bound; every rank cut is a
constant of the module that decides it.  --precision extended re-runs
verify, invariants and identity with >= 30-digit software arithmetic.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import config, continuation, invariants, relations, tangent
from .linalg import IndeterminateDimension, OffVariety

OK, FAIL, INDETERMINATE, USAGE = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_triple(text: str, n: int) -> list[int]:
    """Three distinct 1-based indices in 1..n; every subset option names a triple."""
    try:
        idx = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad subset {text!r}") from exc
    if len(idx) != 3 or len(set(idx)) != 3 or min(idx) < 1 or max(idx) > n:
        raise _UsageError(f"subset {text!r} must be three distinct indices in 1..{n}")
    return idx


# ---------------------------------------------------------------------------


def cmd_standard_pair(args) -> int:
    if args.n < 2:
        raise _UsageError("--n must be at least 2 (n = 1 has no orthogonal complement content)")
    c = config.standard_pair(args.n, swap34=args.swap34)
    config.save_pair(args.out, c, fmt=args.format)
    _emit({"n": args.n, "swap34": args.swap34, "residual": c.residual, "out": args.out})
    return OK


def cmd_hadamard(args) -> int:
    if args.fourier is not None:
        h = config.fourier_phases(args.fourier, swap34=args.swap34)
    else:
        c = config.load_pair(args.from_pair)
        h = config.to_hadamard(c)
    config.save_hadamard(args.out, h)
    _emit({"n": h.n, "unitarity_residual": h.unitarity_residual(), "out": args.out})
    return OK


def cmd_verify(args) -> int:
    c = config.load_pair(args.file)
    if args.precision == "extended":
        from . import xprec

        cats = xprec.pair_residual_categories_mp(c.p, c.q)
    else:
        cats = config.residual_categories(c)
    worst_name, worst = max(cats.items(), key=lambda kv: kv[1])
    ok = worst <= args.tol
    _emit({"n": c.n, "categories": cats, "max_residual": worst,
           "worst_category": worst_name, "tol": args.tol, "ok": ok})
    if not ok:
        _diag(f"verification failed: {worst_name} residual {worst:.3e} > tol {args.tol:.3e}")
    return OK if ok else FAIL


def cmd_invariants(args) -> int:
    c = config.load_pair(args.file)
    if c.n != 6:  # z2 reads q5 and q6, and the u's are normalised for dimension 6
        raise ValueError(f"invariants work on six-dimensional pairs only; got n = {c.n}")
    relations.require_relations(c.matrices(), relations.pair_relation_terms(c.n),
                                "invariants not applicable to this pair")
    p_idx = _parse_triple(args.p_subset, c.n)
    q_idx = _parse_triple(args.q_subset, c.n)
    P = sum(c.p[i - 1] for i in p_idx)
    q1, q2, q3 = (c.q[j - 1] for j in q_idx)
    if args.precision == "extended":
        from . import xprec

        u1, u2, u3, residue = xprec.u_invariants_mp_matrices(P, (q1, q2, q3))
        z1, z2 = xprec.z_functions_mp_matrices(P, c.q)
    else:
        vec = invariants.u_invariants(P, q1, q2, q3)
        u1, u2, u3, residue = vec.u1, vec.u2, vec.u3, vec.imag_residue
        z1, z2 = invariants.z_functions(P, list(c.q))
    _emit({"u1": u1, "u2": u2, "u3": u3, "z1": z1, "z2": z2, "imag_residue": residue})
    return OK


def cmd_tangent(args) -> int:
    _emit(tangent.moduli_tangent_report(config.load_pair(args.file)).to_json_dict())
    return OK


def cmd_defect(args) -> int:
    _emit(tangent.defect_report(config.load_hadamard(args.file)).to_json_dict())
    return OK


def _parse_direction(text: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        k = int(parts[0])
        if not 0 <= k < 4:
            raise _UsageError("direction index must be 0..3")
        d = np.zeros(4)
        d[k] = 1.0
        return d
    if len(parts) != 4:
        raise _UsageError("direction must be an index 0..3 or four comma-separated components")
    return np.array([float(p) for p in parts])


def cmd_trace(args) -> int:
    start = config.load_hadamard(args.start)
    direction = _parse_direction(args.direction)
    result = continuation.trace_path(start, direction, args.steps, args.step)
    continuation.write_family_jsonl(args.out, result.points, result.residuals,
                                    path_id=args.path_id, append=args.append)
    _emit({"steps_requested": result.requested_steps, "steps_completed": result.completed_steps,
           "status": result.status, "out": args.out})
    return OK if result.ok else FAIL


def cmd_sample(args) -> int:
    start = config.load_hadamard(args.start)
    sample = continuation.sample_family(start, args.count, args.seed)
    continuation.write_family_jsonl(args.out, sample.points, path_id=0, append=args.append)
    _emit({"count": len(sample.points), "seed": sample.seed,
           "metadata": sample.metadata, "out": args.out})
    return OK if len(sample.points) == args.count else FAIL


def cmd_membership(args) -> int:
    c = config.load_pair(args.file)
    result = invariants.membership_test(c)
    payload = {"status": result.status.value}
    if result.eigenvalues is not None:
        payload["eigenvalues"] = list(result.eigenvalues)
    _emit(payload)
    if result.status is invariants.Membership.BOUNDARY_INDETERMINATE:
        _diag("membership undecided: an eigenvalue of the conjugator is within tolerance of zero")
        return INDETERMINATE
    return OK


def cmd_identity(args) -> int:
    c = config.load_pair(args.file)
    p_idx = _parse_triple(args.p_subset, c.n)
    q_idx = _parse_triple(args.q_subset, c.n)
    p_triple = [c.p[i - 1] for i in p_idx]
    q_triple = [c.q[j - 1] for j in q_idx]
    rep = invariants.identity_check(p_triple, q_triple)  # the gate of both precisions
    lhs, rhs, gap = rep.lhs, rep.rhs, rep.gap
    if args.precision == "extended":
        from . import xprec

        lhs, rhs, gap = xprec.identity_sides_mp_matrices(p_triple, q_triple)
    _emit({"lhs": lhs, "rhs": rhs, "gap": gap})
    return OK


def cmd_complement(args) -> int:
    c = config.load_pair(args.file)
    idx = _parse_triple(args.subset, c.n)
    point = relations.restrict(c, idx)
    result = invariants.solve_complement(point.matrices[0], list(point.matrices[1:]), seed=args.seed)
    payload = {"success": result.success, "residual": result.residual, "attempts": result.attempts}
    if result.success and args.out:
        doc = {"n": c.n, "format": "triple",
               "p": [config.encode_matrix(m) for m in result.triple],
               "q": [config.encode_matrix(m) for m in c.q]}
        config.atomic_write(args.out, lambda fh: json.dump(doc, fh))
        payload["out"] = args.out
    _emit(payload)
    if not result.success:
        _diag(f"complement Newton did not converge; best residual {result.residual:.3e}")
        return FAIL
    return OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="orthopair", description=__doc__)
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", choices=("double", "extended"), default="double")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("standard-pair", help="write the coordinate/Fourier pair to a pair file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--swap34", action="store_true", help="exchange Fourier columns 3 and 4")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("bases", "projectors"), default="bases")
    p.set_defaults(func=cmd_standard_pair)

    p = sub.add_parser("hadamard", help="write dephased phases (from a Fourier matrix or a pair file)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fourier", type=int, metavar="N")
    group.add_argument("--from-pair", metavar="PAIRFILE")
    p.add_argument("--swap34", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("verify", parents=[precision], help="check all defining relations of a pair file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-10, help="residual bound (default 1e-10)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariants", parents=[precision], help="emit u1,u2,u3,z1,z2 of a pair file")
    p.add_argument("file")
    p.add_argument("--p-subset", default="1,2,3")
    p.add_argument("--q-subset", default="1,2,3")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("tangent", help="moduli tangent report of a pair file")
    p.add_argument("file")
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("defect", help="dephased defect of a Hadamard file")
    p.add_argument("file")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("trace", help="trace a family path from a Hadamard file")
    p.add_argument("--start", required=True)
    p.add_argument("--direction", required=True,
                   help="frame direction: index 0..3 or four comma-separated components")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--step", type=float, default=1e-2)
    p.add_argument("--path-id", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--append", action="store_true",
                   help="append to --out instead of overwriting (multi-path dumps)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sample", help="random-walk sample of the family")
    p.add_argument("--start", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--append", action="store_true",
                   help="append to --out instead of overwriting (multi-path dumps)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("membership", help="real-locus membership of a pair file")
    p.add_argument("file")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("identity", parents=[precision], help="trace identity on sub-triples of a pair file")
    p.add_argument("file")
    p.add_argument("--p-subset", default="1,2,3")
    p.add_argument("--q-subset", default="1,2,3")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("complement",
                       help="solve for the complementary unbiased triple of a partial sum")
    p.add_argument("file")
    p.add_argument("--subset", default="1,2,3")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_complement)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 < getattr(args, "tol", 1.0) < np.inf:  # also false for nan
            raise _UsageError(f"--tol must be finite and positive, got {args.tol}")
        return args.func(args)
    except _UsageError as exc:
        _diag(f"usage error: {exc}")
        return USAGE
    except IndeterminateDimension as exc:
        _emit({"status": "indeterminate", "gap_ratio": exc.gap_ratio,
               "singular_values": [float(x) for x in exc.singular_values]})
        _diag(str(exc))
        return INDETERMINATE
    except OffVariety as exc:  # before the input errors: a refused point is a fail
        _emit({"status": "fail", "residual": exc.residual})
        _diag(f"off the variety: {exc}")
        return FAIL
    except (np.linalg.LinAlgError, ArithmeticError) as exc:  # after the gap refusal; no input error
        _diag(f"numerical failure: {exc}")
        return FAIL
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        _diag(f"input error: {exc}")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
