"""Command-line front end: verification harnesses and bound computations.

Every subcommand prints one machine-readable report (json, csv, or text)
carrying the seed it ran with, and exits 0 on pass, 1 on a verification
failure (the report then contains the witness or residuals), 2 on usage
or domain errors. Identical argv and seed give byte-identical JSON once
the timestamp is suppressed.
"""

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .addition import verify_addition
from .exceptions import (
    CertificateError,
    DomainError,
    IllConditionedError,
    InfeasibleError,
    InvarianceError,
    RankError,
    SingularityError,
    SphereKernError,
    UnboundedError,
)
from .expansion import (
    ScalarExpansion,
    expansion_from_dict,
    musin_coeffs,
    random_feature_expansion,
    schoenberg_coeffs,
    synth_bundle_kernel,
    synth_schoenberg,
)
from .gegenbauer import gegenbauer_table
from .kernel_core import Kernel, all_passed, check_invariance, check_pd
from .lp_bound import LPBoundProblem, LPCertificate, certify, delsarte_lp
from .sphere import _max_over_draws, map_t1, map_t2, random_config, sample_sphere

SCHEMA = 1

USAGE_EXIT = 2
FAIL_EXIT = 1

_USAGE_ERRORS = (DomainError, RankError, SingularityError)
_FAIL_ERRORS = (InvarianceError, CertificateError, InfeasibleError, UnboundedError,
                IllConditionedError)


def parse_angle(text: str) -> float:
    """Angle in radians; a trailing 'deg' marks degrees."""
    s = text.strip().lower()
    try:
        if s.endswith("deg"):
            return float(s[: -3]) * np.pi / 180.0
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an angle: {text!r} (use radians or e.g. 60deg)")


def named_kernel(name: str, n: int) -> Kernel:
    """Built-in sphere kernels for checks and demos.

    dot, const, and gegenbauer:k are invariant and p.d.; neg-dot is
    invariant but not p.d.; coord is p.d. but not invariant. The last
    two exist to make the failure paths testable.
    """
    block = {
        "dot": lambda P, i, j: np.vecdot(P[i], P[j]),
        "neg-dot": lambda P, i, j: -np.vecdot(P[i], P[j]),
        "const": lambda P, i, j: np.ones(len(i)),
        "coord": lambda P, i, j: P[i, 0] * P[j, 0],
    }
    if name in block:
        return Kernel.from_pairs(n, block[name], 0, name)
    if name.startswith("gegenbauer:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad degree in kernel name {name!r}")
        if k < 0:
            raise DomainError(f"degree must be nonnegative, got {k}")
        K = synth_schoenberg(ScalarExpansion(n, np.eye(1, k + 1, k)[0]))
        K.name = name
        return K
    raise DomainError(f"unknown kernel {name!r}; choose dot, neg-dot, const, coord, or gegenbauer:k")


def _load_json(path: str, key: str) -> dict:
    """The JSON object at path (- for stdin), or its member key when present."""
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path) as fh:
            doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get(key, doc)
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _kernel_from_args(args) -> Kernel:
    if args.kernel is not None:
        return named_kernel(args.kernel, args.n)
    doc = _load_json(args.expansion, "expansion")
    e = expansion_from_dict(doc)
    if e.n != args.n:
        raise DomainError(f"--n {args.n} does not match the expansion's n = {e.n}")
    return synth_bundle_kernel(e) if doc.get("r", 0) else synth_schoenberg(e)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _flatten(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, default=_json_default)
    return value


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    if fmt == "csv":
        keys = sorted(report)
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=",", lineterminator="\n")
        writer.writerow(keys)
        writer.writerow([_flatten(report[k]) for k in keys])
        return buf.getvalue()
    lines = [f"{k}: {_flatten(report[k])}" for k in sorted(report)]
    return "\n".join(lines) + "\n"


def emit(report: dict, args) -> None:
    text = render(report, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, command: str, payload: dict) -> dict:
    report = {"schema": SCHEMA, "command": command, "seed": args.seed}
    report.update(payload)
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report


def cmd_gegenbauer(args) -> tuple[dict, bool]:
    if args.alpha is None and args.n is None:
        raise DomainError("need --alpha or --n")
    alpha = args.alpha if args.alpha is not None else args.n / 2.0 - 1.0
    t = np.asarray(args.t, dtype=float)
    table = gegenbauer_table(alpha, args.dmax, t)
    return {"alpha": alpha, "d_max": args.dmax, "t": t.tolist(),
            "values": table.tolist()}, True


def cmd_expand(args) -> tuple[dict, bool]:
    K = named_kernel(args.kernel, args.n)
    e = schoenberg_coeffs(K, args.n, d_max=args.dmax, check_tol=args.tol, seed=args.seed)
    return {"kernel": args.kernel, "expansion": e.to_dict()}, True


def cmd_check_pd(args) -> tuple[dict, bool]:
    K = _kernel_from_args(args)
    reports = check_pd(K, trials=args.trials, m=args.m, seed=args.seed, tol=args.tol)
    ok = all_passed(reports)
    payload = {
        "kernel": args.kernel or args.expansion,
        "n": K.n,
        "r": K.r,
        "trials": args.trials,
        "m": args.m,
        "passed": ok,
        "min_eig": min(r.min_eig for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    return payload, ok


def cmd_check_invariance(args) -> tuple[dict, bool]:
    K = _kernel_from_args(args)
    rep = check_invariance(K, trials=args.trials, seed=args.seed, tol=args.tol)
    payload = {"kernel": args.kernel or args.expansion, "n": K.n, "r": K.r}
    payload.update(rep.to_dict())
    return payload, rep.passed


def cmd_synth_bundle(args) -> tuple[dict, bool]:
    e = random_feature_expansion(args.n, args.r, d_max=args.dmax, seed=args.seed)
    K = synth_bundle_kernel(e, seed=args.seed)
    pd_reports = check_pd(K, trials=args.trials, m=args.m, seed=args.seed, tol=args.tol)
    inv = check_invariance(K, trials=args.trials * 5, seed=args.seed, tol=1e-9)
    ok = all_passed(pd_reports) and inv.passed
    payload = {
        "n": args.n,
        "r": args.r,
        "d_max": args.dmax,
        "expansion": e.to_dict(),
        "pd_passed": all_passed(pd_reports),
        "pd_tol": args.tol,
        "min_eig": min(r.min_eig for r in pd_reports),
        "invariance": inv.to_dict(),
        "passed": ok,
    }
    return payload, ok


def cmd_musin(args) -> tuple[dict, bool]:
    rng = np.random.default_rng(args.seed)
    cfg = random_config(args.n, args.r, rng)
    K = named_kernel(args.kernel, args.n)
    coeffs = musin_coeffs(K, cfg, d_max=args.dmax, seed=args.seed)

    def draw(count):
        U = rng.standard_normal((count, 2, args.n))  # per sample x then y: sample_sphere's normals
        U /= np.linalg.norm(U, axis=2, keepdims=True)
        i = np.arange(0, 2 * count, 2)
        return np.abs(coeffs.reconstruct(U[:, 0], U[:, 1]) - K.pairs(U.reshape(-1, args.n), i, i + 1))

    worst = _max_over_draws(draw, args.samples, "points off range(Z)")
    ok = worst < args.tol
    payload = {
        "kernel": args.kernel,
        "n": args.n,
        "r": args.r,
        "d_max": args.dmax,
        "Z": cfg.Z.tolist(),
        "samples": args.samples,
        "max_residual": worst,
        "tol": args.tol,
        "passed": ok,
    }
    return payload, ok


def cmd_verify_addition(args) -> tuple[dict, bool]:
    rep = verify_addition(args.n, args.r, args.k, samples=args.samples,
                          seed=args.seed, tol=args.tol)
    return rep.to_dict(), rep.passed


def cmd_verify_t1t2(args) -> tuple[dict, bool]:
    rng = np.random.default_rng(args.seed)

    def draw(_):
        cfg = random_config(args.n, args.r, rng)
        x = sample_sphere(args.n, 1, rng)[0]
        v, u = map_t2(cfg, x)
        return float(np.linalg.norm(map_t1(cfg, v, u) - x))

    worst = _max_over_draws(draw, args.samples, "points off range(Z)")
    ok = worst < args.tol
    return {"n": args.n, "r": args.r, "samples": args.samples,
            "max_residual": worst, "tol": args.tol, "passed": ok}, ok


def cmd_lp_bound(args) -> tuple[dict, bool]:
    p = LPBoundProblem(n=args.n, theta=args.theta, d_max=args.dmax)
    cert = delsarte_lp(p)
    return {"certificate": cert.to_dict(), "bound": cert.bound}, True


def cmd_certify(args) -> tuple[dict, bool]:
    doc = _load_json(args.input, "certificate")
    cert = LPCertificate.from_dict(doc)
    p = LPBoundProblem(n=cert.n, theta=cert.theta, d_max=cert.d_max)
    rep = certify(cert, p, tol=args.tol)
    return rep.to_dict(), rep.passed


def _add_common(sub, *, tol: float | None, tol_help: str | None = None):
    """Flags every subcommand takes; --tol only where the command reads it (tol not None)."""
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default: SPHEREKERN_SEED or 0)")
    sub.add_argument("--format", choices=["json", "csv", "text"], default="json")
    sub.add_argument("--output", default=None, help="write the report to this path")
    sub.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    if tol is not None:
        sub.add_argument("--tol", type=float, default=tol, help=tol_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spherekern",
                                     description="Invariant kernel expansions on spheres and their verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("gegenbauer", help="evaluate the polynomial family at points")
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--n", type=int, default=None, help="derive alpha = n/2 - 1")
    s.add_argument("--dmax", type=int, required=True)
    s.add_argument("--t", type=float, nargs="+", required=True)
    _add_common(s, tol=None)
    s.set_defaults(fn=cmd_gegenbauer)

    s = subs.add_parser("expand", help="expansion coefficients of an invariant kernel")
    s.add_argument("--kernel", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--dmax", type=int, default=16)
    _add_common(s, tol=1e-8)
    s.set_defaults(fn=cmd_expand)

    s = subs.add_parser("check-pd", help="sampled positive-definiteness check")
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--kernel", default=None)
    source.add_argument("--expansion", default=None, help="serialized expansion JSON to synthesize")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--m", type=int, default=40)
    _add_common(s, tol=1e-8)
    s.set_defaults(fn=cmd_check_pd)

    s = subs.add_parser("check-invariance", help="sampled rotation-invariance check")
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--kernel", default=None)
    source.add_argument("--expansion", default=None)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--trials", type=int, default=500)
    _add_common(s, tol=1e-9)
    s.set_defaults(fn=cmd_check_invariance)

    s = subs.add_parser("synth-bundle", help="random feature-map bundle kernel plus its checks")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--dmax", type=int, default=4)
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--m", type=int, default=40)
    _add_common(s, tol=1e-7, tol_help="p.d. tolerance (report key pd_tol); the invariance "
                                       "check uses the fixed 1e-9 shown in invariance.tol")
    s.set_defaults(fn=cmd_synth_bundle)

    s = subs.add_parser("musin", help="fixed-configuration coefficients and reconstruction residual")
    s.add_argument("--kernel", default="dot")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--dmax", type=int, default=8)
    s.add_argument("--samples", type=int, default=200)
    _add_common(s, tol=1e-8)
    s.set_defaults(fn=cmd_musin)

    s = subs.add_parser("verify-addition", help="check the addition identity at random points")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--samples", type=int, default=200)
    _add_common(s, tol=1e-8)
    s.set_defaults(fn=cmd_verify_addition)

    s = subs.add_parser("verify-t1t2", help="check the coordinate maps invert each other")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--samples", type=int, default=200)
    _add_common(s, tol=1e-10)
    s.set_defaults(fn=cmd_verify_t1t2)

    s = subs.add_parser("lp-bound", help="certified upper bound for spherical codes")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--theta", type=parse_angle, required=True, help="radians, or e.g. 60deg")
    s.add_argument("--dmax", type=int, default=12)
    _add_common(s, tol=None)
    s.set_defaults(fn=cmd_lp_bound)

    s = subs.add_parser("certify", help="re-verify a stored certificate at the critical points of f")
    s.add_argument("--input", required=True, help="certificate JSON path, or - for stdin")
    _add_common(s, tol=1e-9)
    s.set_defaults(fn=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = int(os.environ.get("SPHEREKERN_SEED", "0"))
    try:
        payload, ok = args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except _FAIL_ERRORS as exc:
        report = _report(args, args.command, {"passed": False, "error": str(exc)})
        emit(report, args)
        return FAIL_EXIT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    emit(_report(args, args.command, payload), args)
    return 0 if ok else FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
