"""Command-line front end.

Subcommands: frenet, mate, indicatrix, verify, generate, classify.
Reports go to stdout as deterministic JSON; numeric tables go to CSV
files.  Diagnostics go to stderr.  Exit codes:

  0 success, 2 parse error, 3 domain error, 4 singular point without
  --mask, 5 degenerate ratio, 6 not a pair, 7 identity failure,
  8 degenerate sphere curve.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bertrand import (
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    linear_relation_fit,
    sphere_preset,
    DEFAULT_OMEGA,
    SPHERE_PRESETS,
)
from .classify import classify_curve, pair_classify, theorem_suite
from .curves import (
    cumulative_trapezoid,
    frenet_apparatus,
    frenet_grid,
    slant_geodesic_indicator,
)
from .errors import (
    DegenerateRatioError,
    DegenerateSphereCurveError,
    DomainError,
    ExprSyntaxError,
    GridMismatchError,
    IllConditionedError,
    NonConstantExponentError,
    NotAPairError,
    NotSphericalError,
    OutOfDomainError,
    SingularPointError,
    TooFewSamplesError,
    UnknownFunctionError,
)
from .indicatrix import (
    apparatus_grid,
    indicatrix_arclength_relations,
    indicatrix_curve,
)
from .io import (
    CurveFileError,
    RunReport,
    curve_to_dict,
    file_hash,
    fmt,
    load_curve,
    masked_intervals_from_flags,
    save_curve,
    write_csv,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_SINGULAR = 4
EXIT_DEGENERATE_RATIO = 5
EXIT_NOT_A_PAIR = 6
EXIT_IDENTITY = 7
EXIT_DEGENERATE_SPHERE = 8

# identity-type theorem entries: these must hold on any accepted pair,
# so a failure is an error exit, unlike the classification equivalences
IDENTITY_ENTRIES = (
    "th2",
    "th3",
    "th22",
    "eps-g-relation",
    "constraint-eq",
    "frame-relations",
    "elf-corollaries",
    "cr14",
    "cr33",
    "p1p2-constancy",
)


def thread_count() -> int:
    """The validated BERTRAND_KIT_THREADS value.  All work is single-threaded,
    so the value selects nothing; a bad value is still an input error."""
    raw = os.environ.get("BERTRAND_KIT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise CurveFileError(f"BERTRAND_KIT_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise CurveFileError(f"BERTRAND_KIT_THREADS must be >= 1, got {n}")
    return n


def _emit(report: RunReport):
    sys.stdout.write(report.to_json())
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_frenet(args) -> int:
    curve = load_curve(args.curve)
    report = RunReport(
        command="frenet",
        inputs={args.curve: file_hash(args.curve)},
        parameters={"order": args.order, "mask": bool(args.mask)},
    )
    if args.at is not None:
        ts = np.array([args.at])
        report.parameters["at"] = args.at
    else:
        lo, hi = curve.domain
        ts = np.linspace(lo, hi, args.grid)
        report.parameters["grid"] = args.grid

    order = max(args.order, 6)
    fds = frenet_grid(curve, ts, order=order)
    if not args.mask:
        for t, fd in zip(ts, fds):
            if fd is None:
                frenet_apparatus(curve, t, order=order)  # raises the point's error
    masked = np.array([fd is None for fd in fds])
    # arc length along the unmasked rows, bridging masked gaps
    kept = [fd for fd in fds if fd is not None]
    arc = cumulative_trapezoid([fd.t for fd in kept], [fd.speed for fd in kept])
    rows = []
    for fd, s in zip(kept, arc):
        rows.append(
            [fd.t, s, *fd.T, *fd.N, *fd.B, fd.kappa, fd.tau,
             fd.dkappa_ds, fd.dtau_ds, fd.d2kappa_ds2,
             slant_geodesic_indicator(fd)]
        )
    header = (
        ["t", "s", "Tx", "Ty", "Tz", "Nx", "Ny", "Nz", "Bx", "By", "Bz",
         "kappa", "tau", "dkappa_ds", "dtau_ds", "d2kappa_ds2", "Gamma"]
    )
    if args.csv:
        write_csv(args.csv, header, rows)
        report.results["csv"] = args.csv
    else:
        report.results["rows"] = rows
        report.results["columns"] = header
    report.results["n_rows"] = len(rows)
    report.masked_intervals = masked_intervals_from_flags(ts, masked)
    _emit(report)
    return EXIT_OK


def cmd_mate(args) -> int:
    base = load_curve(args.curve)
    report = RunReport(
        command="mate",
        inputs={args.curve: file_hash(args.curve)},
        parameters={"n": args.n},
    )
    if args.auto:
        # fit lam*kappa + mu*tau = 1: robust on sampled curves where the
        # derivative ratios are stencil-limited
        try:
            lam, mu, resid = linear_relation_fit(base, n=64)
        except IllConditionedError as e:
            raise DegenerateRatioError(
                f"automatic lambda unavailable: {e} (helical input?)"
            )
        if resid > 1e-3:
            raise DegenerateRatioError(
                "curvature and torsion admit no constant affine relation; "
                f"rms residual {resid:.3e}"
            )
        report.parameters["lambda_mode"] = "auto"
        report.parameters["mu"] = mu
        report.parameters["fit_residual"] = resid
    else:
        lam = args.lam
        report.parameters["lambda_mode"] = "explicit"
    report.parameters["lambda"] = lam

    mate = construct_mate(base, lam, n=args.n)
    out = args.out or "mate.json"
    save_curve(mate, out)
    report.results["mate_file"] = out
    if abs(lam) > 0:
        try:
            pair = _detect_from_files(base, mate, min(args.n, 128))
            report.results.update(
                {
                    "lambda": pair.lam,
                    "epsilon": pair.epsilon,
                    "p1": pair.p1.mean,
                    "p1_deviation": pair.p1.max_deviation,
                    "p2": pair.p2.mean,
                    "p2_deviation": pair.p2.max_deviation,
                    "q1": pair.q1.mean,
                    "q1_deviation": pair.q1.max_deviation,
                    "q2": pair.q2.mean,
                    "q2_deviation": pair.q2.max_deviation,
                }
            )
        except NotAPairError as e:
            report.results["pair_check"] = f"failed: {e}"
    _emit(report)
    return EXIT_OK


def _detect_from_files(base, mate, n):
    # file-loaded curves are usually sampled: allow stencil-level noise
    # in the alignment checks and stay clear of the one-sided end stencils
    return detect_bertrand(base, mate, n=n, tol_align=1e-4, tol_const=1e-4,
                           inset=0.01)


def _load_pair(args, n):
    base = load_curve(args.base)
    mate = load_curve(args.mate)
    pair = _detect_from_files(base, mate, n)
    inputs = {args.base: file_hash(args.base), args.mate: file_hash(args.mate)}
    return pair, inputs


def cmd_indicatrix(args) -> int:
    axis_key, side = args.kind.split("-")
    axis = {"t": "tangent", "n": "normal", "b": "binormal"}[axis_key]
    pair, inputs = _load_pair(args, min(args.n, 128))
    report = RunReport(
        command="indicatrix",
        inputs=inputs,
        parameters={"kind": args.kind, "n": args.n},
    )
    src = pair.base if side == "base" else pair.mate
    image = indicatrix_curve(src, axis, args.n)
    ts = np.linspace(pair.ts[0], pair.ts[-1], args.n)

    samples = apparatus_grid(pair, side, axis, ts)
    direct = frenet_grid(image, ts)
    masked = np.array([s is None or fdi is None for s, fdi in zip(samples, direct)])
    rows = []
    for t, s, fdi, skip in zip(ts, samples, direct, masked):
        if skip:
            continue
        gap_k = abs(abs(s.kappa_image) - fdi.kappa) / max(abs(fdi.kappa), 1e-30)
        gap_t = abs(abs(s.tau_image) - abs(fdi.tau)) / max(abs(fdi.tau), 1e-30)
        rows.append(
            [t, *s.point, float(np.linalg.norm(s.point)),
             s.kappa, s.tau, s.kappa_image, s.tau_image,
             (s.Gamma if not math.isnan(s.Gamma) else 0.0),
             fdi.kappa, fdi.tau, gap_k, gap_t]
        )
    header = ["t", "x", "y", "z", "norm", "kappa_closed", "tau_closed",
              "kappa_corrected", "tau_corrected", "Gamma_closed",
              "kappa_direct", "tau_direct", "kappa_gap", "tau_gap"]
    if args.csv:
        write_csv(args.csv, header, rows)
        report.results["csv"] = args.csv
    else:
        report.results["rows"] = rows
        report.results["columns"] = header
    report.results["n_rows"] = len(rows)
    if axis == "binormal":
        rel = indicatrix_arclength_relations(pair, side, n=min(args.n, 256))
        report.results["affine_fit"] = {
            "slope": rel.affine_fit.slope,
            "intercept": rel.affine_fit.intercept,
            "rms_residual": rel.affine_fit.rms_residual,
            "c1": rel.c1,
            "c2": rel.c2,
            "c1_deviation": rel.c1_deviation,
            "predicted_slope": rel.predicted_slope,
        }
    report.masked_intervals = masked_intervals_from_flags(ts, masked)
    _emit(report)
    return EXIT_OK


def cmd_verify(args) -> int:
    tols = {}
    for item in args.tol or []:
        key, _, val = item.partition("=")
        if not val:
            raise CurveFileError(f"--tol expects key=value, got {item!r}")
        tols[key] = float(val)
    pair, inputs = _load_pair(args, min(args.n, 256))
    report = theorem_suite(pair, n=args.n, tols=tols)

    lines = []
    failed_identity = False
    for key in sorted(report.entries):
        e = report.entries[key]
        status = "PASS" if e.passed else "FAIL"
        lines.append(
            f"{status} {key} residual={fmt(e.max_residual)} "
            f"tolerance={fmt(e.tolerance)}"
        )
        if not e.passed and key in IDENTITY_ENTRIES:
            failed_identity = True
    run = RunReport(
        command="verify",
        inputs=inputs,
        parameters={"n": args.n, "tol": {k: tols[k] for k in sorted(tols)}},
        results={
            "lines": lines,
            "entries": {
                k: {
                    "max_residual": report.entries[k].max_residual,
                    "tolerance": report.entries[k].tolerance,
                    "passed": report.entries[k].passed,
                    "masked_fraction": report.entries[k].masked_fraction,
                    "note": report.entries[k].note,
                }
                for k in sorted(report.entries)
            },
        },
    )
    _emit(run)
    return EXIT_IDENTITY if failed_identity else EXIT_OK


def cmd_generate(args) -> int:
    if args.sphere_curve in SPHERE_PRESETS:
        seed = sphere_preset(args.sphere_curve)
        inputs = {}
        omega = args.omega if args.omega is not None else DEFAULT_OMEGA.get(
            args.sphere_curve, math.pi / 3.0
        )
    else:
        seed = load_curve(args.sphere_curve)
        inputs = {args.sphere_curve: file_hash(args.sphere_curve)}
        omega = args.omega if args.omega is not None else math.pi / 3.0
    curve = generate_bertrand_curve(seed, a=args.a, omega=omega, n=args.n)
    out = args.out or "generated.json"
    save_curve(curve, out)
    report = RunReport(
        command="generate",
        inputs=inputs,
        parameters={
            "sphere_curve": args.sphere_curve,
            "a": args.a,
            "omega": omega,
            "n": args.n,
        },
        results={
            "curve_file": out,
            "nominal_lambda": curve.metadata.get("nominal_lambda", args.a),
        },
    )
    _emit(report)
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.mate:
        a = load_curve(args.curve)
        b = load_curve(args.mate)
        pc = pair_classify(a, b, n=args.n, align=args.align)
        report = RunReport(
            command="classify",
            inputs={args.curve: file_hash(args.curve),
                    args.mate: file_hash(args.mate)},
            parameters={"n": args.n, "align": args.align},
            results={"verdict": pc.verdict, "evidence": pc.evidence},
        )
    else:
        curve = load_curve(args.curve)
        cc = classify_curve(curve, n=max(args.n, 64))
        report = RunReport(
            command="classify",
            inputs={args.curve: file_hash(args.curve)},
            parameters={"n": args.n},
            results={
                "planar": cc.planar,
                "general_helix": cc.general_helix,
                "slant_helix": cc.slant_helix,
                "spherical": cc.spherical,
                "metrics": cc.metrics,
            },
        )
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bertrand-kit",
        description="Bertrand curve pairs and their spherical indicatrices.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    f = sub.add_parser("frenet", help="Frenet apparatus of a curve file")
    f.add_argument("curve")
    g = f.add_mutually_exclusive_group(required=True)
    g.add_argument("--at", type=float)
    g.add_argument("--grid", type=int)
    f.add_argument("--order", type=int, default=6)
    f.add_argument("--mask", action="store_true",
                   help="mask singular points instead of failing")
    f.add_argument("--csv")
    f.set_defaults(fn=cmd_frenet)

    m = sub.add_parser("mate", help="construct the normal-offset mate")
    m.add_argument("curve")
    g = m.add_mutually_exclusive_group(required=True)
    g.add_argument("--lambda", dest="lam", type=float)
    g.add_argument("--auto", action="store_true")
    m.add_argument("--n", type=int, default=2048)
    m.add_argument("--out")
    m.set_defaults(fn=cmd_mate)

    i = sub.add_parser("indicatrix", help="spherical indicatrix tables")
    i.add_argument("base")
    i.add_argument("mate")
    i.add_argument("--kind", required=True,
                   choices=[f"{a}-{s}" for a in "tnb" for s in ("base", "mate")])
    i.add_argument("--n", type=int, default=256)
    i.add_argument("--csv")
    i.set_defaults(fn=cmd_indicatrix)

    v = sub.add_parser("verify", help="run the identity suite on a pair")
    v.add_argument("base")
    v.add_argument("mate")
    v.add_argument("--n", type=int, default=256)
    v.add_argument("--tol", action="append", metavar="KEY=VALUE")
    v.set_defaults(fn=cmd_verify)

    gen = sub.add_parser("generate", help="generate a Bertrand curve")
    gen.add_argument("--sphere-curve", required=True,
                     help="preset name or spherical curve file")
    gen.add_argument("--a", type=float, default=1.0)
    gen.add_argument("--omega", type=float)
    gen.add_argument("--n", type=int, default=4096)
    gen.add_argument("--out")
    gen.set_defaults(fn=cmd_generate)

    c = sub.add_parser("classify", help="classify a curve or a pair")
    c.add_argument("curve")
    c.add_argument("mate", nargs="?")
    c.add_argument("--n", type=int, default=128)
    c.add_argument("--align", choices=["param", "arclength"], default="param")
    c.set_defaults(fn=cmd_classify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        thread_count()  # validate up front
        return args.fn(args)
    except (ExprSyntaxError, UnknownFunctionError, NonConstantExponentError,
            CurveFileError, TooFewSamplesError, GridMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, OutOfDomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except SingularPointError as e:
        print(f"error: {e} (pass --mask to skip singular points)", file=sys.stderr)
        return EXIT_SINGULAR
    except DegenerateRatioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE_RATIO
    except NotAPairError as e:
        print(f"error: not a Bertrand pair ({e.reason}): {e}", file=sys.stderr)
        return EXIT_NOT_A_PAIR
    except (DegenerateSphereCurveError, NotSphericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE_SPHERE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
