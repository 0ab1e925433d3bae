"""Command-line front end.

Subcommands: frenet, mate, indicatrix, verify, generate, classify.
Reports go to stdout as deterministic JSON; numeric tables go to CSV
files.  Diagnostics go to stderr.  Exit codes are the ``EXIT_*``
constants; ``_EXIT_CODES`` maps each error type to one.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict

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
from .classify import (
    IDENTITY_ENTRIES,
    TOLERANCE_KEYS,
    _KEYLESS_ENTRIES,
    _SUITE_KEYS,
    _check_tolerance,
    classify_curve,
    pair_classify,
    theorem_suite,
)
from .curves import (
    _columns,
    _frenet_columns,
    _take_rows,
    cumulative_trapezoid,
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
    ParameterError,
    SingularPointError,
    TooFewSamplesError,
    UnknownFunctionError,
)
from .indicatrix import AXES, SIDES, _arclength_relations, _closed_forms
from .io import (
    CurveFileError,
    RunReport,
    fmt,
    masked_intervals_from_flags,
    read_inputs,
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

# the exit code and stderr hint of each error type a command may raise;
# the first type that matches wins
_EXIT_CODES = {
    **dict.fromkeys((ExprSyntaxError, UnknownFunctionError, NonConstantExponentError,
                     CurveFileError, TooFewSamplesError, GridMismatchError, ParameterError),
                    (EXIT_PARSE, "")),
    **dict.fromkeys((DomainError, OutOfDomainError), (EXIT_DOMAIN, "")),
    SingularPointError: (EXIT_SINGULAR, " (pass --mask to skip singular points)"),
    DegenerateRatioError: (EXIT_DEGENERATE_RATIO, ""),
    NotAPairError: (EXIT_NOT_A_PAIR, ""),
    **dict.fromkeys((DegenerateSphereCurveError, NotSphericalError),
                    (EXIT_DEGENERATE_SPHERE, "")),
    OSError: (EXIT_PARSE, ""),
}


def _emit(report: RunReport):
    sys.stdout.write(report.to_json())
    sys.stdout.write("\n")


def _put_table(report: RunReport, csv, header, rows):
    """The rows of a table into ``csv`` if it is given, else into the
    report beside their header; the report records the row count."""
    if csv:
        write_csv(csv, header, rows)
        report.results["csv"] = csv
    else:
        report.results["rows"] = rows
        report.results["columns"] = header
    report.results["n_rows"] = len(rows)


def _size(text):
    """argparse type of a sample or grid size: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text):
    """argparse type of a ``verify --tol`` item: KEY=VALUE as (key, value),
    the key one of ``classify.TOLERANCE_KEYS`` and the value a number
    above 0."""
    key, _, val = text.partition("=")
    try:
        value = float(val)
    except ValueError:
        value = math.nan
    if math.isnan(value) and key in TOLERANCE_KEYS:
        raise argparse.ArgumentTypeError(f"expected KEY=NUMBER, got {text!r}")
    try:
        _check_tolerance(key, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return key, value


# ---------------------------------------------------------------------------
# subcommands


def cmd_frenet(args) -> int:
    (curve,), inputs = read_inputs(args.curve)
    report = RunReport(
        command="frenet",
        inputs=inputs,
        parameters={"mask": bool(args.mask)},
    )
    if args.at is not None:
        ts = np.array([args.at])
        report.parameters["at"] = args.at
    else:
        lo, hi = curve.domain
        ts = np.linspace(lo, hi, args.grid)
        report.parameters["grid"] = args.grid

    fd, regular, errors = _frenet_columns(curve, ts)
    if errors and not args.mask:
        raise errors[0]
    # arc length along the unmasked rows, bridging masked gaps
    arc = cumulative_trapezoid(fd.t, fd.speed)
    rows = np.column_stack(
        [fd.t, arc, fd.T, fd.N, fd.B, fd.kappa, fd.tau, fd.dkappa_ds, fd.dtau_ds,
         fd.d2kappa_ds2, fd.Gamma]
    ).tolist()
    header = (
        ["t", "s", "Tx", "Ty", "Tz", "Nx", "Ny", "Nz", "Bx", "By", "Bz",
         "kappa", "tau", "dkappa_ds", "dtau_ds", "d2kappa_ds2", "Gamma"]
    )
    _put_table(report, args.csv, header, rows)
    report.masked_intervals = masked_intervals_from_flags(ts, ~regular)
    _emit(report)
    return EXIT_OK


def cmd_mate(args) -> int:
    (base,), inputs = read_inputs(args.curve)
    report = RunReport(
        command="mate",
        inputs=inputs,
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
    try:
        # no suite follows: the pair's image jets are not read
        pair = _detect_from_files(base, mate, min(args.n, 128), images=False)
        report.results.update({"lambda": pair.lam, "epsilon": pair.epsilon})
        for name in ("p1", "p2", "q1", "q2"):
            stat = getattr(pair, name)
            report.results.update({name: stat.mean, f"{name}_deviation": stat.max_deviation})
    except (NotAPairError, TooFewSamplesError) as e:
        report.results["pair_check"] = f"failed: {e}"
    _emit(report)
    return EXIT_OK


def _detect_from_files(base, mate, n, images):
    # file-loaded curves are usually sampled: allow stencil-level noise
    # in the alignment checks and stay clear of the one-sided end stencils
    return detect_bertrand(base, mate, n=n, tol_align=1e-4, tol_const=1e-4,
                           inset=0.01, images=images)


def _load_pair(args, n, images):
    """The detected pair of the base and mate files on n points, and the
    report's ``inputs``."""
    (base, mate), inputs = read_inputs(args.base, args.mate)
    return _detect_from_files(base, mate, n, images), inputs


def cmd_indicatrix(args) -> int:
    axis_key, side = args.kind.split("-")
    k = "tnb".index(axis_key)
    # one detection on the table's grid gives every column: the image's full
    # Frenet rows read its order-4 position jet, from an order-8 run
    pair, inputs = _load_pair(args, args.n, images=True)
    report = RunReport(command="indicatrix", inputs=inputs,
                       parameters={"kind": args.kind, "n": args.n})
    applies, closed = _closed_forms(side, pair.base_rows, pair.mate_rows, pair.epsilon)
    # the exact Frenet rows of the image curve, whose position jet is the frame's
    jet = pair._images[3 * SIDES.index(side) + k]
    direct, regular, _, _ = _columns(jet, jet.basepoint)
    ok = applies & regular
    s, fdi = _take_rows(closed[AXES[k]], ok[applies]), _take_rows(direct, ok[regular])
    gap_k = np.abs(np.abs(s.kappa_image) - fdi.kappa) / np.maximum(np.abs(fdi.kappa), 1e-30)
    # signed, against kappa where |tau| is small: a planar image's tau is noise
    gap_t = np.abs(s.tau_image - fdi.tau) / np.maximum(np.abs(fdi.tau), fdi.kappa)
    # the norm of each (3,) vector: a norm along axis 1 sums in another order
    norm = [np.linalg.norm(p) for p in s.point]
    rows = np.column_stack(
        [s.t, s.point, norm, s.kappa, s.tau, s.kappa_image, s.tau_image,
         np.where(np.isnan(s.Gamma), 0.0, s.Gamma), fdi.kappa, fdi.tau, gap_k, gap_t]
    ).tolist()
    header = ["t", "x", "y", "z", "norm", "kappa_closed", "tau_closed",
              "kappa_corrected", "tau_corrected", "Gamma_closed",
              "kappa_direct", "tau_direct", "kappa_gap", "tau_gap"]
    # a b kind's affine law before the table: a law that raises leaves no file
    rel = axis_key == "b" and _arclength_relations(side, pair.base_rows, pair.mate_rows,
                                                   pair.lam, pair.epsilon)
    _put_table(report, args.csv, header, rows)
    if rel:
        report.results["affine_fit"] = {
            **asdict(rel.affine_fit), "c1": rel.c1, "c2": rel.c2,
            "c1_deviation": rel.c1_deviation, "predicted_slope": rel.predicted_slope}
    # a grid point is shown where both curves, the closed forms and the image hold
    report.masked_intervals = masked_intervals_from_flags(pair.ts, ~np.isin(pair.ts, s.t))
    _emit(report)
    return EXIT_OK


def cmd_verify(args) -> int:
    tols = dict(args.tol or [])
    pair, inputs = _load_pair(args, min(args.n, 256), images=False)
    report = theorem_suite(pair, tols=tols)

    entries = {key: report.entries[key] for key in sorted(report.entries)}
    lines = [f"{'PASS' if e.passed else 'FAIL'} {key} residual={fmt(e.max_residual)} "
             f"tolerance={fmt(e.tolerance)}" for key, e in entries.items()]
    failed_identity = any(not e.passed for key, e in entries.items() if key in IDENTITY_ENTRIES)
    run = RunReport(
        command="verify",
        inputs=inputs,
        parameters={"n": args.n, "tol": {k: tols[k] for k in sorted(tols)}},
        results={"lines": lines,
                 "entries": {key: vars(e) for key, e in entries.items()}},
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
        (seed,), inputs = read_inputs(args.sphere_curve)
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
            # the generator's mate offset, +a or -a
            "nominal_lambda": curve.metadata["nominal_lambda"],
        },
    )
    _emit(report)
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.mate:
        (a, b), inputs = read_inputs(args.curve, args.mate)
        pc = pair_classify(a, b, n=args.n, align=args.align)
        report = RunReport(
            command="classify",
            inputs=inputs,
            parameters={"n": args.n, "align": args.align},
            results={"verdict": pc.verdict, "evidence": pc.evidence},
        )
    else:
        (curve,), inputs = read_inputs(args.curve)
        cc = classify_curve(curve, n=args.n)
        report = RunReport(
            command="classify",
            inputs=inputs,
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
    g.add_argument("--grid", type=_size)
    f.add_argument("--mask", action="store_true",
                   help="mask singular points instead of failing")
    f.add_argument("--csv")

    m = sub.add_parser("mate", help="construct the normal-offset mate")
    m.add_argument("curve")
    g = m.add_mutually_exclusive_group(required=True)
    g.add_argument("--lambda", dest="lam", type=float)
    g.add_argument("--auto", action="store_true")
    m.add_argument("--n", type=_size, default=2048)
    m.add_argument("--out")

    i = sub.add_parser("indicatrix", help="spherical indicatrix tables")
    i.add_argument("base")
    i.add_argument("mate")
    i.add_argument("--kind", required=True,
                   choices=[f"{a}-{s}" for a in "tnb" for s in ("base", "mate")])
    i.add_argument("--n", type=_size, default=256)
    i.add_argument("--csv")

    v = sub.add_parser(
        "verify", help="run the identity suite on a pair",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(["--tol keys and their defaults:"]
                         + [f"  {k}={_SUITE_KEYS[k].tolerance:g}" for k in TOLERANCE_KEYS]
                         + ["entries with no --tol key:"]
                         + [f"  {k}: {why}" for k, why in _KEYLESS_ENTRIES.items()]))
    v.add_argument("base")
    v.add_argument("mate")
    v.add_argument("--n", type=_size, default=256)
    v.add_argument("--tol", action="append", type=_tolerance, metavar="KEY=VALUE",
                   help="set a tolerance (repeatable)")

    gen = sub.add_parser("generate", help="generate a Bertrand curve")
    gen.add_argument("--sphere-curve", required=True,
                     help="preset name or spherical curve file")
    gen.add_argument("--a", type=float, default=1.0)
    gen.add_argument("--omega", type=float)
    gen.add_argument("--n", type=_size, default=4096)
    gen.add_argument("--out")

    c = sub.add_parser("classify", help="classify a curve or a pair")
    c.add_argument("curve")
    c.add_argument("mate", nargs="?")
    c.add_argument("--n", type=_size, default=128)
    c.add_argument("--align", choices=["param", "arclength"], default="param")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built at the first call and reused by every later
    call in the process (building it costs about 1.5 ms, mostly argparse
    formatting each argument).  A shell run makes one call, so only
    in-process callers gain.  The command is looked up as
    ``cmd_<subcommand>`` in this module at each call.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    command = globals()[f"cmd_{args.subcommand}"]
    try:
        # an overflow surfaces as a non-finite value that the checks reject
        with np.errstate(all="ignore"):
            return command(args)
    except tuple(_EXIT_CODES) as e:
        code, hint = next(v for cls, v in _EXIT_CODES.items() if isinstance(e, cls))
        print(f"error: {e}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
