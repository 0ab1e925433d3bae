"""Byte-identity record of what the command line prints and writes.

Runs a fixed matrix of ``bertrand-kit`` commands in-process, each group
in its own temporary directory, with the package under a checkout's
``src/``, and writes one record per command: its argv, its exit code
and the sha256 of its stdout, of its stderr and of each file it wrote.
Two records made from two checkouts show which commands print or write
other bytes.  Standard library only, besides the package and numpy.

    python tools/golden.py [--src CHECKOUT/src] [--out GOLDEN.json]
    python tools/golden.py --diff A.json B.json

The matrix: the four presets at their default angle and at an angle
with epsilon = +1, and tilt at 0.1 (lambda = -a), each at n = 24, 64 and
512.  Each case runs ``generate``, ``mate --auto`` of the base file and
of the mate file, ``frenet --csv`` of the base file, and on four pairs
of files ``verify``, the six ``indicatrix --csv`` kinds and ``classify``
in both alignments.  The pairs: the generated base and mate files; both
with their metadata removed, so loaded as samples; the mate beside its
own mate; and the base without metadata beside the exact mate file.
Pair commands use a grid of min(n, 128) points.  Then the error paths
of ``tests/test_degenerate.py``: the helical, planar, fast-curve and
crossing-seed chains.

``--diff`` prints the id of every command whose record differs, or that
one record lacks, with the fields that differ, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

# each preset's angles: None for its default, then one with epsilon = +1
ANGLES = {"wobble": (None, 0.5), "tilt": (None, 2.6, 0.1), "bean": (None, 2.0),
          "slant": (None, 2.5)}
SIZES = (24, 64, 512)
INDICATRIX_KINDS = [f"{axis}-{side}" for axis in "tnb" for side in ("base", "mate")]
# each pair kind's (base file, mate file) in a case's directory
PAIRS = {
    "generated": ("base.json", "mate.json"),
    "samples": ("base-samples.json", "mate-samples.json"),
    "mate-of-mate": ("mate.json", "back.json"),
    "unrecorded-base": ("base-samples.json", "mate.json"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(directory: Path) -> dict:
    return {p.name: _sha(p.read_bytes()) for p in sorted(directory.iterdir()) if p.is_file()}


class Recorder:
    """Runs commands through the package's ``cli.main`` in the working
    directory and keeps a record of each under its id."""

    def __init__(self, main):
        self.main = main
        self.commands = {}

    def run(self, key, argv):
        before = _digests(Path.cwd())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(argv)
        written = {name: digest for name, digest in _digests(Path.cwd()).items()
                   if before.get(name) != digest}
        self.commands[key] = {"argv": argv, "exit": code,
                              "stdout": _sha(out.getvalue().encode()),
                              "stderr": _sha(err.getvalue().encode()), "files": written}

    def setup(self, key, names):
        """A record of input files that the matrix wrote through the
        package, not through a command."""
        self.commands[key] = {"argv": ["setup", *names], "exit": 0,
                              "files": {name: _sha(Path(name).read_bytes()) for name in names}}


def _strip(source, target):
    """A copy of a curve file without its metadata, so that it loads as
    samples; nothing if the source was not written."""
    if Path(source).exists():
        doc = json.loads(Path(source).read_text())
        doc.pop("metadata", None)
        Path(target).write_text(json.dumps(doc))


def _case(rec, case, preset, omega, n):
    grid = str(min(n, 128))
    angle = [] if omega is None else ["--omega", repr(omega)]
    rec.run(f"{case}/generate", ["generate", "--sphere-curve", preset, *angle, "--n", str(n),
                                 "--out", "base.json"])
    rec.run(f"{case}/mate", ["mate", "base.json", "--auto", "--n", str(n), "--out", "mate.json"])
    rec.run(f"{case}/mate-of-mate", ["mate", "mate.json", "--auto", "--n", str(n),
                                     "--out", "back.json"])
    rec.run(f"{case}/frenet", ["frenet", "base.json", "--grid", grid, "--mask",
                               "--csv", "frenet.csv"])
    _strip("base.json", "base-samples.json")
    _strip("mate.json", "mate-samples.json")
    for kind, files in PAIRS.items():
        rec.run(f"{case}/{kind}/verify", ["verify", *files, "--n", grid])
        for k in INDICATRIX_KINDS:
            rec.run(f"{case}/{kind}/indicatrix-{k}",
                    ["indicatrix", *files, "--kind", k, "--n", grid, "--csv", f"{kind}-{k}.csv"])
        for align in ("param", "arclength"):
            rec.run(f"{case}/{kind}/classify-{align}",
                    ["classify", *files, "--n", grid, "--align", align])


def _error_paths(rec):
    """The CLI chains of ``tests/test_degenerate.py``, on the inputs they
    save: a circular helix and its mate (g undefined everywhere), a
    planar ellipse (no closed-form rows), a fast curve with a flat point,
    and a seed window on which 1 + f g changes sign (no pair)."""
    from bertrand_kit.bertrand import _normalized_analytic, construct_mate
    from bertrand_kit.curves import AnalyticCurve
    from bertrand_kit.io import save_curve

    helix = AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix")
    inputs = {
        "helix.json": helix,
        "helix-mate.json": construct_mate(helix, 0.5),
        "ellipse.json": AnalyticCurve("2*cos(t)", "sin(t)", "0", (0.1, 2.9)),
        "fast.json": AnalyticCurve("10*t", "t^3", "0.001*t^5", (-1.0, 1.0)),
        "seed.json": _normalized_analytic("cos(t)", "sin(t)", "0.3*sin(2*t)", (1.0, 2.0),
                                          "wobble-window"),
    }
    for name, curve in inputs.items():
        save_curve(curve, name)
    rec.setup("errors/setup", list(inputs))
    helical = ["helix.json", "helix-mate.json"]
    for key, argv in (
            ("helix/verify", ["verify", *helical, "--n", "64"]),
            *((f"helix/indicatrix-t-{side}", ["indicatrix", *helical, "--kind", f"t-{side}",
                                              "--n", "64"]) for side in ("mate", "base")),
            *((f"helix/indicatrix-b-{side}", ["indicatrix", *helical, "--kind", f"b-{side}",
                                              "--csv", f"helix-b-{side}.csv"])
              for side in ("base", "mate")),
            ("ellipse/mate", ["mate", "ellipse.json", "--lambda", "0.2", "--n", "256",
                              "--out", "ellipse-mate.json"]),
            ("ellipse/verify", ["verify", "ellipse.json", "ellipse-mate.json", "--n", "64"]),
            ("fast/frenet-mask", ["frenet", "fast.json", "--at", "1e-8", "--mask"]),
            ("fast/frenet", ["frenet", "fast.json", "--at", "1e-8"]),
            ("crossing/generate", ["generate", "--sphere-curve", "seed.json",
                                   "--omega", "2.0943951023931957", "--n", "256",
                                   "--out", "crossing.json"]),
            ("crossing/mate", ["mate", "crossing.json", "--lambda", "1", "--n", "256",
                               "--out", "crossing-mate.json"]),
            ("crossing/verify", ["verify", "crossing.json", "crossing-mate.json",
                                 "--n", "128"])):
        rec.run(f"errors/{key}", argv)


def _import_package(src: Path):
    """The package's ``cli`` and numpy, the package imported from ``src``."""
    sys.path.insert(0, str(src))
    import numpy
    import bertrand_kit
    from bertrand_kit import cli

    if not Path(bertrand_kit.__file__).resolve().is_relative_to(src):
        sys.exit(f"bertrand_kit was imported from {bertrand_kit.__file__}, not from {src}")
    return cli, numpy


def record(src: Path) -> dict:
    cli, numpy = _import_package(src)
    rec = Recorder(cli.main)
    home = os.getcwd()
    try:
        for preset, angles in ANGLES.items():
            for omega in angles:
                for n in SIZES:
                    case = f"{preset}-{'default' if omega is None else omega}-n{n}"
                    with tempfile.TemporaryDirectory() as d:
                        os.chdir(d)
                        _case(rec, case, preset, omega, n)
                        os.chdir(home)
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            _error_paths(rec)
            os.chdir(home)
    finally:
        os.chdir(home)
    return {"environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                            "machine": platform.machine()},
            "commands": rec.commands}


def diff(a: dict, b: dict) -> list:
    """The lines that name each command whose record differs between a
    and b, or that one of them lacks, with the fields that differ."""
    lines = []
    ca, cb = a["commands"], b["commands"]
    for key in [*ca, *(k for k in cb if k not in ca)]:
        if key not in ca or key not in cb:
            lines.append(f"{key}: only in {'B' if key in cb else 'A'}")
        elif ca[key] != cb[key]:
            fields = [f for f in ca[key] if ca[key][f] != cb[key].get(f)]
            lines.append(f"{key}: {', '.join(fields)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the checkout's src directory (default: this checkout's)")
    parser.add_argument("--out", type=Path, default=Path("GOLDEN.json"))
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the commands whose records differ and exit")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(path.read_text()) for path in args.diff)
        if a["environment"] != b["environment"]:
            print(f"environments differ: {a['environment']} != {b['environment']}")
        lines = diff(a, b)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(set(a['commands']) | set(b['commands']))} records differ")
        return 1 if lines else 0
    result = record(args.src.resolve())
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{len(result['commands'])} records written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
