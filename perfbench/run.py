"""Benchmark of bertrand-kit: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-verify --seed 1 --seconds 8 --trace 0

``--trace 0`` times whole operations with nothing recorded inside them and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` records
a span around every call into the package, counts jet requests, and
reports the per-layer metrics.  The package is imported from ``src/`` of
the same checkout, in this one process, with BERTRAND_KIT_THREADS=1.  The
last line of stdout is the JSON result; a side file under
``perfbench/results/`` keeps the environment, every operation's time,
report digest and problems, and (traced) the spans.  See README.md.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult, layer_sweep  # noqa: E402


def _probe_kernel():
    """Scalar Taylor-series arithmetic of the kind the package does: a
    Cauchy product and a quotient recurrence on 9 coefficients."""
    a = np.linspace(0.5, 1.5, 9)
    acc = 0.0
    for _ in range(10):
        c = np.convolve(a, a)[:9]
        d = np.empty(9)
        d[0] = c[0] / a[0]
        for k in range(1, 9):
            d[k] = (c[k] - float(np.dot(d[:k], a[k:0:-1]))) / a[0]
        acc += d[8]
    return acc


class SpeedMeter:
    """Machine speed sampled through the run, to scale times to one speed.

    On shared hosts the same code can run twice as slowly for a fraction
    of a second up to minutes, which no count of the program's own work
    can remove.  Every INTERVAL_S a SIGALRM handler (no thread) times
    ``_probe_kernel``, work that belongs to the benchmark and not to the
    package.  The scaled time of an interval is its wall time, less the
    samples taken inside it, times NOMINAL_S over the mean sample time in
    and around it: the seconds the interval would take at the speed where
    a sample takes NOMINAL_S.
    """

    INTERVAL_S = 0.02
    NOMINAL_S = 2.5e-4
    WINDOW_S = 0.5

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _probe_kernel()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0, t1):
        """(wall, scaled) seconds of [t0, t1], both without the samples."""
        s = np.array(self.samples[:]).reshape(-1, 2)
        at, took = s[:, 0], s[:, 1]
        wall = (t1 - t0) - took[(at >= t0) & (at < t1)].sum()
        pad = max(0.0, (self.WINDOW_S - (t1 - t0)) / 2)
        near = took[(at >= t0 - pad) & (at < t1 + pad)]
        return wall, (wall * self.NOMINAL_S / near.mean() if len(near) else math.nan)

    def summary(self):
        took = [d for _, d in self.samples]
        q = statistics.quantiles(took, n=10) if len(took) > 1 else [math.nan] * 9
        return {"samples": len(took), "sample_s_p10": q[0],
                "sample_s_p50": statistics.median(took) if took else math.nan,
                "sample_s_p90": q[-1]}


def import_package():
    """A fresh import of bertrand_kit and the submodules the workloads use."""
    for name in [m for m in sys.modules if m == "bertrand_kit" or m.startswith("bertrand_kit.")]:
        del sys.modules[name]
    bk = importlib.import_module("bertrand_kit")
    importlib.import_module("bertrand_kit.cli")
    if Path(bk.__file__).resolve().parent != (SRC / "bertrand_kit").resolve():
        raise ImportError(f"bertrand_kit imported from {bk.__file__}, not from {SRC}")
    return bk


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_sha():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bertrand_kit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "BERTRAND_KIT_THREADS": os.environ["BERTRAND_KIT_THREADS"],
        "loadavg_start": loadavg(),
    }


def median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def tail_percentile(values):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (f"op_s.p{p}", statistics.quantiles(values, n=100)[p - 1])
    return best


def run_one(wl, k, tr, workdir, seen, meter):
    """One operation on input k; exceptions and digest changes are problems."""
    try:
        res = wl.op(wl.items[k], tr, workdir)
    except Exception:
        res = OpResult(None, None, None, 0, 0, "", [traceback.format_exc(limit=4)])
    if res.digest and seen.setdefault(k, res.digest) != res.digest:
        res.problems.append("report digest differs from an earlier run of the same input")
    out = {"input": list(wl.items[k][:2]), "exact_points": res.exact_points,
           "stencil_points": res.stencil_points, "digest": res.digest,
           "problems": res.problems}
    for name in ("op", "exact", "stencil"):
        interval = getattr(res, name)
        wall, scaled = meter.seconds(*interval) if interval else (math.nan, math.nan)
        out[f"{name}_wall_s"] = wall
        out[f"{name}_s"] = scaled
    return out


def end_to_end(wl, seconds, workdir, meter):
    """Whole rounds over the input pool until ``seconds`` have passed."""
    ops, seen = [], {}
    start = time.perf_counter()
    k = 0
    while True:
        ops.append(run_one(wl, k, NullTracer(), workdir, seen, meter))
        k = (k + 1) % len(wl.items)
        if k == 0 and time.perf_counter() - start >= seconds:
            break
    # Every round visits the same inputs, whose costs differ by up to 2x;
    # the median of single operations would fall between two cost levels
    # and jump with noise, so the statistics are taken over round totals.
    n = len(wl.items)
    rounds = [ops[i:i + n] for i in range(0, len(ops), n)]
    rounds = [r for r in rounds if not any(o["problems"] for o in r)]

    def per_round(num, key):
        return median([math.fsum(num(o) for o in r) / math.fsum(o[key] for o in r)
                       for r in rounds])

    metrics = {
        "op_s.p50": 1.0 / per_round(lambda o: 1, "op_s"),
        "exact_points_per_s": per_round(lambda o: o["exact_points"], "exact_s"),
        "stencil_points_per_s": per_round(lambda o: o["stencil_points"], "stencil_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"op_wall_s.p50": 1.0 / per_round(lambda o: 1, "op_wall_s")}
    good = [o for o in ops if not o["problems"]]
    tail = tail_percentile([o["op_s"] for o in good])
    if tail:
        extra[tail[0]] = tail[1]
    return ops, metrics, extra, None


def per_layer(bk, wl, seconds, workdir, meter, previous):
    """Traced run: one plain and one traced op on input 0, the layer sweep,
    then traced rounds until ``seconds`` have passed.

    Jet counts must repeat exactly: the sweep's pipeline against a traced
    op on the same input (pair-verify), and against ``previous``, the
    counts of an earlier traced run with the same seed and sources.
    """
    tr = Tracer()
    seen = {}
    start = time.perf_counter()
    plain = run_one(wl, 0, NullTracer(), workdir, seen, meter)
    tr.op = "op0"
    traced = run_one(wl, 0, tr, workdir, seen, meter)
    op0_counts = tr.take_counts()
    ops = [plain, traced]
    tr.op = "sweep"
    try:
        counts, written, problems = layer_sweep(bk, tr, wl, workdir)
    except Exception:
        counts, written, problems = tr.take_counts(), 0, [traceback.format_exc(limit=4)]
    if any(op0_counts.values()) and op0_counts != counts:
        problems.append("jet counts differ between two pipelines on the same input")
    if previous is not None and previous != counts:
        problems.append("jet counts differ from an earlier traced run of this seed")
    ops.append({"input": "layer sweep", "problems": problems})
    k = 1 % len(wl.items)
    while time.perf_counter() - start < seconds:
        tr.op = f"op{len(ops)}"
        ops.append(run_one(wl, k, tr, workdir, seen, meter))
        k = (k + 1) % len(wl.items)

    def scaled(start, end):
        return meter.seconds(start, end)[1]

    def med(layer, name):
        return median(tr.per_unit(layer, name, scaled))

    def total(layer, name):
        return math.fsum(tr.per_unit(layer, name, scaled)) or math.nan

    m = {
        "expr.parse_s": med("expr", "parse_expression"),
        **{f"jets.evaluate_jet_s.o{k}": med("jets", f"evaluate_jet.o{k}") for k in (2, 6, 10)},
        **{f"curves.frenet_s.{kind}": med("curves", f"frenet_grid.{kind}")
           for kind in ("analytic", "sampled", "generated", "mate")},
        **counts,
        **{f"bertrand.{name}_s": med("bertrand", name)
           for name in ("generate", "construct_mate", "detect", "constraint_residual")},
        "indicatrix.frame_relations_s": total("indicatrix", "frame_relations_check"),
        "indicatrix.apparatus_grid_s": total("indicatrix", "apparatus_grid"),
        "indicatrix.arclength_relations_s": total("indicatrix", "arclength_relations"),
        "indicatrix.curve_s": total("indicatrix", "indicatrix_curve"),
        "classify.theorem_suite_s": med("classify", "theorem_suite"),
        "classify.pair_classify_s": total("classify", "pair_classify"),
        "classify.classify_curve_s": med("classify", "classify_curve"),
        "io.save_s": med("io", "save_curve"),
        "io.load_s.rebuilt": med("io", "load_curve"),
        "io.bytes_written": written,
        **{f"cli.{name}_s": med("cli", name) for name in ("generate", "mate", "verify")},
        "trace.overhead_frac": traced["op_s"] / plain["op_s"] - 1.0,
    }
    return ops, m, {}, tr.dump()


def earlier_counts(side_path, env):
    """Jet counts of an earlier traced run with these sources, or None."""
    try:
        side = json.loads(side_path.read_text())
    except (OSError, ValueError):
        return None
    if side.get("environment", {}).get("source_sha256") != env["source_sha256"]:
        return None
    return {k: v for k, v in side["metrics"].items() if k.startswith("jet_calls.")} or None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if not (SRC / "bertrand_kit" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {SRC / 'bertrand_kit'}")
    os.environ["BERTRAND_KIT_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    side_path = RESULTS / f"{stem}.json"
    workdir = RESULTS / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        with SpeedMeter() as meter:
            setup = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                bk = import_package()
                wl = WORKLOADS[args.workload](bk, random.Random(args.seed))
                setup.append(meter.seconds(t0, time.perf_counter()))
            env = environment()
            if args.trace:
                run = per_layer(bk, wl, args.seconds, workdir, meter,
                                earlier_counts(side_path, env))
            else:
                run = end_to_end(wl, args.seconds, workdir, meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops, metrics, extra, spans = run
    if not args.trace:
        metrics["setup_s"] = statistics.median(s for _, s in setup)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                         "BENCHMARK.json")

    attempted = len(ops)
    failed = sum(bool(o["problems"]) for o in ops)
    env["loadavg_end"] = loadavg()
    env["speed"] = meter.summary()
    side = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_wall_s": [w for w, _ in setup],
        "setup_s": [s for _, s in setup],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        **extra,
        "ops": ops,
    }
    side_path.write_text(json.dumps(side, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans) + "\n")
    for o in ops:
        for problem in o["problems"]:
            print(f"problem: {o['input']}: {problem}", file=sys.stderr)
    print(f"{args.workload}: {attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.3g}); details in {side_path}")

    def value(v):
        return None if isinstance(v, float) and math.isnan(v) else v

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": value(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
