"""The benchmark's three workloads, their output checks and the layer sweep.

Every workload keeps a pool of four inputs built from the seed and visits
them round-robin, one input per operation.  The pool always holds one
input of each kind (preset or curve family), so the mix of cheap and
costly inputs is the same whatever the seed; the seed picks the order and
the parameters.  Only public functions of ``bertrand_kit`` are called.
"""

import contextlib
import dataclasses
import hashlib
import io as stdio
import json
import math
import os
import time

import numpy as np

# pair-verify and the layer sweep: generator nodes, detection grid, suite n
PAIR_N = 64
PAIR_GRID = 24
SUITE_N = 24
# cli-files: generate/mate --n and verify --n
CLI_N = 24
CLI_VERIFY_N = 24
# exact and stencil check tables of pair-verify and cli-files; the stencil
# table, much the cheaper, runs on a grid STENCIL_REFINE times finer so
# that its timing is not lost in the noise
CHECK_POINTS = 256
STENCIL_REFINE = 4
# frenet-table: table points, samples of the stencil curve, classify grid
TABLE_POINTS = 256
SAMPLES = 1025
CLASSIFY_N = 128

PRESETS = ("wobble", "tilt", "bean", "slant")
FAMILIES = ("helix", "twisted_cubic", "conical_helix", "trefoil")

# Stencil against exact Frenet values: relative error bound on kappa, and
# on tau measured against kappa + |tau|.  Measured worst cases: 2.4e-6 on
# 1025 analytic samples, where roundoff dominates, and 7.3e-6 on the 25
# nodes a generator with n=24 stores.
TOL_STENCIL = 1e-4
# analytic closed forms against the exact-jet path
TOL_CLOSED_FORM = 1e-10
# detected lambda against the nominal offset a
TOL_LAMBDA = 1e-6

# (planar, general_helix, slant_helix, spherical) of each family; helices
# have constant tau/kappa, so their slant indicator is identically 0
KNOWN_CLASS = {
    "helix": (False, True, True, False),
    "conical_helix": (False, True, True, False),
    "twisted_cubic": (False, False, False, False),
    "trefoil": (False, False, False, False),
}


@dataclasses.dataclass
class OpResult:
    """One operation: (start, end) perf_counter intervals of the operation
    and of its exact and stencil tables (None where not reached), the
    table sizes, the report digest and the failed checks."""

    op: tuple
    exact: tuple
    stencil: tuple
    exact_points: int
    stencil_points: int
    digest: str
    problems: list


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _num(x):
    return repr(round(x, 6))


def compare_tables(exact, stencil, tol):
    """Problems where stencil kappa/tau stray from the exact values."""
    problems = []
    worst = 0.0
    for i, (e, s) in enumerate(zip(exact, stencil)):
        if e is None or s is None:
            problems.append(f"singular point in a regular curve at table row {i}")
            continue
        scale = e.kappa + abs(e.tau)
        worst = max(worst, abs(s.kappa - e.kappa) / e.kappa, abs(s.tau - e.tau) / scale)
    if worst > tol:
        problems.append(f"stencil vs exact kappa/tau relative error {worst:.3e} > {tol:g}")
    return problems


def table_check(bk, tr, exact_curve, kind, sampled_curve, ts, tol):
    """Exact Frenet table on ``ts`` and stencil table on a grid
    STENCIL_REFINE times finer, timed, and compared where they meet."""
    fine = np.linspace(ts[0], ts[-1], STENCIL_REFINE * (len(ts) - 1) + 1)
    t0 = time.perf_counter()
    exact = tr.call("curves", f"frenet_grid.{kind}", bk.frenet_grid, exact_curve, ts,
                    units=len(ts))
    t1 = time.perf_counter()
    stencil = tr.call("curves", "frenet_grid.sampled", bk.frenet_grid, sampled_curve, fine,
                      units=len(fine))
    t2 = time.perf_counter()
    problems = compare_tables(exact, stencil[::STENCIL_REFINE], tol)
    return (t0, t1), (t1, t2), len(fine), problems


def pair_pipeline(bk, tr, seed_curve, preset, a):
    """generate -> construct_mate -> detect -> theorem_suite at the pair sizes."""
    seed = tr.watch(seed_curve, "seed")
    base = tr.call("bertrand", "generate", bk.generate_bertrand_curve, seed, a=a,
                   omega=bk.DEFAULT_OMEGA[preset], n=PAIR_N)
    base = tr.watch(base, "base")
    mate = tr.watch(tr.call("bertrand", "construct_mate", bk.construct_mate, base, a,
                            n=PAIR_N), "mate")
    pair = tr.call("bertrand", "detect", bk.detect_bertrand, base, mate, n=PAIR_GRID)
    report = tr.call("classify", "theorem_suite", bk.theorem_suite, pair, n=SUITE_N)
    return pair, report


def suite_digest(bk, report):
    entries = {k: dataclasses.asdict(report.entries[k]) for k in sorted(report.entries)}
    return _digest(bk.io.dumps(entries))


def pair_problems(pair, report, a):
    problems = [f"suite entry {k} failed" for k, e in report.entries.items() if not e.passed]
    if abs(pair.lam - a) > TOL_LAMBDA * a:
        problems.append(f"detected lambda {pair.lam!r} != nominal a {a!r}")
    if pair.epsilon != -1:
        problems.append(f"epsilon {pair.epsilon} != -1")
    return problems


def _preset_pool(bk, rng):
    order = list(PRESETS)
    rng.shuffle(order)
    return [(p, round(rng.uniform(0.5, 2.0), 6), bk.sphere_preset(p)) for p in order]


def _analytic_seed(bk, items):
    """Component texts and domain of the first analytic seed in the pool."""
    curve = next(c for _, _, c in items if isinstance(c, bk.AnalyticCurve))
    return [bk.expr.to_text(n) for n in (curve.x, curve.y, curve.z)], curve.domain


class _PresetWorkload:
    """Inputs (preset, a, seed curve), one per preset; the sweep and the
    jet-timing expressions come from the first input and analytic seed."""

    def __init__(self, bk, rng):
        self.bk = bk
        self.items = _preset_pool(bk, rng)
        self.sweep_item = self.items[0][:2]
        self.analytic = _analytic_seed(bk, self.items)


class PairVerify(_PresetWorkload):
    """The paper's path: generated pair, mate, detection, identity suite."""

    name = "pair-verify"

    def op(self, item, tr, workdir):
        bk = self.bk
        preset, a, seed_curve = item
        t0 = time.perf_counter()
        pair, report = pair_pipeline(bk, tr, seed_curve, preset, a)
        op = (t0, time.perf_counter())
        base = pair.base
        sampled = bk.SampledCurve(base.params, base.points, label="generator nodes")
        ts = np.linspace(pair.ts[0], pair.ts[-1], CHECK_POINTS)
        exact, stencil, fine, problems = table_check(
            bk, tr, base, "generated", sampled, ts, TOL_STENCIL)
        problems += pair_problems(pair, report, a)
        return OpResult(op, exact, stencil, CHECK_POINTS, fine, suite_digest(bk, report),
                        problems)


def cli_chain(bk, tr, preset, a, workdir):
    """generate -> mate --auto -> verify in ``workdir``; checks included."""
    commands = (
        ("generate", ["generate", "--sphere-curve", preset, "--a", _num(a),
                      "--n", str(CLI_N), "--out", "base.json"]),
        ("mate", ["mate", "base.json", "--auto", "--n", str(CLI_N), "--out", "mate.json"]),
        ("verify", ["verify", "base.json", "mate.json", "--n", str(CLI_VERIFY_N)]),
    )
    outs = []
    problems = []
    exact = stencil = None
    points = fine = 0
    # relative file names keep the report paths, and so the digest,
    # independent of where the checkout lives
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for f in ("base.json", "mate.json"):
            if os.path.exists(f):
                os.remove(f)
        t0 = time.perf_counter()
        for name, argv in commands:
            buf = stdio.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tr.call("cli", name, bk.cli.main, argv)
            outs.append(buf.getvalue())
            if code != 0:
                problems.append(f"{name} exited {code}")
                break
        op = (t0, time.perf_counter())
        if not problems:
            problems += _verify_problems(outs[-1])
            exact, stencil, fine, more = _file_check(bk, tr, "base.json")
            points = CHECK_POINTS
            problems += more
    finally:
        os.chdir(cwd)
    return OpResult(op, exact, stencil, points, fine, _digest("".join(outs)), problems)


def _verify_problems(stdout):
    try:
        entries = json.loads(stdout)["results"]["entries"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"verify output unreadable: {e!r}"]
    return [f"verify entry {k} failed" for k, e in entries.items() if not e["passed"]]


def _file_check(bk, tr, path):
    """The file's stored samples agree with the curve rebuilt on load."""
    rebuilt = tr.call("io", "load_curve", bk.load_curve, path)
    with open(path) as fh:
        block = json.load(fh)["sampled"]
    sampled = bk.SampledCurve(block["t"], block["points"], label="stored samples")
    lo, hi = rebuilt.domain
    pad = 1e-6 * (hi - lo)
    ts = np.linspace(lo + pad, hi - pad, CHECK_POINTS)
    return table_check(bk, tr, rebuilt, "generated", sampled, ts, TOL_STENCIL)


class CliFiles(_PresetWorkload):
    """bertrand-kit generate -> mate --auto -> verify through curve files."""

    name = "cli-files"

    def op(self, item, tr, workdir):
        preset, a, _ = item
        return cli_chain(self.bk, tr, preset, a, workdir)


def family_curve(family, rng):
    """Component texts, domain and parameters of one seeded analytic curve."""
    if family == "helix":
        r, c = rng.uniform(1.0, 4.0), rng.uniform(0.5, 3.0)
        texts = (f"{_num(r)}*cos(t)", f"{_num(r)}*sin(t)", f"{_num(c)}*t")
        return texts, (0.0, 6.0), {"r": round(r, 6), "c": round(c, 6)}
    if family == "twisted_cubic":
        a, b, c = (rng.uniform(0.5, 2.0) for _ in range(3))
        texts = (f"{_num(a)}*t", f"{_num(b)}*t^2", f"{_num(c)}*t^3")
        return texts, (-1.0, 1.0), {"a": round(a, 6), "b": round(b, 6), "c": round(c, 6)}
    if family == "conical_helix":
        k, c = rng.uniform(0.1, 0.4), rng.uniform(0.5, 2.0)
        e = f"exp({_num(k)}*t)"
        texts = (f"{e}*cos(t)", f"{e}*sin(t)", f"{_num(c)}*{e}")
        return texts, (0.0, 6.0), {"k": round(k, 6), "c": round(c, 6)}
    if family == "trefoil":
        q = rng.uniform(1.5, 2.5)
        texts = (f"sin(t) + {_num(q)}*sin(2*t)", f"cos(t) - {_num(q)}*cos(2*t)", "-sin(3*t)")
        return texts, (0.0, 6.0), {"q": round(q, 6)}
    raise ValueError(family)


def closed_form(family, p, t):
    """(kappa, tau) from the textbook formulas, where the family has them."""
    if family == "helix":
        d = p["r"] ** 2 + p["c"] ** 2
        return p["r"] / d, p["c"] / d
    if family == "twisted_cubic":
        a, b, c = p["a"], p["b"], p["c"]
        # r' = (a, 2bt, 3ct^2), r' x r'' = (6bct^2, -6act, 2ab), <r' x r'', r'''> = 12abc
        v2 = a * a + 4 * b * b * t * t + 9 * c * c * t**4
        w2 = 36 * b * b * c * c * t**4 + 36 * a * a * c * c * t * t + 4 * a * a * b * b
        return math.sqrt(w2) / v2**1.5, 12 * a * b * c / w2
    return None


class FrenetTable:
    """Exact and stencil Frenet tables of seeded analytic curves."""

    name = "frenet-table"

    def __init__(self, bk, rng):
        self.bk = bk
        order = list(FAMILIES)
        rng.shuffle(order)
        self.items = [(f, *family_curve(f, rng)) for f in order]
        self.analytic = self.items[0][1:3]
        self.sweep_item = (rng.choice(PRESETS), round(rng.uniform(0.5, 2.0), 6))

    def op(self, item, tr, workdir):
        bk = self.bk
        family, texts, domain, params = item
        t0 = time.perf_counter()
        nodes = [tr.call("expr", "parse_expression", bk.expr.parse_expression, s)
                 for s in texts]
        curve = bk.AnalyticCurve(*nodes, domain, label=family)
        ts = np.linspace(*domain, TABLE_POINTS)
        t1 = time.perf_counter()
        exact = tr.call("curves", "frenet_grid.analytic", bk.frenet_grid, curve, ts,
                        units=TABLE_POINTS)
        t2 = time.perf_counter()
        st = np.linspace(*domain, SAMPLES)
        pts = tr.call("curves", "point", lambda: np.array([curve.point(t) for t in st]),
                      units=SAMPLES)
        sampled = bk.SampledCurve(st, pts, label=f"{family} samples")
        t3 = time.perf_counter()
        stencil = tr.call("curves", "frenet_grid.sampled", bk.frenet_grid, sampled, ts,
                          units=TABLE_POINTS)
        t4 = time.perf_counter()
        cls = tr.call("classify", "classify_curve", bk.classify_curve, curve, n=CLASSIFY_N)
        op = (t0, time.perf_counter())

        problems = compare_tables(exact, stencil, TOL_STENCIL)
        for fd in exact:
            cf = closed_form(family, params, fd.t) if fd is not None else None
            if cf is not None:
                k, tau = cf
                err = max(abs(fd.kappa - k) / k, abs(fd.tau - tau) / (k + abs(tau)))
                if err > TOL_CLOSED_FORM:
                    problems.append(f"{family} closed form off by {err:.3e} at t={fd.t}")
                    break
        got = (cls.planar, cls.general_helix, cls.slant_helix, cls.spherical)
        if got != KNOWN_CLASS[family]:
            problems.append(f"{family} classified {got}, expected {KNOWN_CLASS[family]}")
        rows = [[fd.kappa, fd.tau, fd.dkappa_ds, fd.dtau_ds, fd.d2kappa_ds2]
                if fd is not None else None for fd in exact + stencil]
        digest = _digest(bk.io.dumps({"rows": rows, "class": list(got)}))
        return OpResult(op, (t1, t2), (t3, t4), TABLE_POINTS, TABLE_POINTS, digest, problems)


WORKLOADS = {w.name: w for w in (PairVerify, FrenetTable, CliFiles)}


def layer_sweep(bk, tr, wl, workdir):
    """Calls that give every per-layer metric a value on every workload.

    Layers the workload's own operations already reached keep their own
    numbers; the rest are timed here on the workload's seeded pair.  The
    indicatrix and classify calls repeat, with the same arguments, the
    ones ``theorem_suite`` makes.  Returns (jet counts of one pair
    pipeline, bytes written by io, problems).
    """
    preset, a = wl.sweep_item
    seed_curve = bk.sphere_preset(preset)
    problems = []

    def missing(layer, name):
        return not tr.per_unit(layer, name)

    texts, domain = wl.analytic
    nodes = [tr.call("expr", "parse_expression", bk.expr.parse_expression, s) for s in texts]
    for node in nodes:
        for t in np.linspace(*domain, 8):
            for order in (2, 6, 10):
                tr.call("jets", f"evaluate_jet.o{order}", bk.jets.evaluate_jet, node, t,
                        order, max_order=max(order, 8))
    if missing("curves", "frenet_grid.analytic"):
        curve = bk.AnalyticCurve(*nodes, domain)
        ts = np.linspace(*domain, 64)
        tr.call("curves", "frenet_grid.analytic", bk.frenet_grid, curve, ts, units=len(ts))

    tr.take_counts()
    pair, report = pair_pipeline(bk, tr, seed_curve, preset, a)
    counts = tr.take_counts()
    problems += pair_problems(pair, report, a)

    ts = pair.ts
    tr.call("curves", "frenet_grid.generated", bk.frenet_grid, pair.base, ts, units=len(ts))
    tr.call("curves", "frenet_grid.mate", bk.frenet_grid, pair.mate, ts, units=len(ts))

    # theorem_suite's own arguments
    n = SUITE_N
    valid = pair.valid_indices()
    rows = [i for i in valid
            if pair.ri_base[i] is not None and pair.ri_mate[i] is not None
            and pair.ri_base[i].g_defined and pair.ri_mate[i].g_defined]
    ts_c = pair.ts[valid][:: max(1, len(rows) // 64)]
    tr.call("bertrand", "constraint_residual",
            lambda: [bk.pair_constraint_residual(pair, t) for t in ts_c])
    tr.call("indicatrix", "frame_relations_check", bk.frame_relations_check, pair, n=min(n, 64))
    ts_i = np.linspace(pair.ts[0], pair.ts[-1], min(n, 128))
    for side in ("base", "mate"):
        for axis in ("tangent", "normal", "binormal"):
            tr.call("indicatrix", "apparatus_grid", bk.indicatrix.apparatus_grid,
                    pair, side, axis, ts_i)
        tr.call("indicatrix", "arclength_relations", bk.indicatrix_arclength_relations,
                pair, side, n=min(n, 128))
    for axis in ("tangent", "normal", "binormal"):
        ia = tr.call("indicatrix", "indicatrix_curve", bk.indicatrix_curve, pair.base, axis,
                     max(64, n // 2))
        ib = tr.call("indicatrix", "indicatrix_curve", bk.indicatrix_curve, pair.mate, axis,
                     max(64, n // 2))
        try:
            tr.call("classify", "pair_classify", bk.pair_classify, ia, ib, n=64,
                    align="arclength")
        except (bk.TooFewSamplesError, bk.GridMismatchError):
            pass
    if missing("classify", "classify_curve"):
        tr.call("classify", "classify_curve", bk.classify_curve, pair.base, n=64)

    written = 0
    files = [os.path.join(workdir, f"sweep-{role}.json") for role in ("base", "mate")]
    for curve, path in zip((pair.base, pair.mate), files):
        tr.call("io", "save_curve", bk.save_curve, curve, path)
        written += os.path.getsize(path)
    for path in files:
        tr.call("io", "load_curve", bk.load_curve, path)
    if missing("cli", "verify"):
        problems += cli_chain(bk, tr, preset, a, workdir).problems
    return counts, written, problems
