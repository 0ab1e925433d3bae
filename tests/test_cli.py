"""Command-line behavior: reports, determinism, exit codes, round trips."""

import builtins
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import count_pipelines

from bertrand_kit import bertrand, cli, errors
from bertrand_kit.bertrand import construct_mate, generate_bertrand_curve, sphere_preset
from bertrand_kit.classify import (
    _KEYLESS_ENTRIES,
    IDENTITY_ENTRIES,
    TOLERANCE_KEYS,
    theorem_suite,
)
from bertrand_kit.cli import EXIT_NOT_A_PAIR, _detect_from_files, main
from bertrand_kit.curves import AnalyticCurve, JetBackedCurve, SampledCurve, _points_at
from bertrand_kit.indicatrix import AXES, apparatus_grid, image_rows
from bertrand_kit.io import (
    CurveFileError,
    _rebuild_from_metadata,
    curve_to_dict,
    dumps,
    load_curve,
    read_inputs,
    save_curve,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["generate", "--sphere-curve", "wobble", "--n", "256",
               "--out", str(d / "base.json")])
    assert rc == 0
    rc = main(["mate", str(d / "base.json"), "--auto", "--n", "256",
               "--out", str(d / "mate.json")])
    assert rc == 0
    helix = AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix")
    save_curve(helix, str(d / "helix.json"))
    return d


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_frenet_report_and_csv(workdir, capsys):
    csv = workdir / "fren.csv"
    rc, out, err = run(capsys, ["frenet", str(workdir / "helix.json"),
                                "--grid", "16", "--csv", str(csv)])
    assert rc == 0
    rep = json.loads(out)
    assert rep["command"] == "frenet"
    assert rep["results"]["n_rows"] == 16
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("t,s,Tx")
    assert len(lines) == 17
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["kappa"]) == pytest.approx(0.12, abs=1e-12)
    assert float(row["tau"]) == pytest.approx(0.16, abs=1e-12)


def test_frenet_at_single_point(workdir, capsys):
    rc, out, _ = run(capsys, ["frenet", str(workdir / "helix.json"),
                              "--at", "1.5"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["n_rows"] == 1


def test_results_only_on_stdout(workdir, capsys):
    rc, out, err = run(capsys, ["frenet", str(workdir / "helix.json"),
                                "--at", "1.0"])
    assert rc == 0
    assert err == ""
    json.loads(out)


def test_verify_passes_and_lines(workdir, capsys):
    rc, out, _ = run(capsys, ["verify", str(workdir / "base.json"),
                              str(workdir / "mate.json"), "--n", "48"])
    assert rc == 0
    rep = json.loads(out)
    lines = rep["results"]["lines"]
    assert all(l.startswith(("PASS", "FAIL")) for l in lines)
    assert all(l.startswith("PASS") for l in lines)


def test_verify_tol_override_fails_identity(workdir, capsys):
    rc, out, _ = run(capsys, ["verify", str(workdir / "base.json"),
                              str(workdir / "mate.json"), "--n", "48",
                              "--tol", "th2=1e-20"])
    assert rc == 7
    rep = json.loads(out)
    assert not rep["results"]["entries"]["th2"]["passed"]


def test_verify_tol_takes_the_suite_keys(workdir, capsys):
    """--tol accepts the suite's entry keys and the thresholds of its flags,
    and the report echoes what it set."""
    assert set(TOLERANCE_KEYS) == set(IDENTITY_ENTRIES) | {
        "tol_slant", "tol_indicatrix_helix", "tol_condition", "tol_normal_planar"}
    rc, out, _ = run(capsys, ["verify", str(workdir / "base.json"),
                              str(workdir / "mate.json"), "--n", "48",
                              "--tol", "th3=1e-3", "--tol", "tol_condition=1e-3"])
    assert rc == 0
    rep = json.loads(out)
    # every entry reads its own key or is one of the keyless nine
    assert set(rep["results"]["entries"]) <= set(TOLERANCE_KEYS) | set(_KEYLESS_ENTRIES)
    assert set(_KEYLESS_ENTRIES) <= set(rep["results"]["entries"])
    assert rep["parameters"]["tol"] == {"th3": 1e-3, "tol_condition": 1e-3}
    assert rep["results"]["entries"]["th3"]["tolerance"] == 1e-3


# what sets the tolerance of an entry that has no key of its own
FLAGS = "tol_slant and tol_indicatrix_helix set its flags"
CONDITION = "tol_condition sets its tolerance"
VERDICTS = "a verdict count against a fixed tolerance of 0.5"
KEYLESS_WHY = {"th6=0": FLAGS, "th25=0": FLAGS, "teo15=0": FLAGS, "teo33=-1": FLAGS,
               "th8=1e-30": CONDITION, "th17=1": CONDITION, "th11=1": CONDITION,
               "cr18=0": VERDICTS, "negative-result=1": VERDICTS}


@pytest.mark.parametrize("item", ["th2=abc", "th2=", "th2", "th2=nan", "thx=1", "=1",
                                  "th2=-1", "th2=0", "tol_slant=-5", *KEYLESS_WHY])
def test_verify_rejects_a_bad_tol(workdir, capsys, item):
    """A value that is not a number above 0, or a key the suite does not
    read, is a parse error (exit 2) that names the item, before any file
    is read (th2=-1 and th2=0 failed th2 on a valid pair, exit 7, and
    tol_slant=-5 turned every slant flag off); for an entry with no key of
    its own the message says what sets its tolerance."""
    rc, out, err = run(capsys, ["verify", str(workdir / "base.json"),
                                str(workdir / "mate.json"), "--tol", item])
    assert (rc, out) == (2, "")
    assert "argument --tol: " in err and repr(item) in err
    if item in KEYLESS_WHY:
        key = item.partition("=")[0]
        assert err.splitlines()[-1] == (f"bertrand-kit verify: error: argument --tol: "
                                        f"{item!r}: {key!r} has no tolerance key: "
                                        f"{KEYLESS_WHY[item]}")
    assert sum(line.startswith("bertrand-kit verify: error: ") for line in err.splitlines()) == 1


def test_verify_help_lists_the_tolerance_keys(capsys):
    """verify --help names every --tol key with its default, and every
    entry that has none."""
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "--help"])
    out = capsys.readouterr().out
    for line in ("  th2=1e-05", "  elf-corollaries=1e-10", "  p1p2-constancy=1e-06",
                 "  tol_slant=1e-05", "  tol_indicatrix_helix=0.0001", "  tol_condition=0.001",
                 "  tol_normal_planar=0.0001"):
        assert line + "\n" in out
    for key in TOLERANCE_KEYS:
        assert f"\n  {key}=" in out
    for key, why in _KEYLESS_ENTRIES.items():
        assert f"\n  {key}: {why}\n" in out


@pytest.mark.parametrize("n", ["1", "4", "7"])
@pytest.mark.parametrize("command", [["verify"], ["indicatrix", "--kind", "t-base"]])
def test_detection_grid_below_8_is_a_size_error(workdir, capsys, command, n):
    """Detection needs 8 regular points: a smaller grid exits 2 and names
    its size, where it used to say the curves are not a pair (exit 6)."""
    rc, out, err = run(capsys, [command[0], str(workdir / "base.json"),
                                str(workdir / "mate.json"), *command[1:], "--n", n])
    assert (rc, out) == (2, "")
    assert err == f"error: detection grid of {n} points; need at least 8\n"


def test_mate_records_a_small_detection_grid(workdir, capsys, tmp_path):
    """mate still writes its file and exits 0; the size error goes into
    its pair check."""
    out_file = tmp_path / "m.json"
    rc, out, _ = run(capsys, ["mate", str(workdir / "base.json"), "--lambda", "1",
                              "--n", "4", "--out", str(out_file)])
    assert rc == 0 and out_file.exists()
    assert json.loads(out)["results"]["pair_check"] == (
        "failed: detection grid of 4 points; need at least 8")


def test_frenet_has_no_order_option(workdir, capsys):
    """The Frenet rows read order-4 jets whatever the curve: there is no
    order to choose, and the report records none."""
    helix = str(workdir / "helix.json")
    rc, out, err = run(capsys, ["frenet", helix, "--grid", "8", "--order", "6"])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --order 6" in err
    rc, out, _ = run(capsys, ["frenet", helix, "--grid", "8"])
    assert rc == 0
    assert json.loads(out)["parameters"] == {"mask": False, "grid": 8}


@pytest.mark.parametrize(
    "argv",
    [["verify", "base.json", "mate.json", "--n", "48"], ["frenet", "base.json", "--grid", "32"]],
    ids=["verify", "frenet"],
)
def test_stdout_identical_across_hash_seeds(workdir, fresh_python, argv):
    """Two fresh processes whose string hashes differ print the same bytes,
    so no report depends on the iteration order of a set or a hash."""
    args = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    outs = []
    for seed in ("0", "1"):
        proc = fresh_python(["-m", "bertrand_kit.cli", *args], PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_in_process_rounds_match_the_shell_run(tmp_path, capsys, monkeypatch, fresh_python):
    """The parser and the preset seed are built once per process: two
    rounds of generate, mate and verify through ``main``, each in its own
    directory, print the same text and write the same files as each other
    and as the commands run by ``python -m bertrand_kit.cli`` in fresh
    processes.  The chain's indicatrix pairs are no named pair, and
    ``frenet --mask`` reads its base."""
    chain = [["generate", "--sphere-curve", "wobble", "--n", "64", "--out", "base.json"],
             ["mate", "base.json", "--auto", "--n", "64", "--out", "mate.json"],
             ["verify", "base.json", "mate.json", "--n", "24"]]
    rounds = []
    for name in ("shell", "round-1", "round-2"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        if name == "shell":
            procs = [fresh_python(["-m", "bertrand_kit.cli", *argv]) for argv in chain]
            runs = [(p.returncode, p.stdout.decode(), p.stderr.decode()) for p in procs]
        else:
            runs = [run(capsys, argv) for argv in chain]
        assert [(rc, err) for rc, _, err in runs] == [(0, "")] * 3, name
        rounds.append(([out for _, out, _ in runs],
                       [Path(f).read_bytes() for f in ("base.json", "mate.json")]))
    assert rounds[1:] == [rounds[0]] * 2
    entries = json.loads(rounds[0][0][2])["results"]["entries"]
    assert entries["negative-result"]["note"] == f"verdicts={['none'] * 3}"
    assert run(capsys, ["frenet", "base.json", "--grid", "32", "--mask"])[0] == 0


def test_pipeline_imports_numpy_only(tmp_path, fresh_python):
    """``generate -> mate -> verify`` in a fresh process loads no scipy module."""
    script = f"""
import json, sys
import bertrand_kit
from bertrand_kit.cli import main
d = {str(tmp_path)!r}
codes = [
    main(["generate", "--sphere-curve", "wobble", "--n", "64", "--out", d + "/b.json"]),
    main(["mate", d + "/b.json", "--auto", "--n", "64", "--out", d + "/m.json"]),
    main(["verify", d + "/b.json", d + "/m.json", "--n", "24"]),
]
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
with open(d + "/modules.json", "w") as f:
    json.dump({{"codes": codes, "scipy": scipy}}, f)
"""
    proc = fresh_python(["-c", script])
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads((tmp_path / "modules.json").read_text())
    assert got == {"codes": [0, 0, 0], "scipy": []}


def test_indicatrix_csv_and_affine_block(workdir, capsys):
    csv = workdir / "ind.csv"
    rc, out, _ = run(capsys, ["indicatrix", str(workdir / "base.json"),
                              str(workdir / "mate.json"), "--kind", "b-base",
                              "--n", "32", "--csv", str(csv)])
    assert rc == 0
    rep = json.loads(out)
    assert "affine_fit" in rep["results"]
    assert rep["results"]["affine_fit"]["rms_residual"] < 1e-8
    header = csv.read_text().splitlines()[0].split(",")
    for col in ("kappa_closed", "kappa_direct", "kappa_gap", "tau_gap"):
        assert col in header


def test_indicatrix_tangent_no_affine_block(workdir, capsys):
    rc, out, _ = run(capsys, ["indicatrix", str(workdir / "base.json"),
                              str(workdir / "mate.json"), "--kind", "t-mate",
                              "--n", "16"])
    assert rc == 0
    rep = json.loads(out)
    assert "affine_fit" not in rep["results"]


def _table_from_views(base, mate, side, axis, n):
    """The indicatrix table built point by point from the public views of
    the closed forms and from the exact Frenet rows of the imaged curve's
    images (``image_rows``), on the grid of the pair the CLI loads from
    the same files, its masked points left out."""
    pair = _detect_from_files(load_curve(base), load_curve(mate), n, images=False)
    k = AXES.index(axis)
    rows, regular, _ = image_rows(pair.base if side == "base" else pair.mate, pair.ts)
    direct = _points_at(rows, np.flatnonzero(regular), 3 * n)[k * n:(k + 1) * n]
    views = apparatus_grid(pair, side, axis, pair.ts)
    table = []
    for t, masked, s, fdi in zip(pair.ts, pair.masked, views, direct):
        if masked or s is None or fdi is None:
            continue
        gap_k = abs(abs(s.kappa_image) - fdi.kappa) / max(abs(fdi.kappa), 1e-30)
        gap_t = abs(s.tau_image - fdi.tau) / max(abs(fdi.tau), fdi.kappa)
        table.append([float(v) for v in (
            t, *s.point, np.linalg.norm(s.point), s.kappa, s.tau, s.kappa_image,
            s.tau_image, 0.0 if math.isnan(s.Gamma) else s.Gamma, fdi.kappa, fdi.tau,
            gap_k, gap_t)])
    return table


@pytest.mark.parametrize("kind", [f"{a}-{s}" for a in "tnb" for s in ("base", "mate")])
def test_indicatrix_rows_equal_the_views_table(workdir, capsys, kind):
    """The table the CLI computes over the rows of one detection has the
    bits of the table built from the one-point views and from the image
    curve's own exact rows, the norm of each point included (a norm along
    the rows' axis rounds differently)."""
    base, mate = str(workdir / "base.json"), str(workdir / "mate.json")
    rc, out, _ = run(capsys, ["indicatrix", base, mate, "--kind", kind, "--n", "64"])
    assert rc == 0
    rows = json.loads(out)["results"]["rows"]
    axis = {"t": "tangent", "n": "normal", "b": "binormal"}[kind[0]]
    want = _table_from_views(base, mate, kind.split("-")[1], axis, 64)
    assert len(want) == 64
    assert rows == want


# each preset at n = 64 on a 64-point grid, and the README-size chains
# (generator n = 512, grid 128) of wobble and of tilt at 2.6, epsilon = +1;
# tilt's mate there is at the default n = 2048
@pytest.mark.parametrize("preset, omega, n, mate_n, grid", [
    *(pytest.param(preset, omega, "64", "64", "64", id=f"{preset}-{omega}")
      for preset, omega in [("wobble", None), ("tilt", None), ("bean", None), ("slant", None),
                            ("tilt", "2.6")]),
    pytest.param("wobble", None, "512", "512", "128", id="wobble-readme"),
    pytest.param("tilt", "2.6", "512", None, "128", id="tilt-2.6-readme"),
])
def test_indicatrix_gaps_are_closed_form_error(tmp_path, capsys, preset, omega, n, mate_n,
                                               grid):
    """Every kind's direct columns are the exact rows of the image curve,
    so its gaps measure the closed forms alone: below 1e-9 on the presets
    at their default angles (epsilon = -1) and at tilt's 2.6 (epsilon =
    +1), where the sign of the T and B images' tau is checked.  tau_gap
    is relative to max(|tau|, kappa), as slant's normal image is planar
    and its tau rounding noise.  The mate report gives that epsilon, the
    pair verifies, its indicatrix pairs are no named pair, and it
    classifies as bertrand."""
    base, mate = str(tmp_path / "base.json"), str(tmp_path / "mate.json")
    argv = ["generate", "--sphere-curve", preset, "--n", n, "--out", base]
    assert run(capsys, argv + (["--omega", omega] if omega else []))[0] == 0
    rc, out, _ = run(capsys, ["mate", base, "--auto", *(["--n", mate_n] if mate_n else []),
                              "--out", mate])
    assert (rc, json.loads(out)["results"]["epsilon"]) == (0, 1 if omega else -1)
    rc, out, _ = run(capsys, ["verify", base, mate, "--n", grid])
    assert rc == 0
    assert json.loads(out)["results"]["entries"]["negative-result"]["note"] == (
        f"verdicts={['none'] * 3}")
    rc, out, _ = run(capsys, ["classify", base, mate])
    assert (rc, json.loads(out)["results"]["verdict"]) == (0, "bertrand")
    for kind in [f"{a}-{s}" for a in "tnb" for s in ("base", "mate")]:
        rc, out, _ = run(capsys, ["indicatrix", base, mate, "--kind", kind, "--n", grid])
        assert rc == 0
        rows = np.array(json.loads(out)["results"]["rows"])
        assert len(rows) == int(grid)
        assert rows[:, 12].max() < 1e-9, kind
        assert rows[:, 13].max() < 1e-9, kind


def test_classify_single(workdir, capsys):
    rc, out, _ = run(capsys, ["classify", str(workdir / "helix.json")])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["general_helix"] is True
    assert rep["results"]["planar"] is False


def test_classify_pair(workdir, capsys):
    rc, out, _ = run(capsys, ["classify", str(workdir / "base.json"),
                              str(workdir / "mate.json"), "--n", "48"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["verdict"] == "bertrand"


@pytest.mark.parametrize("n", ["1", "2", "15"])
@pytest.mark.parametrize("align", ["param", "arclength"])
def test_classify_below_the_minimum_grid_is_a_size_error(small_pair, capsys, align, n):
    """A pair classification grid below 16 points exits 2 with one
    ``error:`` line in either alignment, before any grid is built (an
    arc-length grid of one point divided by its zero length)."""
    rc, out, err = run(capsys, ["classify", *small_pair, "--n", n, "--align", align])
    assert rc == 2
    assert out == ""
    assert err == f"error: classification grid of {n} points; need at least 16\n"


@pytest.mark.parametrize("align", ["param", "arclength"])
def test_classify_at_the_minimum_grid(small_pair, capsys, align):
    rc, out, _ = run(capsys, ["classify", *small_pair, "--n", "16", "--align", align])
    assert rc == 0
    assert "verdict" in json.loads(out)["results"]


@pytest.mark.parametrize("n", ["1", "32", "63"])
def test_one_file_classify_below_64_points_is_a_size_error(small_pair, capsys, n):
    """A one-file classification grid below 64 points exits 2 with one
    ``error:`` line, where it used to report its --n and evaluate 64
    points; 64 itself is reported and evaluated as asked."""
    rc, out, err = run(capsys, ["classify", small_pair[0], "--n", n])
    assert (rc, out) == (2, "")
    assert err == "error: classification needs n >= 64\n"
    rc, out, _ = run(capsys, ["classify", small_pair[0], "--n", "64"])
    rep = json.loads(out)
    assert (rc, rep["parameters"]["n"], rep["results"]["metrics"]["masked_fraction"]) == (0, 64, 0)


def test_coincident_curves_are_no_pair(small_pair, capsys, tmp_path):
    """A curve beside itself is no pair: verify exits 6 with one ``error:``
    line (it used to exit 7, failing constraint-eq, cr14, cr33,
    eps-g-relation and negative-result on a pair with lambda 0), classify
    says 'none' (it said 'bertrand' with lambda_mean 0), and the pair
    check of a mate by lambda 0 reports the refusal (it ran none)."""
    base = small_pair[0]
    rc, out, err = run(capsys, ["verify", base, base, "--n", "24"])
    assert (rc, out) == (EXIT_NOT_A_PAIR, "")
    assert err == ("error: not a Bertrand pair (offset-not-normal): "
                   "the curves coincide (max offset 0.000e+00)\n")
    rc, out, _ = run(capsys, ["classify", base, base])
    assert (rc, json.loads(out)["results"]["verdict"]) == (0, "none")
    rc, out, _ = run(capsys, ["mate", base, "--lambda", "0", "--n", "64",
                              "--out", str(tmp_path / "zero.json")])
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["pair_check"] == ("failed: not a Bertrand pair (offset-not-normal): "
                                     "the curves coincide (max offset 0.000e+00)")
    assert "lambda" not in results


def test_exit_parse_error_bad_file(workdir, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    rc, out, err = run(capsys, ["frenet", str(bad), "--grid", "8"])
    assert rc == 2
    assert out == ""
    assert "error" in err


def test_exit_parse_error_missing_file(capsys):
    rc, _, err = run(capsys, ["frenet", "no-such-file.json", "--grid", "8"])
    assert rc == 2
    assert err


def test_exit_parse_error_bad_expression(capsys, tmp_path):
    f = tmp_path / "expr.json"
    f.write_text(dumps({"schema_version": 1, "label": "", "type": "analytic",
                        "analytic": {"x": "sinh(t)", "y": "t", "z": "t",
                                     "domain": [0.0, 1.0]}}))
    rc, _, err = run(capsys, ["frenet", str(f), "--grid", "8"])
    assert rc == 2


def _analytic_file(x="3*cos(t)", domain=(0.0, 6.0)):
    return {"type": "analytic",
            "analytic": {"x": x, "y": "3*sin(t)", "z": "4*t", "domain": list(domain)}}


def _sampled_file(t_at_5=None, point_at_5=None):
    t = np.linspace(0.0, 6.0, 20)
    points = np.stack([3 * np.cos(t), 3 * np.sin(t), 4 * t], axis=1)
    if t_at_5 is not None:
        t[5] = t_at_5
    if point_at_5 is not None:
        points[5, 1] = point_at_5
    return {"type": "sampled", "sampled": {"t": t.tolist(), "points": points.tolist()}}


@pytest.mark.parametrize("content, message", [
    *((content, "") for content in (
        _analytic_file(domain=(1, 0)),
        _analytic_file(domain=(0, math.nan)),
        _analytic_file(domain=("a", 1)),
        _analytic_file(x=1.5),
        _analytic_file(domain=(0, math.inf)),
        _sampled_file(t_at_5=math.nan),
        _sampled_file(point_at_5=math.nan),
        _sampled_file(point_at_5=math.inf),
        *(_analytic_file(x=f"t^{e}") for e in ("(1/0)", "(10^400)", "exp(1000)", "1e400",
                                               "(1e308*10)", "(0*(1e308*10))", "log(0)")),
        _sampled_file(t_at_5=0.0),
        {"type": "analytic"},
        {"type": "sampled"},
        {"type": "sampled", "sampled": {"t": ["a", "b"], "points": [[0, 0, 0], [1, 1, 1]]}},
        {"type": "sampled", "sampled": {"t": [0, 1, 2], "points": [[0, 0], [1, 1], [2, 2]]}},
        {"type": "spline"},
        '{"type": "analytic",',
    )),
    *((_analytic_file(x=f"t^{e}"), "error: exponent of '^' must be a numeric constant\n")
      for e in ("(t+1/0)", "(1/0+t)")),
    (_analytic_file(x="t $ 1"), "syntax error at position 2"),
], ids=["reversed-domain", "nan-domain", "text-domain", "number-x", "infinite-domain",
        "nan-t", "nan-point", "infinite-point", "exponent-zero-division",
        "exponent-power-overflow", "exponent-exp-overflow", "exponent-literal-overflow",
        "exponent-product-overflow", "exponent-nan", "exponent-log-zero", "decreasing-t",
        "no-analytic-block", "no-sampled-block", "text-t", "two-column-points",
        "unknown-type", "invalid-json", "exponent-t-then-zero-division",
        "exponent-zero-division-then-t", "character-outside-grammar"])
def test_malformed_curve_file_is_a_parse_error(capsys, tmp_path, content, message):
    """A curve file that is not JSON, of an unknown type or without its
    type's block, whose expressions are not strings or have an exponent
    that holds t or does not fold to a finite number, whose domain is not
    a finite lo < hi, or whose samples are not finite numbers of the right
    shape at increasing t exits 2 on every command that loads it, with one
    line on stderr that holds ``message``."""
    f = tmp_path / "bad.json"
    # a string is the file's text; json writes NaN and Infinity, which it
    # also reads back
    f.write_text(content if isinstance(content, str) else json.dumps(content))
    for argv in (["frenet", str(f), "--grid", "16", "--mask"],
                 ["classify", str(f), "--n", "64"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


# the exit code of each error type a command may raise, as the CLI has
# always mapped them, and the one that carries a hint
EXIT_OF = {
    errors.ExprSyntaxError: 2, errors.UnknownFunctionError: 2,
    errors.NonConstantExponentError: 2, CurveFileError: 2, errors.TooFewSamplesError: 2,
    errors.GridMismatchError: 2, errors.ParameterError: 2,
    errors.DomainError: 3, errors.OutOfDomainError: 3, errors.SingularPointError: 4,
    errors.DegenerateRatioError: 5, errors.NotAPairError: 6,
    errors.DegenerateSphereCurveError: 8, errors.NotSphericalError: 8, OSError: 2,
}
HINT = " (pass --mask to skip singular points)"


def _raise_from_frenet(monkeypatch, exc):
    def command(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_frenet", command)


def test_exit_table_lists_the_error_types():
    """The exit table maps the error types, in their order, to their codes."""
    assert list(cli._EXIT_CODES.items()) == [
        (cls, (code, HINT if cls is errors.SingularPointError else ""))
        for cls, code in EXIT_OF.items()]


@pytest.mark.parametrize("cls", list(EXIT_OF), ids=lambda cls: cls.__name__)
def test_each_listed_error_exits_with_its_code(workdir, capsys, monkeypatch, cls):
    """Every error type of the exit table, raised by a command, gives its
    exit code, empty stdout and one stderr line: the message, with the
    --mask hint for a singular point."""
    exc = cls(3, "x") if cls is errors.ExprSyntaxError else cls("boom")
    _raise_from_frenet(monkeypatch, exc)
    rc, out, err = run(capsys, ["frenet", str(workdir / "helix.json"), "--grid", "8"])
    assert (rc, out) == (EXIT_OF[cls], "")
    assert err == f"error: {exc}{HINT if cls is errors.SingularPointError else ''}\n"


def test_first_listed_error_type_wins_and_others_propagate(workdir, capsys, monkeypatch):
    """An error of two listed types takes the earlier one's code, and an
    error the table does not list leaves ``main`` as it was raised."""
    argv = ["frenet", str(workdir / "helix.json"), "--grid", "8"]

    class Both(errors.SingularPointError, errors.DomainError):
        pass

    _raise_from_frenet(monkeypatch, Both("both"))
    assert run(capsys, argv) == (3, "", "error: both\n")
    for exc in (errors.IllConditionedError("rank"), errors.OrderOverflowError(12, 10),
                RuntimeError("other"), KeyError("key")):
        _raise_from_frenet(monkeypatch, exc)
        with pytest.raises(type(exc)) as raised:
            main(argv)
        assert raised.value is exc
        assert capsys.readouterr().err == ""


def test_exit_domain_error(workdir, capsys):
    rc, _, err = run(capsys, ["frenet", str(workdir / "helix.json"),
                              "--at", "99.0"])
    assert rc == 3


def test_exit_singular_without_mask(capsys, tmp_path):
    f = tmp_path / "cusp.json"
    save_curve(AnalyticCurve("t^2", "t^3", "t^4", (-1.0, 1.0)), str(f))
    rc, _, err = run(capsys, ["frenet", str(f), "--grid", "9"])
    assert rc == 4
    rc, out, _ = run(capsys, ["frenet", str(f), "--grid", "9", "--mask"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["masked_intervals"] == [[0.0, 0.0]]
    # the s column integrates the speed over the unmasked rows only,
    # bridging the masked cusp at t = 0 with one trapezoid
    cols = rep["results"]["columns"]
    rows = np.array(rep["results"]["rows"])
    t, s = rows[:, cols.index("t")], rows[:, cols.index("s")]
    assert len(t) == 8 and 0.0 not in t
    speed = np.sqrt((2 * t) ** 2 + (3 * t**2) ** 2 + (4 * t**3) ** 2)
    expected = np.concatenate(
        ([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t))))
    np.testing.assert_allclose(s, expected, rtol=1e-12, atol=0.0)


def test_frenet_singular_point_from_one_request(capsys, tmp_path, monkeypatch):
    """Without --mask, frenet reports the first singular point of its one
    jet request of the curve; with --mask on a curve of no regular point
    it prints an empty table."""
    requests = []
    real_jet = AnalyticCurve.jet

    def counting_jet(self, t, order):
        requests.append(order)
        return real_jet(self, t, order)

    monkeypatch.setattr(AnalyticCurve, "jet", counting_jet)
    f = tmp_path / "cusp.json"
    save_curve(AnalyticCurve("t^2", "t^3", "t^4", (-1.0, 1.0)), str(f))
    rc, out, err = run(capsys, ["frenet", str(f), "--grid", "9"])
    assert (rc, out) == (4, "")
    assert err == ("error: speed below regularity floor at t=0.0 "
                   "(pass --mask to skip singular points)\n")
    assert requests == [4]
    line = tmp_path / "line.json"
    save_curve(AnalyticCurve("t", "2*t", "3*t", (0.0, 1.0)), str(line))
    rc, out, _ = run(capsys, ["frenet", str(line), "--grid", "5", "--mask"])
    assert rc == 0
    rep = json.loads(out)
    assert (rep["results"]["rows"], rep["results"]["n_rows"]) == ([], 0)
    assert rep["masked_intervals"] == [[0.0, 1.0]]


def test_exit_degenerate_ratio_auto_lambda(workdir, capsys, tmp_path):
    # circular helix: constant kappa and tau, lambda is not unique
    rc, _, err = run(capsys, ["mate", str(workdir / "helix.json"), "--auto"])
    assert rc == 5
    # twisted cubic: no lam*kappa + mu*tau = 1 fits its kappa and tau
    f = tmp_path / "cubic.json"
    save_curve(AnalyticCurve("t", "t^2", "t^3", (0.5, 1.5)), str(f))
    rc, out, err = run(capsys, ["mate", str(f), "--auto", "--out", str(tmp_path / "m.json")])
    assert (rc, out) == (5, "")
    assert err == ("error: curvature and torsion admit no constant affine relation; "
                   "rms residual 1.925e-01\n")
    assert not (tmp_path / "m.json").exists()


def test_exit_not_a_pair(workdir, small_pair, capsys, tmp_path):
    f = tmp_path / "other.json"
    save_curve(AnalyticCurve("t", "t^2", "t^3", (0.0, 0.4)), str(f))
    rc, _, err = run(capsys, ["verify", str(workdir / "base.json"), str(f),
                              "--n", "32"])
    assert rc == 6
    # the error's own text already names the reason: printed once
    assert err.count("not a Bertrand pair") == 1
    # a mate beside a base file of another recipe (a = 1.5) is rebuilt on
    # its own a = 1 base, so the two are no pair
    other = _other_base(str(tmp_path / "a15.json"), a=1.5)
    assert run(capsys, ["verify", other, small_pair[1], "--n", "24"])[0] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--sphere-curve", "wobble", "--n", "-3"],
        ["generate", "--sphere-curve", "wobble", "--n", "0"],
        ["mate", "BASE", "--auto", "--n", "-2"],
        ["mate", "BASE", "--lambda", "1", "--n", "0"],
        ["frenet", "BASE", "--grid", "-1"],
        ["frenet", "BASE", "--grid", "0"],
        ["indicatrix", "BASE", "MATE", "--kind", "t-base", "--n", "-4"],
        ["indicatrix", "BASE", "MATE", "--kind", "t-base", "--n", "0"],
        ["verify", "BASE", "MATE", "--n", "0"],
        ["verify", "BASE", "MATE", "--n", "-1"],
        ["classify", "BASE", "--n", "0"],
        ["classify", "BASE", "MATE", "--n", "-1"],
    ],
)
def test_size_below_one_is_a_parse_error(workdir, capsys, tmp_path, monkeypatch, argv):
    """Every --n and --grid rejects sizes below 1 with exit 2 before any
    file is read or written."""
    monkeypatch.chdir(tmp_path)
    files = {"BASE": str(workdir / "base.json"), "MATE": str(workdir / "mate.json")}
    rc, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert rc == 2
    assert out == ""
    assert "must be at least 1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--sphere-curve", "wobble", "--n", "64", "--a", "0"],
        ["generate", "--sphere-curve", "wobble", "--n", "64", "--a", "-1"],
        ["generate", "--sphere-curve", "wobble", "--n", "64", "--a", "nan"],
        ["generate", "--sphere-curve", "wobble", "--n", "64", "--a", "inf"],
        ["generate", "--sphere-curve", "wobble", "--n", "64", "--omega", "0"],
        ["generate", "--sphere-curve", "wobble", "--n", "64", "--omega", "1.5707963267948966"],
        ["mate", "BASE", "--lambda", "nan", "--n", "64"],
        ["mate", "BASE", "--lambda", "inf", "--n", "64"],
        ["generate", "--sphere-curve", "wobble", "--n", "1"],
    ],
)
def test_out_of_range_parameter_is_a_parse_error(workdir, capsys, tmp_path, monkeypatch,
                                                 argv):
    """A generator a, omega or n outside its range, or a lambda that is
    not finite, exits 2 with one error line and writes no curve file (a
    generator n of 1 exited 8: its one sphere-check probe has no spread)."""
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, [str(workdir / "base.json") if a == "BASE" else a
                                for a in argv])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset, omega", [("wobble", "2.7"), ("tilt", "0.3"), ("bean", "0.2"),
                                           ("slant", "0.3")])
def test_generate_refuses_an_angle_that_gives_an_inflection(capsys, tmp_path, monkeypatch,
                                                           preset, omega):
    """An omega whose output has an inflection exits 2 with one error line
    naming it, and writes no curve file (it used to exit 0, and ``mate
    --auto`` then exited 5 without naming the inflection)."""
    _assert_generate_refuses_the_inflection(capsys, tmp_path, monkeypatch, preset, omega, [])


@pytest.mark.parametrize("omega, n", [("2.4639498632511376", "512"),
                                      ("2.4639529100537136", "4096")])
def test_generate_refuses_an_inflection_at_any_walk_midpoint(capsys, tmp_path, monkeypatch,
                                                             omega, n):
    """A wobble angle whose inflection lies within the walk's last few
    midpoints exits 2 with one error line and writes no curve file (the
    sphere checks read every (n // 64)-th midpoint, and it exited 0)."""
    _assert_generate_refuses_the_inflection(capsys, tmp_path, monkeypatch, "wobble", omega,
                                            ["--n", n])


@pytest.mark.parametrize("omega, n", [("2.461987031739115", "512"),
                                      ("2.4618741497436876", "4096")])
def test_generate_refuses_an_inflection_at_an_end_node(capsys, tmp_path, monkeypatch,
                                                       omega, n):
    """A wobble angle whose inflection lies between the walk's last
    midpoint and the domain's end exits 2 with one error line naming it
    and writes no curve file (the sphere checks read no end node, and it
    exited 0)."""
    _assert_generate_refuses_the_inflection(capsys, tmp_path, monkeypatch, "wobble", omega,
                                            ["--n", n])


def _assert_generate_refuses_the_inflection(capsys, tmp_path, monkeypatch, preset, omega,
                                            extra):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, ["generate", "--sphere-curve", preset, "--omega", omega,
                                *extra, "--out", "base.json"])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: omega = {omega} gives the output an inflection: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_generate_reports_the_recorded_lambda(capsys, tmp_path, monkeypatch):
    """At tilt's 0.1, beyond its inflection band, ``generate`` reports and
    records nominal_lambda = -a (it reported +a, whose offset is no
    pair), and the mate at that lambda detects with epsilon = +1 and
    verifies."""
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, ["generate", "--sphere-curve", "tilt", "--omega", "0.1",
                              "--a", "1.37", "--n", "64", "--out", "base.json"])
    assert rc == 0
    assert json.loads(out)["results"]["nominal_lambda"] == -1.37
    assert load_curve("base.json").metadata["nominal_lambda"] == -1.37
    rc, out, _ = run(capsys, ["mate", "base.json", "--lambda", "-1.37", "--n", "64",
                              "--out", "mate.json"])
    results = json.loads(out)["results"]
    assert (rc, results["epsilon"]) == (0, 1)
    assert results["lambda"] == pytest.approx(-1.37, rel=1e-12)
    assert run(capsys, ["verify", "base.json", "mate.json", "--n", "128"])[0] == 0


def test_curve_that_overflows_is_not_saved(capsys, tmp_path, monkeypatch):
    """A generator a, or a lambda on a huge base, whose curve overflows
    exits 2 with one error line naming the first bad row, and writes no
    curve file (it used to write one of null coordinates and exit 0)."""
    monkeypatch.chdir(tmp_path)
    # under the suite's error::RuntimeWarning filter: the overflow raises
    # no numpy warning, and stderr is the one error line
    rc, _, _ = run(capsys, ["generate", "--sphere-curve", "wobble", "--n", "64",
                            "--a", "1e300", "--out", "huge.json"])
    assert rc == 0
    for argv in (["generate", "--sphere-curve", "wobble", "--n", "64", "--a", "1e308"],
                 ["mate", "huge.json", "--lambda", "1e308", "--n", "64"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: curve ") and err.count("\n") == 1
        assert len(err.splitlines()) == 1
        assert "is not finite at row " in err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.json"]


def test_exit_degenerate_sphere_curve(capsys, tmp_path):
    rc, _, err = run(capsys, ["generate", "--sphere-curve", "greatcircle",
                              "--out", str(tmp_path / "x.json")])
    assert rc == 8


def test_generate_metadata_round_trip(workdir):
    base = load_curve(str(workdir / "base.json"))
    meta = base.metadata
    assert meta["generator"] == "bertrand"
    assert meta["n"] == 256
    assert meta["seed_label"] == "wobble"


def _resaved(curve, tmp_path):
    """The bytes of ``curve`` saved to a file under ``tmp_path``."""
    f = tmp_path / "resaved.json"
    save_curve(curve, str(f))
    return f.read_bytes()


def test_curve_file_round_trip_byte_identical(workdir, tmp_path):
    """A curve file re-saved after a load is the file it was.  A mate file
    re-saved after a lone load and after a load beside its base file is
    its file byte for byte: where it records its base (an analytic base,
    the four generated presets, the slant seed) and is rebuilt, and where
    it records none (the mate of a mate), loads as its samples and keeps
    the metadata stored beside them."""
    c = load_curve(str(workdir / "base.json"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_curve(c, str(p1))
    save_curve(load_curve(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    helix = AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix")
    generated = [generate_bertrand_curve(sphere_preset(name), a=1.0,
                                         omega=bertrand.DEFAULT_OMEGA[name], n=64)
                 for name in ("wobble", "tilt", "bean", "slant")]
    wobble_mate = construct_mate(generated[0], 1.0, n=64)
    bases = [helix, *generated, sphere_preset("slant"), wobble_mate]
    for i, base in enumerate(bases):
        base_file, mate_file = tmp_path / f"base{i}.json", tmp_path / f"mate{i}.json"
        save_curve(base, str(base_file))
        save_curve(construct_mate(base, 0.5, n=64), str(mate_file))
        want = mate_file.read_bytes()
        loaded = load_curve(str(mate_file))
        # only the mate of a mate records no base
        assert isinstance(loaded, SampledCurve) is (base is wobble_mate), base.label
        assert _resaved(loaded, tmp_path) == want, base.label
        paired = read_inputs(str(base_file), str(mate_file))[0][1]
        assert _resaved(paired, tmp_path) == want, base.label


def test_load_keeps_stored_points_over_metadata(workdir, tmp_path):
    stored = json.loads((workdir / "base.json").read_text())
    untouched = load_curve(str(workdir / "base.json"))
    assert isinstance(untouched, JetBackedCurve)
    np.testing.assert_array_equal(untouched.points, stored["sampled"]["points"])
    # the recipe in the metadata no longer describes the shifted samples
    for p in stored["sampled"]["points"]:
        p[0] += 5.0
    f = tmp_path / "shifted.json"
    f.write_text(dumps(stored))
    c = load_curve(str(f))
    assert isinstance(c, SampledCurve)
    np.testing.assert_array_equal(c.points, stored["sampled"]["points"])
    np.testing.assert_array_equal(c.params, stored["sampled"]["t"])
    # the samples keep the stored metadata, which a re-save writes back
    assert c.metadata == stored["metadata"]
    assert _resaved(c, tmp_path) == (dumps(stored) + "\n").encode()
    # and give no base block: the mate beside them is rebuilt on its own
    # generated base, not offset from the samples
    mate = read_inputs(str(f), str(workdir / "mate.json"))[0][1]
    assert isinstance(mate, JetBackedCurve)
    assert isinstance(mate._offset_of[0], JetBackedCurve)


def test_mate_of_an_analytic_base_reloads_exactly(tmp_path):
    """A mate file records its analytic base's expressions and domain and
    reloads with exact jets; a malformed recorded expression, or samples
    the recipe does not describe, fall back to the stored samples."""
    helix = AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix")
    f = tmp_path / "mate.json"
    save_curve(construct_mate(helix, 0.5, n=256), str(f))
    stored = json.loads(f.read_text())
    assert stored["metadata"]["base_generator"] == "analytic"
    c = load_curve(str(f))
    assert isinstance(c, JetBackedCurve)
    assert c.label == "helix+0.5*N"
    np.testing.assert_array_equal(c.points, stored["sampled"]["points"])
    for key, value in (("base_x", "3*cos("), ("base_y", "3*nosuch(t)"), ("base_lo", "zero")):
        bad = json.loads(f.read_text())
        bad["metadata"][key] = value
        g = tmp_path / "bad.json"
        g.write_text(dumps(bad))
        assert isinstance(load_curve(str(g)), SampledCurve), key
    shifted = json.loads(f.read_text())
    shifted["sampled"]["points"][3][0] += 1e-9
    g = tmp_path / "shifted.json"
    g.write_text(dumps(shifted))
    assert isinstance(load_curve(str(g)), SampledCurve)


def test_mate_whose_base_cannot_be_evaluated_loads_its_samples(tmp_path, capsys):
    """A mate file whose recorded analytic base cannot be evaluated at the
    mate's nodes (log(t) on a domain through 0) loads its stored samples:
    the rebuilt mate's node table is read where an evaluation error means
    no rebuild, and the CLI reads the file."""
    base = AnalyticCurve("t", "t^2", "t^3", (-1.0, 1.0), label="cubic")
    f = tmp_path / "mate.json"
    save_curve(construct_mate(base, 0.1, n=32), str(f))
    stored = json.loads(f.read_text())
    stored["metadata"]["base_x"] = "log(t)"
    f.write_text(dumps(stored))
    c = load_curve(str(f))
    assert isinstance(c, SampledCurve)
    np.testing.assert_array_equal(c.points, stored["sampled"]["points"])
    rc, out, _ = run(capsys, ["frenet", str(f), "--grid", "16", "--mask"])
    assert rc == 0 and json.loads(out)["command"] == "frenet"


def test_generated_files_below_schema_2_are_refused(small_pair, tmp_path, capsys):
    """A generated base file or a mate file of a generated base below
    schema 2, or with no schema, stored its t in the base's arc length,
    which no rebuild matches: it raises CurveFileError, which names that
    parameter and asks for a new file, and verify exits 2 with one error
    line, where the samples alone would load as stencil-differentiated
    samples.  Analytic files, plain sampled files and mates of analytic
    bases still load at schema 1."""
    old = []
    for path in small_pair:
        doc = json.loads(Path(path).read_text())
        assert doc["schema_version"] == 2
        for schema in (1, None):
            doc["schema_version"] = schema
            f = tmp_path / f"old-{len(old)}.json"
            f.write_text(dumps({k: v for k, v in doc.items() if v is not None}))
            with pytest.raises(CurveFileError, match="arc-length parameter.*regenerate"):
                load_curve(str(f))
            old.append(str(f))
    for files in ([old[0], small_pair[1]], [small_pair[0], old[2]]):
        rc, out, err = run(capsys, ["verify", *files, "--n", "24"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: schema 1 ") and err.count("\n") == 1
    helix = AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix")
    ts = np.linspace(0.0, 6.0, 32)
    for curve, kind in ((helix, AnalyticCurve), (SampledCurve(ts, helix.jet(ts, 0).coeffs[0].T),
                                                 SampledCurve),
                        (construct_mate(helix, 0.5, n=64), JetBackedCurve)):
        f = tmp_path / "schema1.json"
        doc = curve_to_dict(curve)
        doc["schema_version"] = 1
        f.write_text(dumps(doc))
        assert type(load_curve(str(f))) is kind


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """Paths of a wobble base file and of its mate file, both at n = 64."""
    d = tmp_path_factory.mktemp("small")
    base, mate = str(d / "base.json"), str(d / "mate.json")
    assert main(["generate", "--sphere-curve", "wobble", "--n", "64", "--out", base]) == 0
    assert main(["mate", base, "--auto", "--n", "64", "--out", mate]) == 0
    return base, mate


def _count_generator_work(monkeypatch):
    """A Counter of generator builds and node walks (order-10 requests to
    an analytic seed), and the list of the (order, columns) of each
    generator pipeline in call order (``count_pipelines``)."""
    counts = Counter()
    real_generate = bertrand.generate_bertrand_curve
    real_jet = AnalyticCurve.jet

    def generate(*args, **kwargs):
        counts["builds"] += 1
        return real_generate(*args, **kwargs)

    def jet(self, t, order):
        counts["walks"] += order >= 10
        return real_jet(self, t, order)

    monkeypatch.setattr(bertrand, "generate_bertrand_curve", generate)
    monkeypatch.setattr(AnalyticCurve, "jet", jet)
    return counts, count_pipelines(monkeypatch)


# The generator keeps nothing between requests, so each request runs a
# pipeline of its own: ``grids`` counts the grids a command asks the base
# for.  Every command reads the mate's nodes (the rebuild check) and a
# detection grid.  verify and indicatrix ask for the detection grid at the
# order the image poses or rows read; an indicatrix reads its data rows,
# image rows and arc-length law from that one run.  classify's grid gives
# the mate rows from the base's run, and the arc-length alignment runs one
# pipeline per curve for its rows and one for the second curve's speeds
# (the first curve's speeds are read from its rows' run).
@pytest.mark.parametrize(
    "argv, grids",
    [
        (["verify", "--n", "24"], 2),
        *[(["indicatrix", "--kind", f"{axis}-{side}", "--n", "64"], 2)
          for axis in "tnb" for side in ("base", "mate")],
        (["classify"], 2),
        (["classify", "--align", "arclength"], 4),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else str(v),
)
def test_file_pair_builds_one_generator(small_pair, capsys, monkeypatch, argv, grids):
    """A mate file loaded beside the base file whose recipe it records is
    rebuilt on that base curve: each two-file command makes one generator
    build and one node walk, detection builds the mate's rows from its
    base's run, and each grid runs one pipeline."""
    counts, pipelines = _count_generator_work(monkeypatch)
    rc, _, _ = run(capsys, [argv[0], *small_pair, *argv[1:]])
    assert rc == 0
    assert counts == Counter(builds=1, walks=1)
    assert len(pipelines) == grids


# each preset at its default angle and at an angle with epsilon = +1
SUITE_ANGLES = [(preset, omega) for preset, plus in
                (("wobble", 0.5), ("tilt", 2.6), ("bean", 2.0), ("slant", 2.5))
                for omega in (None, plus)]


@pytest.mark.parametrize("preset, omega", [*SUITE_ANGLES, ("sampled", None)],
                         ids=lambda v: str(v))
def test_suite_report_does_not_depend_on_the_detection_order(tmp_path, capsys, monkeypatch,
                                                             preset, omega):
    """theorem_suite gives dumps-equal reports on the default detection,
    whose order-6 run holds the image jets cut to order 2 that give the
    image poses, and on the order-8 detection (``images``) that
    indicatrix uses, whose order-4 image jets give full Frenet rows: on
    each preset at its default angle and at one with epsilon = +1, loaded
    from files as verify loads them, and on a pair loaded as samples.
    indicatrix still makes exactly one order-8 run of a generated base,
    on its --n grid, after the mate file's node check."""
    base, mate = str(tmp_path / "base.json"), str(tmp_path / "mate.json")
    argv = ["generate", "--sphere-curve", "wobble" if preset == "sampled" else preset,
            "--n", "64", "--out", base]
    assert main([*argv, *(["--omega", str(omega)] if omega else [])]) == 0
    assert main(["mate", base, "--auto", "--n", "64", "--out", mate]) == 0
    if preset == "sampled":
        for path in (base, mate):
            doc = json.loads(Path(path).read_text())
            del doc["metadata"]
            Path(path).write_text(json.dumps(doc))
    capsys.readouterr()
    curves, _ = read_inputs(base, mate)
    reports = []
    for images in (False, True):
        pair = _detect_from_files(*curves, 24, images)
        held = [(jet.order, jet.coeffs.flags.writeable) for jet in pair._images]
        assert held == [(4 if images else 2, False)] * 6
        reports.append(dumps({k: vars(e) for k, e in theorem_suite(pair).entries.items()}))
    assert reports[0] == reports[1]
    _, runs = _count_generator_work(monkeypatch)
    rc, _, err = run(capsys, ["indicatrix", base, mate, "--kind", "t-mate", "--n", "64"])
    assert rc == 0, err
    assert runs == ([] if preset == "sampled" else [(2, 65), (8, 64)])


@pytest.fixture(scope="module")
def pair_24(tmp_path_factory):
    """Paths of a wobble base file and of its mate file, both at n = 24."""
    d = tmp_path_factory.mktemp("pair24")
    base, mate = str(d / "base.json"), str(d / "mate.json")
    assert main(["generate", "--sphere-curve", "wobble", "--n", "24", "--out", base]) == 0
    assert main(["mate", base, "--auto", "--n", "24", "--out", mate]) == 0
    return base, mate


# The (order, columns) of each generator pipeline a command runs on a pair
# generated at n = 24, in call order; the generator runs each request at
# the order it asks, and a mate's order-k request asks its base for order
# k + 2.  mate fits lambda on 64 points at order 4, reads its node table
# (order 0 of the mate, order 2 of the base) to save it and checks the
# pair on min(n, 128) points at order 6, one pipeline each.  Each
# two-file command first checks the loaded mate's 25 nodes the same way.
# The detection of verify, on its --n grid, asks for order 6: its suite
# reads the images' poses, which the mate's order-2 frame gives.  That of
# indicatrix asks for order 8, whose order-4 frames give the image's full
# Frenet rows.  classify's pair check reads rows only and asks for order
# 6 on its 128-point grid; the arc-length alignment reads the base's rows
# and speeds at order 4 and the mate's speeds (order 1) on its 512-point
# grid before the mate's rows.
@pytest.mark.parametrize(
    "argv, want",
    [
        (["mate", "--auto", "--n", "24"], [(4, 64), (2, 25), (6, 24)]),
        (["mate", "--lambda", "-1", "--n", "24"], [(2, 25), (6, 24)]),
        (["mate", "--auto", "--n", "256"], [(4, 64), (2, 257), (6, 128)]),
        (["verify", "--n", "24"], [(2, 25), (6, 24)]),
        (["classify"], [(2, 25), (6, 128)]),
        (["classify", "--align", "arclength"], [(2, 25), (4, 128), (3, 512), (6, 128)]),
        *[(["indicatrix", "--kind", f"{axis}-{side}", "--n", "64"], [(2, 25), (8, 64)])
          for axis in "tnb" for side in ("base", "mate")],
    ],
    ids=lambda v: "-".join(a.lstrip("-") for a in v) if isinstance(v[0], str) else "runs",
)
def test_generator_pipeline_orders_per_command(pair_24, tmp_path, capsys, monkeypatch,
                                               argv, want):
    """Each command asks the generator for the orders it reads: the mate's
    pair check, classify and verify at order 6, and indicatrix at order
    8 on one detection grid, one run per grid."""
    base, mate = pair_24
    if argv[0] == "mate":
        argv = [*argv[:1], base, *argv[1:], "--out", str(tmp_path / "mate.json")]
    else:
        argv = [*argv[:1], base, mate, *argv[1:]]
    _, runs = _count_generator_work(monkeypatch)
    rc, _, err = run(capsys, argv)
    assert rc == 0, err
    assert runs == want


def _one_file_commands(tmp_path):
    """A wobble seed file, and the argv of each command that reads one
    file, with SEED or BASE where the file goes."""
    seed = str(tmp_path / "seed.json")
    save_curve(sphere_preset("wobble"), seed)
    return seed, [
        ["frenet", "BASE", "--grid", "8"],
        ["mate", "BASE", "--auto", "--n", "24", "--out", str(tmp_path / "out.json")],
        ["classify", "BASE"],
        ["generate", "--sphere-curve", "SEED", "--n", "24", "--out", str(tmp_path / "gen.json")],
    ]


TWO_FILE_COMMANDS = [
    ["verify", "BASE", "MATE", "--n", "24"],
    ["indicatrix", "BASE", "MATE", "--kind", "b-mate", "--n", "24"],
    ["classify", "BASE", "MATE"],
]


def test_each_command_reads_each_input_once(pair_24, tmp_path, capsys, monkeypatch):
    """Every command opens each input file once, and its report's
    ``inputs`` holds the sha256 of those bytes (mate, verify, indicatrix
    and classify opened each input twice, to parse it and to hash it)."""
    seed, commands = _one_file_commands(tmp_path)
    files = {"SEED": seed, "BASE": pair_24[0], "MATE": pair_24[1]}
    real_open = builtins.open
    for argv in commands + TWO_FILE_COMMANDS:
        argv = [files.get(a, a) for a in argv]
        inputs = [a for a in argv if a in files.values()]
        opened = Counter()

        def counting_open(file, *args, **kwargs):
            opened[file] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        rc, out, err = run(capsys, argv)
        monkeypatch.undo()
        assert rc == 0, err
        assert {p: opened[p] for p in inputs} == dict.fromkeys(inputs, 1), argv
        assert json.loads(out)["inputs"] == {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}


@pytest.mark.parametrize("data", [b"\xff\xfe\x00bad", b'{"label": "caf\xe9"}',
                                  '{"type": "analytic"}'.encode("utf-16")],
                         ids=["repro", "latin-1", "utf-16"])
def test_input_that_is_not_utf8_is_a_parse_error(pair_24, tmp_path, capsys, data):
    """A curve file whose bytes are not UTF-8 JSON text, in any input
    place of any command, exits 2 with one error line naming the file
    (a UnicodeDecodeError traceback, exit 1, before)."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    with pytest.raises(CurveFileError) as exc:
        load_curve(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")
    _, commands = _one_file_commands(tmp_path)
    files = {"BASE": pair_24[0], "MATE": pair_24[1]}
    places = [[str(bad) if a in ("SEED", "BASE") else a for a in argv] for argv in commands]
    places += [[str(bad) if a == which else files.get(a, a) for a in argv]
               for argv in TWO_FILE_COMMANDS for which in ("BASE", "MATE")]
    for argv in places:
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize("which", ["base", "mate"])
@pytest.mark.parametrize("n", ["1e400", "20000", "63", "64.5"])
def test_metadata_n_that_contradicts_the_samples_builds_nothing(
        small_pair, tmp_path, capsys, monkeypatch, which, n):
    """A recorded ``n`` other than the stored sample count less one
    (65 samples here) is a recipe that cannot be rebuilt: the file loads
    its stored samples without building a generator or a mate, and the
    CLI reads it (an n of 1e400 overflowed int(), a traceback)."""
    path = small_pair[which == "mate"]
    with open(path) as fh:
        text = fh.read()
    assert text.count('"n": 64') == 1
    f = tmp_path / f"{which}.json"
    f.write_text(text.replace('"n": 64', f'"n": {n}'))
    counts, pipelines = _count_generator_work(monkeypatch)
    real_mate = bertrand.construct_mate

    def mate(*args, **kwargs):
        counts["mates"] += 1
        return real_mate(*args, **kwargs)

    monkeypatch.setattr(bertrand, "construct_mate", mate)
    c = load_curve(str(f))
    assert counts == Counter() and pipelines == []
    assert isinstance(c, SampledCurve)
    stored = json.loads(text)["sampled"]
    np.testing.assert_array_equal(c.params, stored["t"])
    np.testing.assert_array_equal(c.points, stored["points"])
    rc, out, err = run(capsys, ["frenet", str(f), "--grid", "8"])
    assert rc == 0, err
    assert json.loads(out)["results"]["n_rows"] == 8


@pytest.mark.parametrize("which, n", [("base", 1), ("mate", 0)])
def test_file_of_a_size_its_recipe_refuses_loads_its_samples(
        small_pair, tmp_path, capsys, which, n):
    """A generator file of n = 1 (2 samples) or a mate file of n = 0 (1
    sample), sizes that ``generate_bertrand_curve`` and ``construct_mate``
    refuse, is not rebuilt: it loads as its samples, too few for a
    sampled curve, and ``frenet`` exits 2 with one error line (the mate
    was rebuilt on the point domain, and ``frenet --grid 4`` printed four
    equal rows)."""
    with open(small_pair[which == "mate"]) as fh:
        stored = json.load(fh)
    for key in ("t", "points"):
        stored["sampled"][key] = stored["sampled"][key][:n + 1]
    stored["metadata"]["n"] = n
    f = tmp_path / f"{which}.json"
    f.write_text(dumps(stored))
    assert _rebuild_from_metadata(stored["metadata"], n) is None
    with pytest.raises(errors.TooFewSamplesError):
        load_curve(str(f))
    rc, out, err = run(capsys, ["frenet", str(f), "--grid", "4"])
    assert (rc, out) == (2, "")
    assert err == f"error: need at least 7 samples, got {n + 1}\n"


@pytest.mark.parametrize("base_n", ["1e400", "1.5", '"64"', "-1", "true"])
def test_mate_base_n_that_is_not_a_positive_integer_builds_nothing(
        small_pair, tmp_path, capsys, monkeypatch, base_n):
    """A mate's recorded ``base_n`` that is not a positive JSON integer is
    a recipe that cannot be rebuilt: the mate loads its stored samples,
    alone or beside its base, without building the base's generator, and
    verify reads the sampled mate (1e400 overflowed int(), a traceback
    with exit 1)."""
    base, mate = small_pair
    with open(mate) as fh:
        text = fh.read()
    assert text.count('"base_n": 64') == 1
    f = tmp_path / "mate.json"
    f.write_text(text.replace('"base_n": 64', f'"base_n": {base_n}'))
    counts, _ = _count_generator_work(monkeypatch)
    assert isinstance(load_curve(str(f)), SampledCurve)
    assert counts["builds"] == 0
    loaded, _ = read_inputs(base, str(f))
    assert counts["builds"] == 1
    assert tuple(map(type, loaded)) == (JetBackedCurve, SampledCurve)
    np.testing.assert_array_equal(loaded[1].points, json.loads(text)["sampled"]["points"])
    rc, out, err = run(capsys, ["verify", base, str(f), "--n", "24"])
    # exit 7 is the stencil path's fault (ROADMAP item 12): on a sampled
    # mate five identity entries fail (constraint-eq, eps-g-relation,
    # p1p2-constancy, th2 and th3); mending it changes this exit
    assert (rc, err) == (7, "")
    entries = json.loads(out)["results"]["entries"]
    failed = [key for key, e in entries.items() if not e["passed"]]
    assert failed and set(failed) <= set(IDENTITY_ENTRIES)


def _bits(curve):
    ts = np.linspace(*curve.domain, 24)
    return [np.ascontiguousarray(a, dtype=float).view(np.uint64)
            for a in (curve.params, curve.points, curve.jet(ts, 6).coeffs)]


def _other_base(path, **change):
    """A generated wobble base file, n = 64, with one recipe value changed."""
    recipe = {"seed": "wobble", "a": 1.0, "omega": bertrand.DEFAULT_OMEGA["wobble"], "n": 64}
    recipe.update(change)
    save_curve(generate_bertrand_curve(sphere_preset(recipe["seed"]), a=recipe["a"],
                                       omega=recipe["omega"], n=recipe["n"]), path)
    return path


def _shifted(path, out):
    """A copy of a curve file with one stored point moved by 1e-9."""
    with open(path) as fh:
        stored = json.load(fh)
    stored["sampled"]["points"][3][0] += 1e-9
    with open(out, "w") as fh:
        fh.write(dumps(stored))
    return out


# one change to each key of a mate's recorded base block; a changed
# float is the next float, which a rebuild still matches to 1e-12
_BLOCK_EDITS = {
    "base_generator": lambda v: "analytic" if v == "bertrand" else "bertrand",
    "a": lambda v: math.nextafter(v, math.inf),
    "omega": lambda v: math.nextafter(v, math.inf),
    "seed_label": lambda v: "tilt",
    "base_n": lambda v: v - 1,
    **{f"base_{c}": (lambda v: v + " + 0") for c in "xyz"},
    "base_lo": lambda v: math.nextafter(v, -math.inf),
    "base_hi": lambda v: math.nextafter(v, math.inf),
}


@pytest.fixture(scope="module")
def helix_pair(tmp_path_factory):
    """Paths of an analytic helix file and of its mate file at n = 64."""
    d = tmp_path_factory.mktemp("helix")
    base, mate = str(d / "base.json"), str(d / "mate.json")
    save_curve(AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix"), base)
    assert main(["mate", base, "--lambda", "0.5", "--n", "64", "--out", mate]) == 0
    return base, mate


@pytest.mark.parametrize("case, kinds, builds", [
    ("recorded base", (JetBackedCurve, JetBackedCurve), 1),
    ("shifted mate", (JetBackedCurve, SampledCurve), 1),
    ("shifted base", (SampledCurve, JetBackedCurve), 2),
    ("mate as base", (JetBackedCurve, JetBackedCurve), 2),
    ("other a", (JetBackedCurve, JetBackedCurve), 2),
    ("other omega", (JetBackedCurve, JetBackedCurve), 2),
    ("other n", (JetBackedCurve, JetBackedCurve), 2),
    ("other seed", (JetBackedCurve, JetBackedCurve), 2),
    ("edited base_generator", (JetBackedCurve, SampledCurve), 1),
    *[(f"edited {key}", (JetBackedCurve, JetBackedCurve), 2) for key in ("a", "omega", "base_n")],
    ("edited seed_label", (JetBackedCurve, SampledCurve), 2),
    ("analytic recorded base", (AnalyticCurve, JetBackedCurve), 0),
    ("analytic edited base_generator", (AnalyticCurve, SampledCurve), 0),
    *[(f"analytic edited {key}", (AnalyticCurve, JetBackedCurve), 0)
      for key in ("base_x", "base_y", "base_z", "base_lo", "base_hi")],
])
def test_mate_beside_its_base_keeps_the_stored_sample_checks(
        small_pair, helix_pair, tmp_path, monkeypatch, case, kinds, builds):
    """Rebuilding a mate on the loaded base file changes no check: a
    shifted stored point still makes either file a SampledCurve, a mate
    beside a file that is not a rebuilt generator curve, or whose seed, a,
    omega or n differ from the mate's record, gets its own base, and in
    every case the mate has the params, points and order-6 jets of the
    mate file loaded alone.  Only an untouched mate file beside its
    untouched base file, generated or analytic, is rebuilt on that base
    object; one with any key of its base block changed never is (an
    analytic mate got a second ``AnalyticCurve`` even untouched)."""
    base, mate = helix_pair if case.startswith("analytic") else small_pair
    if case == "shifted mate":
        mate = _shifted(mate, str(tmp_path / "mate.json"))
    elif case == "shifted base":
        base = _shifted(base, str(tmp_path / "base.json"))
    elif case == "mate as base":
        # seed, a, omega and n as the mate records for its base, but the
        # curve is the normal offset, not the generator curve
        base = mate
    elif "edited" in case:
        key = case.split()[-1]
        with open(mate) as fh:
            stored = json.load(fh)
        stored["metadata"][key] = _BLOCK_EDITS[key](stored["metadata"][key])
        mate = str(tmp_path / "mate.json")
        with open(mate, "w") as fh:
            fh.write(dumps(stored))
    elif not case.endswith("recorded base"):
        change = {"other a": {"a": 1.5}, "other omega": {"omega": 0.6 * math.pi},
                  "other n": {"n": 48}, "other seed": {"seed": "tilt"}}[case]
        base = _other_base(str(tmp_path / "base.json"), **change)
    counts, _ = _count_generator_work(monkeypatch)
    loaded, _ = read_inputs(base, mate)
    assert counts["builds"] == builds
    assert tuple(map(type, loaded)) == kinds
    on_base = loaded[1]._offset_of is not None and loaded[1]._offset_of[0] is loaded[0]
    assert on_base == case.endswith("recorded base")
    alone = load_curve(mate)
    assert loaded[1].label == alone.label
    for got, want in zip(_bits(loaded[1]), _bits(alone)):
        np.testing.assert_array_equal(got, want)


def test_main_builds_the_parser_once(small_pair, capsys, monkeypatch):
    """Two ``main`` calls in one process build the argument parser once."""
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert run(capsys, ["classify", small_pair[0]])[0] == 0
    assert run(capsys, ["verify", *small_pair, "--n", "24"])[0] == 0
    assert len(builds) == 1


def test_reused_parser_keeps_no_state_between_calls(small_pair, capsys):
    """A plain verify after a --tol call and a parse error gives the bytes
    of a plain verify on a freshly built parser."""
    cli._parser.cache_clear()
    first = run(capsys, ["verify", *small_pair, "--n", "24"])
    assert first[0] == 0
    tol = run(capsys, ["verify", *small_pair, "--n", "24", "--tol", "th2=1e-3"])
    assert tol[0] == 0 and '"th2": 0.001' in tol[1]
    assert run(capsys, ["verify", *small_pair, "--n", "zz"])[0] == 2
    assert run(capsys, ["verify", *small_pair, "--n", "24"]) == first
