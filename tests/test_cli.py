"""Command-line behavior: reports, determinism, exit codes, round trips."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from bertrand_kit import bertrand
from bertrand_kit.bertrand import construct_mate, generate_bertrand_curve, sphere_preset
from bertrand_kit.classify import _KEYLESS_ENTRIES, IDENTITY_ENTRIES, TOLERANCE_KEYS
from bertrand_kit.cli import _detect_from_files, main
from bertrand_kit.curves import AnalyticCurve, JetBackedCurve, SampledCurve, frenet_grid
from bertrand_kit.indicatrix import apparatus_grid, indicatrix_curve
from bertrand_kit.io import _load_curve_pair, dumps, load_curve, save_curve


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
KEYLESS_WHY = {"th6=0": "tol_slant and tol_indicatrix_helix",
               "th25=0": "tol_slant and tol_indicatrix_helix",
               "teo15=0": "tol_slant and tol_indicatrix_helix",
               "teo33=-1": "tol_slant and tol_indicatrix_helix",
               "th8=1e-30": "tol_condition", "th17=1": "tol_condition",
               "th11=1": "tol_condition", "cr18=0": "fixed tolerance of 0.5",
               "negative-result=1": "fixed tolerance of 0.5"}


@pytest.mark.parametrize("item", ["th2=abc", "th2=", "th2", "th2=nan", "thx=1", "=1",
                                  *KEYLESS_WHY])
def test_verify_rejects_a_bad_tol(workdir, capsys, item):
    """A value that is not a number, or a key the suite does not read, is
    a parse error (exit 2) that names the item, before any file is read;
    for an entry with no key of its own the message says what sets its
    tolerance."""
    rc, out, err = run(capsys, ["verify", str(workdir / "base.json"),
                                str(workdir / "mate.json"), "--tol", item])
    assert (rc, out) == (2, "")
    assert "argument --tol: " in err and repr(item) in err
    assert KEYLESS_WHY.get(item, "") in err


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
    """The indicatrix table built point by point from the public views,
    on the pair the CLI loads from the same files."""
    pair = _detect_from_files(load_curve(base), load_curve(mate), min(n, 128))
    ts = np.linspace(pair.ts[0], pair.ts[-1], n)
    image = indicatrix_curve(pair.base if side == "base" else pair.mate, axis, n)
    rows = []
    for t, s, fdi in zip(ts, apparatus_grid(pair, side, axis, ts), frenet_grid(image, ts)):
        if s is None or fdi is None:
            continue
        gap_k = abs(abs(s.kappa_image) - fdi.kappa) / max(abs(fdi.kappa), 1e-30)
        gap_t = abs(abs(s.tau_image) - abs(fdi.tau)) / max(abs(fdi.tau), 1e-30)
        rows.append([float(v) for v in (
            t, *s.point, np.linalg.norm(s.point), s.kappa, s.tau, s.kappa_image,
            s.tau_image, 0.0 if math.isnan(s.Gamma) else s.Gamma, fdi.kappa, fdi.tau,
            gap_k, gap_t)])
    return rows


@pytest.mark.parametrize("kind", [f"{a}-{s}" for a in "tnb" for s in ("base", "mate")])
def test_indicatrix_rows_equal_the_views_table(workdir, capsys, kind):
    """The table the CLI computes over rows has the bits of the table
    built from the one-point views, the norm of each point included
    (a norm along the rows' axis rounds differently)."""
    base, mate = str(workdir / "base.json"), str(workdir / "mate.json")
    rc, out, _ = run(capsys, ["indicatrix", base, mate, "--kind", kind, "--n", "64"])
    assert rc == 0
    rows = json.loads(out)["results"]["rows"]
    axis = {"t": "tangent", "n": "normal", "b": "binormal"}[kind[0]]
    want = _table_from_views(base, mate, kind.split("-")[1], axis, 64)
    assert len(want) == 64
    assert rows == want


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


@pytest.mark.parametrize("content", [
    _analytic_file(domain=(1, 0)),
    _analytic_file(domain=(0, math.nan)),
    _analytic_file(domain=("a", 1)),
    _analytic_file(x=1.5),
    _analytic_file(domain=(0, math.inf)),
    _sampled_file(t_at_5=math.nan),
    _sampled_file(point_at_5=math.nan),
    _sampled_file(point_at_5=math.inf),
], ids=["reversed-domain", "nan-domain", "text-domain", "number-x", "infinite-domain",
        "nan-t", "nan-point", "infinite-point"])
def test_malformed_curve_file_is_a_parse_error(capsys, tmp_path, content):
    """A curve file whose expressions are not strings, whose domain is not
    a finite lo < hi, or whose samples are not finite exits 2 on every
    command that loads it, with one line on stderr."""
    f = tmp_path / "bad.json"
    # json writes NaN and Infinity, which it also reads back
    f.write_text(json.dumps(content))
    for argv in (["frenet", str(f), "--grid", "16", "--mask"],
                 ["classify", str(f), "--n", "64"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


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


def test_exit_degenerate_ratio_auto_lambda(workdir, capsys):
    # circular helix: constant kappa and tau, lambda is not unique
    rc, _, err = run(capsys, ["mate", str(workdir / "helix.json"), "--auto"])
    assert rc == 5


def test_exit_not_a_pair(workdir, capsys, tmp_path):
    f = tmp_path / "other.json"
    save_curve(AnalyticCurve("t", "t^2", "t^3", (0.0, 0.4)), str(f))
    rc, _, err = run(capsys, ["verify", str(workdir / "base.json"), str(f),
                              "--n", "32"])
    assert rc == 6
    # the error's own text already names the reason: printed once
    assert err.count("not a Bertrand pair") == 1


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
    ],
)
def test_out_of_range_parameter_is_a_parse_error(workdir, capsys, tmp_path, monkeypatch,
                                                 argv):
    """A generator a or omega outside its range, or a lambda that is not
    finite, exits 2 with one error line and writes no curve file."""
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, [str(workdir / "base.json") if a == "BASE" else a
                                for a in argv])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_curve_that_overflows_is_not_saved(capsys, tmp_path, monkeypatch):
    """A generator a, or a lambda on a huge base, whose curve overflows
    exits 2 with one error line naming the first bad row, and writes no
    curve file (it used to write one of null coordinates and exit 0)."""
    monkeypatch.chdir(tmp_path)
    # the generator's overflow RuntimeWarnings are not under test here
    with np.errstate(all="ignore"):
        rc, _, _ = run(capsys, ["generate", "--sphere-curve", "wobble", "--n", "64",
                                "--a", "1e300", "--out", "huge.json"])
        assert rc == 0
        for argv in (["generate", "--sphere-curve", "wobble", "--n", "64", "--a", "1e308"],
                     ["mate", "huge.json", "--lambda", "1e308", "--n", "64"]):
            rc, out, err = run(capsys, argv)
            assert (rc, out) == (2, "")
            assert err.startswith("error: curve ") and err.count("\n") == 1
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


def test_curve_file_round_trip_byte_identical(workdir, tmp_path):
    c = load_curve(str(workdir / "base.json"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_curve(c, str(p1))
    save_curve(load_curve(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


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


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """Paths of a wobble base file and of its mate file, both at n = 64."""
    d = tmp_path_factory.mktemp("small")
    base, mate = str(d / "base.json"), str(d / "mate.json")
    assert main(["generate", "--sphere-curve", "wobble", "--n", "64", "--out", base]) == 0
    assert main(["mate", base, "--auto", "--n", "64", "--out", mate]) == 0
    return base, mate


def _count_generator_work(monkeypatch):
    """A Counter of generator builds, node walks (order-10 requests to an
    analytic seed) and generator pipelines (one series reversion each)."""
    counts = Counter()
    real_generate, real_invert = bertrand.generate_bertrand_curve, bertrand.invert_series
    real_jet = AnalyticCurve.jet

    def generate(*args, **kwargs):
        counts["builds"] += 1
        return real_generate(*args, **kwargs)

    def invert(fwd):
        counts["pipelines"] += 1
        return real_invert(fwd)

    def jet(self, t, order):
        counts["walks"] += order >= 10
        return real_jet(self, t, order)

    monkeypatch.setattr(bertrand, "generate_bertrand_curve", generate)
    monkeypatch.setattr(bertrand, "invert_series", invert)
    monkeypatch.setattr(AnalyticCurve, "jet", jet)
    return counts


# With the mate's base rebuilt as a second generator, the same commands
# made 2 builds, 2 walks and 4, 4, 4, 6, 3 and 4 pipelines.
@pytest.mark.parametrize(
    "argv, pipelines",
    [
        (["verify", "--n", "24"], 3),
        *[(["indicatrix", "--kind", f"{axis}-{side}", "--n", "64"], 4 if axis != "b" else 5)
          for axis in "tnb" for side in ("base", "mate")],
        (["classify"], 2),
        (["classify", "--align", "arclength"], 4),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else str(v),
)
def test_file_pair_builds_one_generator(small_pair, capsys, monkeypatch, argv, pipelines):
    """A mate file loaded beside the base file whose recipe it records is
    rebuilt on that base curve: each two-file command makes one generator
    build and one node walk, and the mate's frame reuses the jets its
    base's Frenet rows hold."""
    counts = _count_generator_work(monkeypatch)
    rc, _, _ = run(capsys, [argv[0], *small_pair, *argv[1:]])
    assert rc == 0
    assert counts == Counter(builds=1, walks=1, pipelines=pipelines)


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
    counts = _count_generator_work(monkeypatch)
    real_mate = bertrand.construct_mate

    def mate(*args, **kwargs):
        counts["mates"] += 1
        return real_mate(*args, **kwargs)

    monkeypatch.setattr(bertrand, "construct_mate", mate)
    c = load_curve(str(f))
    assert counts == Counter()
    assert isinstance(c, SampledCurve)
    stored = json.loads(text)["sampled"]
    np.testing.assert_array_equal(c.params, stored["t"])
    np.testing.assert_array_equal(c.points, stored["points"])
    rc, out, err = run(capsys, ["frenet", str(f), "--grid", "8"])
    assert rc == 0, err
    assert json.loads(out)["results"]["n_rows"] == 8


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


@pytest.mark.parametrize("case, kinds, builds", [
    ("recorded base", (JetBackedCurve, JetBackedCurve), 1),
    ("shifted mate", (JetBackedCurve, SampledCurve), 1),
    ("shifted base", (SampledCurve, JetBackedCurve), 2),
    ("mate as base", (JetBackedCurve, JetBackedCurve), 2),
    ("other a", (JetBackedCurve, JetBackedCurve), 2),
    ("other omega", (JetBackedCurve, JetBackedCurve), 2),
    ("other n", (JetBackedCurve, JetBackedCurve), 2),
    ("other seed", (JetBackedCurve, JetBackedCurve), 2),
])
def test_mate_beside_its_base_keeps_the_stored_sample_checks(
        small_pair, tmp_path, monkeypatch, case, kinds, builds):
    """Rebuilding a mate on the loaded base file changes no check: a
    shifted stored point still makes either file a SampledCurve, a mate
    beside a file that is not a rebuilt generator curve, or whose seed, a,
    omega or n differ from the mate's record, gets its own base, and in
    every case the mate has the params, points and order-6 jets of the
    mate file loaded alone."""
    base, mate = small_pair
    if case == "shifted mate":
        mate = _shifted(mate, str(tmp_path / "mate.json"))
    elif case == "shifted base":
        base = _shifted(base, str(tmp_path / "base.json"))
    elif case == "mate as base":
        # seed, a, omega and n as the mate records for its base, but the
        # curve is the normal offset, not the generator curve
        base = mate
    elif case != "recorded base":
        change = {"other a": {"a": 1.5}, "other omega": {"omega": 0.6 * math.pi},
                  "other n": {"n": 48}, "other seed": {"seed": "tilt"}}[case]
        base = _other_base(str(tmp_path / "base.json"), **change)
    counts = _count_generator_work(monkeypatch)
    loaded = _load_curve_pair(base, mate)
    assert counts["builds"] == builds
    assert tuple(map(type, loaded)) == kinds
    alone = load_curve(mate)
    assert loaded[1].label == alone.label
    for got, want in zip(_bits(loaded[1]), _bits(alone)):
        np.testing.assert_array_equal(got, want)
