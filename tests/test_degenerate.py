"""Degenerate inputs keep their typed errors and exit codes.

A circular helix and its normal offset form a Bertrand pair on which
kappa' = 0 everywhere, so g = tau'/kappa' is undefined at every point
and no closed form of the indicatrices applies.  A conical helix has
constant tau/kappa, so g = f and the offset distance is undefined.  A
fast curve (speed 10) with an inflection has a point where kappa is
below the curvature floor while kappa * speed is not.  A generated base
on which 1 + f g changes sign has a mate whose curvature, a multiple of
1 + f g, vanishes inside the grid, so the two principal normals turn
from parallel to antiparallel.  A planar ellipse and its normal offset
have f = g = 0 at every point, so the closed forms of the base's images
apply nowhere.
"""

import json

import numpy as np
import pytest

from bertrand_kit.bertrand import (
    DEFAULT_OMEGA,
    _normalized_analytic,
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    pair_constraint_residual,
)
from bertrand_kit.classify import theorem_suite
from bertrand_kit.cli import (
    EXIT_DEGENERATE_RATIO,
    EXIT_NOT_A_PAIR,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SINGULAR,
    main,
)
from bertrand_kit.curves import (
    AnalyticCurve,
    FrenetData,
    _frenet_columns,
    frenet_apparatus,
    frenet_grid,
)
from bertrand_kit.errors import (
    DegenerateRatioError,
    NotAPairError,
    SingularPointError,
    TooFewSamplesError,
)
from bertrand_kit.indicatrix import (
    AXES,
    SIDES,
    apparatus_grid,
    frame_relations_check,
    indicatrix_arclength_relations,
)
from bertrand_kit.io import save_curve
from bertrand_kit.paper import (
    _applies,
    bertrand_lambda,
    images,
    mate_apparatus_from_base,
)


@pytest.fixture(scope="module")
def helical_pair(helix):
    return detect_bertrand(helix, construct_mate(helix, 0.5), n=64)


@pytest.fixture(scope="module")
def helical_files(helix, tmp_path_factory):
    d = tmp_path_factory.mktemp("helical")
    base, mate = str(d / "base.json"), str(d / "mate.json")
    save_curve(helix, base)
    save_curve(construct_mate(helix, 0.5), mate)
    return base, mate


def test_helical_pair_is_detected_with_g_undefined(helical_pair):
    assert not helical_pair.masked.any()
    assert helical_pair.lam == pytest.approx(0.5, rel=1e-12)
    for ris in (helical_pair.ri_base, helical_pair.ri_mate):
        assert not any(ri.g_defined for ri in ris)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("axis", AXES)
def test_helical_pair_closed_forms_raise(helical_pair, side, axis):
    """The closed forms over the rows that ``side``'s images read, the
    other curve's, raise; the image has no closed form at t = 1."""
    rows = helical_pair.mate_rows if side == "base" else helical_pair.base_rows
    for closed_form in (bertrand_lambda,
                        lambda r: mate_apparatus_from_base(r, helical_pair.epsilon)):
        with pytest.raises(DegenerateRatioError, match="g undefined"):
            closed_form(rows)
    assert apparatus_grid(helical_pair, side, axis, [1.0]) == [None]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("axis", AXES)
def test_helical_pair_apparatus_grid_is_all_masked(helical_pair, side, axis):
    ts = np.linspace(helical_pair.ts[0], helical_pair.ts[-1], 17)
    assert apparatus_grid(helical_pair, side, axis, ts) == [None] * len(ts)


def test_helical_pair_suite_has_no_usable_rows(helical_pair):
    with pytest.raises(TooFewSamplesError, match="0 usable grid rows"):
        theorem_suite(helical_pair)


def test_helical_pair_frame_relations_have_no_closed_form_rows(helical_pair):
    """g is undefined on every row, so the closed forms apply at none: the
    frame relations raise, as the suite does, where they passed on zero
    rows, and count the rows where g is undefined."""
    with pytest.raises(TooFewSamplesError, match=(
            "^the closed forms of the base's images apply at 0 of 64 usable grid rows, "
            "need 16; rows with g undefined: 64, g = f: 0, 1 [+] f g = 0: 0$")):
        frame_relations_check(helical_pair, n=64)


def test_helical_pair_verify_exits_parse_error(helical_files, capsys):
    """verify on the helical pair exits 2 with one line that says g is
    undefined on every row of both curves."""
    assert main(["verify", *helical_files, "--n", "64"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: 0 usable grid rows of 64, need 16; rows with g undefined "
        "(|kappa'| < 1e-10): base 64, mate 64\n")


def test_planar_pair_verify_names_the_failed_closed_forms(tmp_path, capsys):
    """verify on a planar pair exits 2 with one line that names the side
    whose closed forms apply at too few rows and counts each failed
    condition, not the sample count of a later helix check."""
    base, mate = str(tmp_path / "ellipse.json"), str(tmp_path / "mate.json")
    save_curve(AnalyticCurve("2*cos(t)", "sin(t)", "0", (0.1, 2.9)), base)
    assert main(["mate", base, "--lambda", "0.2", "--n", "256", "--out", mate]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", base, mate, "--n", "64"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: the closed forms of the base's images apply at 0 of 64 usable grid rows, "
        "need 16; rows with g = f: 64, 1 + f g = 0: 0\n")


def test_helical_pair_mate_images_are_all_masked(helical_files, capsys):
    """The mate-side images read the base, an exact helix, where g is
    undefined at every row."""
    assert main(["indicatrix", *helical_files, "--kind", "t-mate", "--n", "64"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["n_rows"] == 0
    # the whole detection grid, inset by 1% of the domain at each end
    (interval,) = rep["masked_intervals"]
    assert interval == pytest.approx([0.06, 5.94])


@pytest.mark.parametrize("side", SIDES)
def test_helical_pair_b_kind_writes_no_csv(helical_files, tmp_path, capsys, side):
    """A b kind's affine law reads g of the data side, undefined at every
    row of the helical pair: indicatrix exits 5 with one error line and an
    empty stdout, and leaves no CSV (a header-only file was left before)."""
    csv = tmp_path / "ind.csv"
    rc = main(["indicatrix", *helical_files, "--kind", f"b-{side}", "--csv", str(csv)])
    out, err = capsys.readouterr()
    assert rc == EXIT_DEGENERATE_RATIO
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: g undefined at t=")
    assert not csv.exists()


def test_helical_pair_base_images_are_all_masked(helical_files, capsys):
    """The base-side images read the mate, which reloads from the recipe
    of its analytic base with exact jets, so g is undefined at every row
    there too (from stencil derivatives, kappa' would be noise above
    EPS_G)."""
    assert main(["indicatrix", *helical_files, "--kind", "t-base", "--n", "64"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["n_rows"] == 0
    (interval,) = rep["masked_intervals"]
    assert interval == pytest.approx([0.06, 5.94])


def test_conical_helix_has_no_offset_distance():
    curve = AnalyticCurve("exp(0.2*t)*cos(t)", "exp(0.2*t)*sin(t)", "1.5*exp(0.2*t)",
                          (0.0, 6.0))
    rows = _frenet_columns(curve, [1.0, 2.0, 3.0])[0]
    with pytest.raises(DegenerateRatioError, match=r"g = f degeneracy at t=1\.0$"):
        bertrand_lambda(rows)


# kappa = 6e-10 and speed 10 at t = 1e-8
FAST = ("10*t", "t^3", "0.001*t^5")


def test_fast_curve_flat_point_is_singular():
    """One curvature floor: the point is masked in a grid and raises at
    the point, as every point with kappa <= EPS_REG does."""
    curve = AnalyticCurve(*FAST, (-1.0, 1.0))
    grid = frenet_grid(curve, [-0.5, 1e-8, 0.5])
    assert [fd is None for fd in grid] == [False, True, False]
    with pytest.raises(SingularPointError,
                       match=r"^curvature below regularity floor at t=1e-08$"):
        frenet_apparatus(curve, 1e-8)


def test_pair_constraint_residual_raises_at_the_flat_point():
    """The flat point of the fast curve is its pair's too: detected with a
    permissive tolerance, the pair's constraint residual at t = 1e-8
    raises the base's curvature error."""
    curve = AnalyticCurve(*FAST, (-1.0, 1.0))
    pair = detect_bertrand(curve, construct_mate(curve, 0.1), tol_align=10)
    with pytest.raises(SingularPointError,
                       match=r"^curvature below regularity floor at t=1e-08$"):
        pair_constraint_residual(pair, 1e-8)


def test_arclength_relations_raise_at_the_flat_point():
    """The pair's detection grid of 128 points misses the flat point, so
    nothing is masked; the 257 points of the arc-length relations hit it
    (their midpoint is t = 0), where they raise the base's error."""
    curve = AnalyticCurve(*FAST, (-1.0, 1.0))
    pair = detect_bertrand(curve, construct_mate(curve, 0.1), tol_align=10)
    assert not pair.masked.any()
    with pytest.raises(SingularPointError,
                       match=r"^curvature below regularity floor at t=0\.0$"):
        indicatrix_arclength_relations(pair, "base", n=256)


def test_fast_curve_flat_point_cli(tmp_path, capsys):
    path = str(tmp_path / "fast.json")
    save_curve(AnalyticCurve(*FAST, (-1.0, 1.0)), path)
    assert main(["frenet", path, "--at", "1e-8", "--mask"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["n_rows"] == 0
    assert rep["masked_intervals"] == [[1e-8, 1e-8]]
    assert main(["frenet", path, "--at", "1e-8"]) == EXIT_SINGULAR
    assert capsys.readouterr().err == (
        "error: curvature below regularity floor at t=1e-08 "
        "(pass --mask to skip singular points)\n")


@pytest.fixture(scope="module")
def crossing_seed():
    """The wobble seed (x, y, z)/|(x, y, z)| on the window (1, 2) instead
    of its preset window (0.2, 0.62)."""
    return _normalized_analytic("cos(t)", "sin(t)", "0.3*sin(2*t)", (1.0, 2.0),
                                "wobble-window")


@pytest.fixture(scope="module")
def crossing_base(crossing_seed):
    return generate_bertrand_curve(crossing_seed, 1.0, DEFAULT_OMEGA["wobble"], n=256)


def test_one_plus_fg_changes_sign_on_the_generated_base(crossing_base):
    rows = _frenet_columns(crossing_base, np.linspace(*crossing_base.domain, 128))[0]
    one_plus_fg = 1.0 + rows.f * rows.g
    assert np.min(one_plus_fg) == pytest.approx(-3.07, abs=5e-3)
    assert np.max(one_plus_fg) == pytest.approx(0.97, abs=5e-3)


@pytest.mark.parametrize("grid", [24, 128])
def test_one_plus_fg_zero_pair_is_not_a_pair(crossing_base, grid):
    """The mate's normal flips against the base's where its curvature
    vanishes: detection names the flip."""
    mate = construct_mate(crossing_base, 1.0, n=256)
    with pytest.raises(NotAPairError, match=r"sign of <N, N_mate> flips$") as info:
        detect_bertrand(crossing_base, mate, n=grid)
    assert info.value.reason == "normals-not-aligned"


def test_one_plus_fg_zero_pair_cli(crossing_seed, tmp_path, capsys):
    """Through files: generate and mate succeed, mate's pair check reports
    the flip, and verify exits 6 with the same reason."""
    seed, base, mate = (str(tmp_path / f"{name}.json") for name in ("seed", "base", "mate"))
    save_curve(crossing_seed, seed)
    assert main(["generate", "--sphere-curve", seed, "--omega", "2.0943951023931957",
                 "--n", "256", "--out", base]) == EXIT_OK
    assert main(["mate", base, "--lambda", "1", "--n", "256", "--out", mate]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rep["results"]["pair_check"] == (
        "failed: not a Bertrand pair (normals-not-aligned): sign of <N, N_mate> flips")
    assert main(["verify", base, mate, "--n", "128"]) == EXIT_NOT_A_PAIR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: not a Bertrand pair (normals-not-aligned): "
                       "sign of <N, N_mate> flips\n")


def _rows_with_f_zero_at_row_1():
    """Three synthetic Frenet rows with the standard frame, the middle one
    torsion-free: f = 0 there, while g = tau'/kappa' = 0.5 is defined and
    differs from f."""
    kappa, tau = np.array([0.8, 0.9, 1.1]), np.array([0.3, 0.0, -0.2])
    dkappa, dtau = np.array([0.4, 0.6, -0.5]), np.array([0.1, 0.3, 0.2])
    frame = [np.tile(e, (3, 1)) for e in np.eye(3)]
    return FrenetData(
        t=np.array([0.1, 0.2, 0.3]), point=np.zeros((3, 3)), speed=np.ones(3),
        T=frame[0], N=frame[1], B=frame[2], kappa=kappa, tau=tau, dkappa_ds=dkappa,
        dtau_ds=dtau, d2kappa_ds2=np.array([0.2, -0.3, 0.7]), f=tau / kappa,
        g=dtau / dkappa, g_defined=np.ones(3, dtype=bool),
        Gamma=(dtau * kappa - tau * dkappa) / (kappa * kappa + tau * tau) ** 1.5)


@pytest.mark.parametrize("eps", [-1, 1])
def test_f_zero_row_keeps_the_image_closed_forms(eps):
    """A data row with f = 0 and g != f: the closed forms of the images
    apply there and are finite (on a detected pair such a base row is a
    cusp of the mate, which detection masks as singular), while the
    mate's apparatus, whose curvature and torsion divide by f, refuses
    it."""
    fd = _rows_with_f_zero_at_row_1()
    assert fd.f[1] == 0.0 and fd.g[1] == 0.5
    assert _applies(fd).all()
    for side in SIDES:
        for axis, sample in images(side, fd, eps).items():
            for name in sample._fields:
                value = getattr(sample, name)
                if not (axis == "normal" and name == "Gamma"):
                    assert np.isfinite(value).all(), (side, axis, name)
    with pytest.raises(DegenerateRatioError, match=r"^f = 0 or g = f at t=0\.2$"):
        mate_apparatus_from_base(fd, eps)
