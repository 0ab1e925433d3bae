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
    bertrand_lambda,
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    geodesic_indicator_closed_form,
    mate_apparatus_from_base,
)
from bertrand_kit.classify import theorem_suite
from bertrand_kit.cli import EXIT_NOT_A_PAIR, EXIT_OK, EXIT_PARSE, EXIT_SINGULAR, main
from bertrand_kit.curves import AnalyticCurve, _frenet_rows, frenet_apparatus, frenet_grid
from bertrand_kit.errors import (
    DegenerateRatioError,
    NotAPairError,
    SingularPointError,
    TooFewSamplesError,
)
from bertrand_kit.indicatrix import AXES, SIDES, apparatus_grid
from bertrand_kit.io import save_curve


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
                        lambda r: mate_apparatus_from_base(r, helical_pair.epsilon),
                        lambda r: geodesic_indicator_closed_form(r, side)):
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


def test_helical_pair_verify_exits_parse_error(helical_files, capsys):
    assert main(["verify", *helical_files, "--n", "64"]) == EXIT_PARSE
    assert "0 usable grid rows" in capsys.readouterr().err


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
    rows = _frenet_rows(curve, [1.0, 2.0, 3.0])
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
    rows = _frenet_rows(crossing_base, np.linspace(*crossing_base.domain, 128))
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
