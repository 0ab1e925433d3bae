"""Spherical indicatrices: closed forms against direct differentiation."""

import numpy as np
import pytest

from bertrand_kit import paper
from bertrand_kit.bertrand import detect_bertrand, generated_pair
from bertrand_kit.classify import theorem_suite
from bertrand_kit.curves import AnalyticCurve, _frenet_columns, _take_rows, frenet_grid
from bertrand_kit.errors import TooFewSamplesError
from bertrand_kit.indicatrix import (
    AXES,
    SIDES,
    _closed_forms,
    apparatus_grid,
    frame_relations_check,
    image_rows,
    indicatrix_arclength_relations,
    indicatrix_curve,
)


def probe_ts(pair, k=7):
    lo, hi = pair.ts[0], pair.ts[-1]
    pad = 0.06 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, k)


def test_kind_validation(pair_wobble):
    ts = probe_ts(pair_wobble, 3)
    with pytest.raises(ValueError):
        apparatus_grid(pair_wobble, "left", "tangent", ts)
    with pytest.raises(ValueError):
        apparatus_grid(pair_wobble, "base", "axis", ts)


def test_arclength_relations_refuse_a_side_that_names_no_image(pair_wobble):
    with pytest.raises(ValueError, match="'left'"):
        indicatrix_arclength_relations(pair_wobble, "left", n=64)


def test_indicatrix_curve_refuses_an_axis_that_names_no_image(pair_wobble):
    with pytest.raises(ValueError, match="'left'"):
        indicatrix_curve(pair_wobble.base, "left", 64)


def test_points_on_unit_sphere(pair_wobble):
    for side in ("base", "mate"):
        for axis in ("tangent", "normal", "binormal"):
            for s in apparatus_grid(pair_wobble, side, axis, probe_ts(pair_wobble, 5)):
                assert np.linalg.norm(s.point) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("preset, omega", [("wobble", None), ("tilt", None), ("bean", None),
                                           ("slant", None), ("tilt", 2.6)])
def test_points_match_frame_vectors(request, preset, omega):
    """The closed-form image points are the frame vectors themselves, at
    the presets' default angles (epsilon = -1) and at tilt's 2.6 (epsilon
    = +1).  The T and B images share their vectors with the mate
    apparatus.  Measured worst gap 9.4e-13 (bean)."""
    p = (request.getfixturevalue(f"pair_{preset}") if omega is None
         else generated_pair(preset, omega=omega, n=512, grid=256))
    assert p.epsilon == (1 if omega else -1)
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        ts = probe_ts(p, 5)
        for axis, vec in (("tangent", "T"), ("normal", "N"), ("binormal", "B")):
            for s, fd in zip(apparatus_grid(p, side, axis, ts), frenet_grid(src, ts)):
                assert np.allclose(s.point, getattr(fd, vec), atol=1e-11)


def test_closed_frames_match_direct(pair_wobble):
    p = pair_wobble
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        for axis in ("tangent", "normal", "binormal"):
            img = indicatrix_curve(src, axis, 700)
            ts = probe_ts(p, 4)
            for s, fdi in zip(apparatus_grid(p, side, axis, ts), frenet_grid(img, ts)):
                assert abs(abs(np.dot(s.T, fdi.T)) - 1) < 1e-6
                assert abs(abs(np.dot(s.N, fdi.N)) - 1) < 1e-6
                assert abs(abs(np.dot(s.B, fdi.B)) - 1) < 1e-6


def test_corrected_values_match_direct(pair_wobble):
    p = pair_wobble
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        for axis in ("tangent", "normal", "binormal"):
            img = indicatrix_curve(src, axis, 700)
            ts = probe_ts(p, 4)
            for s, fdi in zip(apparatus_grid(p, side, axis, ts), frenet_grid(img, ts)):
                assert abs(s.kappa_image) == pytest.approx(fdi.kappa, rel=2e-4)
                assert abs(s.tau_image) == pytest.approx(abs(fdi.tau), rel=2e-4,
                                                         abs=1e-6)


def test_convergence_under_grid_doubling(pair_wobble):
    """Direct estimates converge to the closed forms while truncation
    dominates; past ~50 samples the stencils are roundoff-limited."""
    p = pair_wobble
    gaps = []
    ts = probe_ts(p, 5)
    closed = apparatus_grid(p, "base", "tangent", ts)
    for n in (16, 32):
        img = indicatrix_curve(p.base, "tangent", n)
        worst = 0.0
        for s, fdi in zip(closed, frenet_grid(img, ts)):
            worst = max(worst, abs(abs(s.kappa_image) - fdi.kappa))
        gaps.append(worst)
    assert gaps[1] < gaps[0] / 3.0


def test_frame_relation_identities_exact(pair_wobble):
    rel = frame_relations_check(pair_wobble, n=48)
    for key, dev in rel.items():
        if key == "masked_points":
            continue
        assert dev < 1e-12, key


def test_frame_relations_need_enough_closed_form_rows(pair_wobble):
    """Eight points are fewer than the 16 rows a side's closed forms must
    apply at: the check raises, as the suite does, where it passed on
    eight rows."""
    with pytest.raises(TooFewSamplesError, match=(
            "^the closed forms of the base's images apply at 8 of 8 usable grid rows, "
            "need 16; rows with g = f: 0, 1 [+] f g = 0: 0$")):
        frame_relations_check(pair_wobble, n=8)


def test_torsion_curvature_ratio_sign_pattern(pair_wobble):
    """tau/kappa of the signed closed forms equals the slant indicator of the
    source curve, with a sign flip on the base tangent image only."""
    p = pair_wobble
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        for axis in ("tangent", "binormal"):
            sign = -1.0 if (side, axis) == ("base", "tangent") else 1.0
            ts = probe_ts(p, 5)
            for s, fd in zip(apparatus_grid(p, side, axis, ts), frenet_grid(src, ts)):
                assert s.tau / s.kappa == pytest.approx(sign * fd.Gamma, abs=1e-10)


def test_tangent_binormal_share_signed_magnitudes(pair_wobble):
    p = pair_wobble
    ts = probe_ts(p, 5)
    for st, sb in zip(apparatus_grid(p, "base", "tangent", ts),
                      apparatus_grid(p, "base", "binormal", ts)):
        assert abs(st.kappa) == pytest.approx(abs(sb.kappa), rel=1e-12)
        assert abs(st.tau) == pytest.approx(abs(sb.tau), rel=1e-12)


def test_arclength_relations(pair_wobble):
    for side in ("base", "mate"):
        rel = indicatrix_arclength_relations(pair_wobble, side, n=128)
        # signed closed-form binormal and normal arc lengths match quadrature of the
        # actual image speeds
        assert np.max(np.abs(np.abs(rel.s_b) - rel.s_b_direct)) < 1e-9
        assert np.max(np.abs(np.abs(rel.s_n) - rel.s_n_direct)) < 1e-9
        rng = rel.s_b[-1] - rel.s_b[0]
        assert rel.affine_fit.rms_residual < 1e-10 * max(1.0, abs(rng))
        assert abs(rel.affine_fit.slope) == pytest.approx(rel.predicted_slope,
                                                          abs=1e-9)
        assert rel.c1_deviation < 1e-9


def test_tangent_arclength_form_is_binormal_rate(pair_wobble):
    """The shared closed-form rate reproduces the binormal image speed,
    not the tangent image speed, whenever the two differ."""
    rel = indicatrix_arclength_relations(pair_wobble, "base", n=128)
    assert np.max(np.abs(np.abs(rel.s_b) - rel.s_b_direct)) < 1e-9
    assert np.max(np.abs(np.abs(rel.s_b) - rel.s_t_direct)) > 1e-3


def test_normal_image_values_direct(pair_wobble):
    p = pair_wobble
    img = indicatrix_curve(p.base, "normal", 700)
    ts = probe_ts(p, 4)
    for s, fdi in zip(apparatus_grid(p, "base", "normal", ts), frenet_grid(img, ts)):
        assert abs(s.kappa) == pytest.approx(fdi.kappa, rel=2e-4)


# Closed forms against the exact image rows.  Measured worst gaps, all on
# bean: kappa 1.4e-11 (relative), tau 4.6e-11 (relative to max(|tau|,
# kappa); 2.5e-11 at epsilon = -1), |Gamma| 7.6e-11 (scaled by max(1,
# max |Gamma|)).
TOL_EXACT_IMAGE = 1e-9

# an angle of each preset beyond its cusp band, where epsilon = +1 with
# lambda = +a
EPS_PLUS_ONE_OMEGA = {"wobble": 0.5, "tilt": 2.6, "bean": 2.0, "slant": 2.5}


@pytest.mark.parametrize("n, grid", [(64, 24), (512, 128)])
@pytest.mark.parametrize("a", [1.0, 1.37])
@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant"])
def test_closed_forms_match_the_exact_images(preset, a, n, grid):
    """The corrected kappa and the signed tau of every image, and |Gamma|
    of the tangent and binormal images, written in the other curve's
    quantities, equal the Frenet rows of the image itself (``image_rows``,
    exact jets of T, N and B), at the preset's default angle (epsilon =
    -1) and at an angle with epsilon = +1.  Gamma is compared by
    magnitude: its sign pattern over presets, sides and axes is not
    stated here."""
    for omega, eps in ((None, -1), (EPS_PLUS_ONE_OMEGA[preset], 1)):
        pair = generated_pair(preset, a=a, omega=omega, n=n, grid=grid)
        assert pair.epsilon == eps
        ts = pair.ts[~pair.masked]
        for side in SIDES:
            fd = pair.mate_rows if side == "base" else pair.base_rows
            assert paper._applies(fd).all()
            idx = np.arange(len(ts))
            rows, regular, _ = image_rows(getattr(pair, side), ts)
            row_of = np.cumsum(regular) - 1
            images = paper.images(side, fd, pair.epsilon)
            for k, axis in enumerate(AXES):
                closed = images[axis]
                columns = k * len(ts) + idx
                assert regular[columns].all()
                exact = _take_rows(rows, row_of[columns])
                gap_k = np.abs(closed.kappa_image - exact.kappa) / exact.kappa
                gap_t = (np.abs(closed.tau_image - exact.tau)
                         / np.maximum(np.abs(exact.tau), exact.kappa))
                assert np.max(gap_k) < TOL_EXACT_IMAGE, (omega, side, axis)
                assert np.max(gap_t) < TOL_EXACT_IMAGE, (omega, side, axis)
                if axis != "normal":
                    gap_g = (np.max(np.abs(np.abs(closed.Gamma) - np.abs(exact.Gamma)))
                             / max(1.0, np.max(np.abs(exact.Gamma))))
                    assert gap_g < TOL_EXACT_IMAGE, (omega, side, axis)


# the worst |Gamma_B + sgn(tau_X) Gamma_T| / max|Gamma_T| measured over
# the curves below is 6.0e-11, on bean's mate; the bound leaves a factor 10
TOL_GAMMA_SIGN = 6e-10


@pytest.mark.parametrize("imaged", ["cubic", "mirror-cubic", "wobble", "tilt", "bean"])
def test_binormal_image_gamma_is_minus_sgn_tau_times_the_tangent_images(imaged):
    """On the exact image rows of a curve X, the binormal image's Gamma is
    -sgn(tau_X) times the tangent image's: the T and B images share
    |Gamma|, not its sign.  X is the twisted cubic (tau > 0), its mirror
    (tau < 0), or either curve of a preset pair (n = 256, grid 64),
    compared where both images are regular.  Slant is left out: there
    every image's |Gamma| is below 5e-13 and has no sign."""
    if imaged.endswith("cubic"):
        z = "-t^3" if imaged.startswith("mirror") else "t^3"
        cases = [(AnalyticCurve("t", "t^2", z, (-1.0, 1.0)), np.linspace(-1.0, 1.0, 64))]
    else:
        pair = generated_pair(imaged, n=256, grid=64)
        cases = [(getattr(pair, side), pair.ts[~pair.masked]) for side in SIDES]
    for curve, ts in cases:
        n = len(ts)
        rows, regular, _ = image_rows(curve, ts)
        row_of = np.cumsum(regular) - 1
        both = regular[:n] & regular[2 * n:]
        assert np.count_nonzero(both) >= 48
        gamma_t, gamma_b = rows.Gamma[row_of[:n][both]], rows.Gamma[row_of[2 * n:][both]]
        tau = _frenet_columns(curve, ts[both])[0].tau
        assert len(tau) == len(gamma_t)
        gap = np.max(np.abs(gamma_b + np.sign(tau) * gamma_t)) / np.max(np.abs(gamma_t))
        assert gap < TOL_GAMMA_SIGN, curve.label


@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant"])
def test_swapped_pair_images_the_same_curve_with_the_same_bits(preset):
    """Detecting the pair as (mate, base) gives the same epsilon and the
    offset -eps lambda, and its base side's closed-form images, read from
    the same curve's rows, are the mate side's images of the pair bit for
    bit in point, kappa_image and tau_image, at the default angle and at
    an angle with epsilon = +1.  The suite's mirrored entries trade
    values bit for bit.  The signed tau and Gamma of the T and B images
    are not compared: each side states its own sign."""
    for omega in (None, EPS_PLUS_ONE_OMEGA[preset]):
        pair = generated_pair(preset, omega=omega, n=512, grid=128)
        swap = detect_bertrand(pair.mate, pair.base, n=128)
        eps = pair.epsilon
        assert swap.epsilon == eps
        assert swap.lam == -eps * pair.lam
        assert np.array_equal(swap.ts, pair.ts) and np.array_equal(swap.masked, pair.masked)
        applies, mate_side = _closed_forms("mate", pair.base_rows, pair.mate_rows, eps)
        swap_applies, base_side = _closed_forms("base", swap.base_rows, swap.mate_rows, eps)
        assert applies.all() and swap_applies.all()
        for axis in AXES:
            for name in ("point", "kappa_image", "tau_image"):
                got, want = (getattr(images[axis], name).view(np.uint64)
                             for images in (base_side, mate_side))
                assert np.array_equal(got, want), (omega, axis, name)
        entries, swapped = theorem_suite(pair).entries, theorem_suite(swap).entries
        for one, other in (("th3", "th22"), ("cr14", "cr33"), ("th6", "th25")):
            for key, mirror in ((one, other), (other, one)):
                assert entries[key].max_residual.hex() == swapped[mirror].max_residual.hex(), key


def test_suite_builds_each_sides_closed_forms_once(monkeypatch):
    """One ``theorem_suite`` run evaluates the shared Gamma of the tangent
    and binormal images once per side, the base's images from the mate's
    rows and then the mate's from the base's: the three images of a side
    come from one pass."""
    calls = []

    def counted(fd, *args):
        calls.append(fd.kappa)
        return real(fd, *args)

    real = paper._gamma_big
    monkeypatch.setattr(paper, "_gamma_big", counted)
    pair = generated_pair("wobble", n=64, grid=24)
    theorem_suite(pair)
    assert len(calls) == 2
    assert np.array_equal(calls[0], pair.mate_rows.kappa)
    assert np.array_equal(calls[1], pair.base_rows.kappa)
