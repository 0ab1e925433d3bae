"""Spherical indicatrices: closed forms against direct differentiation."""

import numpy as np
import pytest

from bertrand_kit.curves import frenet_apparatus, slant_geodesic_indicator
from bertrand_kit.indicatrix import (
    IndicatrixKind,
    frame_relations_check,
    indicatrix_apparatus,
    indicatrix_arclength_relations,
    indicatrix_curve,
)


def probe_ts(pair, k=7):
    lo, hi = pair.ts[0], pair.ts[-1]
    pad = 0.06 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, k)


def test_kind_validation():
    IndicatrixKind("base", "tangent")
    with pytest.raises(ValueError):
        IndicatrixKind("base", "axis")
    with pytest.raises(ValueError):
        IndicatrixKind("left", "tangent")


def test_points_on_unit_sphere(pair_wobble):
    for side in ("base", "mate"):
        for axis in ("tangent", "normal", "binormal"):
            for t in probe_ts(pair_wobble, 5):
                s = indicatrix_apparatus(pair_wobble, side, axis, t)
                assert np.linalg.norm(s.point) == pytest.approx(1.0, abs=1e-10)


def test_points_match_frame_vectors(pair_wobble):
    """The closed-form image points are the frame vectors themselves."""
    p = pair_wobble
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        for t in probe_ts(p, 5):
            fd = frenet_apparatus(src, t)
            for axis, vec in (("tangent", fd.T), ("normal", fd.N),
                              ("binormal", fd.B)):
                s = indicatrix_apparatus(p, side, axis, t)
                assert np.allclose(s.point, vec, atol=1e-11)


def test_closed_frames_match_direct(pair_wobble):
    p = pair_wobble
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        for axis in ("tangent", "normal", "binormal"):
            img = indicatrix_curve(src, axis, 700)
            for t in probe_ts(p, 4):
                s = indicatrix_apparatus(p, side, axis, t)
                fdi = frenet_apparatus(img, t)
                assert abs(abs(np.dot(s.T, fdi.T)) - 1) < 1e-6
                assert abs(abs(np.dot(s.N, fdi.N)) - 1) < 1e-6
                assert abs(abs(np.dot(s.B, fdi.B)) - 1) < 1e-6


def test_corrected_values_match_direct(pair_wobble):
    p = pair_wobble
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        for axis in ("tangent", "normal", "binormal"):
            img = indicatrix_curve(src, axis, 700)
            for t in probe_ts(p, 4):
                s = indicatrix_apparatus(p, side, axis, t)
                fdi = frenet_apparatus(img, t)
                assert abs(s.kappa_image) == pytest.approx(fdi.kappa, rel=2e-4)
                assert abs(s.tau_image) == pytest.approx(abs(fdi.tau), rel=2e-4,
                                                         abs=1e-6)


def test_convergence_under_grid_doubling(pair_wobble):
    """Direct estimates converge to the closed forms while truncation
    dominates; past ~50 samples the stencils are roundoff-limited."""
    p = pair_wobble
    gaps = []
    for n in (16, 32):
        img = indicatrix_curve(p.base, "tangent", n)
        worst = 0.0
        for t in probe_ts(p, 5):
            s = indicatrix_apparatus(p, "base", "tangent", t)
            fdi = frenet_apparatus(img, t)
            worst = max(worst, abs(abs(s.kappa_image) - fdi.kappa))
        gaps.append(worst)
    assert gaps[1] < gaps[0] / 3.0


def test_frame_relation_identities_exact(pair_wobble):
    rel = frame_relations_check(pair_wobble, n=48)
    for key, dev in rel.items():
        if key == "masked_points":
            continue
        assert dev < 1e-12, key


def test_torsion_curvature_ratio_sign_pattern(pair_wobble):
    """tau/kappa of the signed closed forms equals the slant indicator of the
    source curve, with a sign flip on the base tangent image only."""
    p = pair_wobble
    for side in ("base", "mate"):
        src = p.base if side == "base" else p.mate
        for axis in ("tangent", "binormal"):
            sign = -1.0 if (side, axis) == ("base", "tangent") else 1.0
            for t in probe_ts(p, 5):
                s = indicatrix_apparatus(p, side, axis, t)
                G = slant_geodesic_indicator(frenet_apparatus(src, t))
                assert s.tau / s.kappa == pytest.approx(sign * G, abs=1e-10)


def test_tangent_binormal_share_signed_magnitudes(pair_wobble):
    p = pair_wobble
    for t in probe_ts(p, 5):
        st = indicatrix_apparatus(p, "base", "tangent", t)
        sb = indicatrix_apparatus(p, "base", "binormal", t)
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
    for t in probe_ts(p, 4):
        s = indicatrix_apparatus(p, "base", "normal", t)
        fdi = frenet_apparatus(img, t)
        assert abs(s.kappa) == pytest.approx(fdi.kappa, rel=2e-4)
