"""Pair construction, detection and the invariants they must satisfy."""

import math
from collections import Counter

import numpy as np
import pytest

from bertrand_kit import bertrand, curves, jets
from bertrand_kit.bertrand import (
    bertrand_lambda,
    mate_apparatus_from_base,
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    generated_pair,
    linear_relation_fit,
    pair_constraint_residual,
    ratio_invariants,
    sphere_preset,
    DEFAULT_OMEGA,
)
from bertrand_kit.classify import theorem_suite
from bertrand_kit.curves import (
    AnalyticCurve,
    Curve,
    JetBackedCurve,
    SampledCurve,
    frenet_apparatus,
    slant_geodesic_indicator,
)
from bertrand_kit.errors import (
    DegenerateSphereCurveError,
    NotAPairError,
    NotSphericalError,
)


def valid_ts(pair, margin=2):
    idx = pair.valid_indices()
    return [pair.ts[i] for i in idx[margin:-margin:8]]


def test_lambda_equals_offset_radius(pair_wobble):
    assert pair_wobble.lam == pytest.approx(1.0, abs=1e-10)
    assert pair_wobble.lambda_stat.max_deviation < 1e-10
    assert pair_wobble.epsilon == -1


def test_lambda_from_ratios(pair_wobble):
    p = pair_wobble
    for i in p.valid_indices()[5:-5:16]:
        fd, ri = p.fd_base[i], p.ri_base[i]
        if not ri.g_defined:
            continue
        assert bertrand_lambda(ri, fd.kappa) == pytest.approx(p.lam, abs=1e-8)


def test_g_constant_both_sides(pair_wobble):
    p = pair_wobble
    g = [r.g for r in p.ri_base if r is not None and r.g_defined]
    gt = [r.g for r in p.ri_mate if r is not None and r.g_defined]
    assert np.ptp(g) < 1e-9
    assert np.ptp(gt) < 1e-9
    # torsion/curvature derivative ratio is -tan of the generator angle
    omega = DEFAULT_OMEGA["wobble"]
    assert np.mean(g) == pytest.approx(-math.tan(omega), abs=1e-9)


def test_eps_g_relation(pair_wobble):
    p = pair_wobble
    for i in p.valid_indices()[::16]:
        rb, rm = p.ri_base[i], p.ri_mate[i]
        if rb.g_defined and rm.g_defined:
            assert abs(p.epsilon * rb.g + rm.g) < 1e-9


def test_slant_indicators_opposite(pair_wobble):
    p = pair_wobble
    for i in p.valid_indices()[3:-3:16]:
        assert p.ri_base[i].Gamma + p.ri_mate[i].Gamma == pytest.approx(0.0, abs=1e-8)


def test_constraint_residual_small(pair_wobble):
    for t in valid_ts(pair_wobble):
        assert pair_constraint_residual(pair_wobble, t) < 1e-8


def test_perturbed_mate_rejected(pair_wobble):
    p = pair_wobble
    ts = np.linspace(p.ts[0], p.ts[-1], 200)
    pts = np.stack([p.mate.point(t) for t in ts])
    rng = np.random.default_rng(7)
    pts = pts + 1e-3 * rng.standard_normal(pts.shape)
    with pytest.raises(NotAPairError):
        detect_bertrand(p.base, SampledCurve(ts, pts), n=64)


def test_unrelated_curves_rejected(helix):
    other = AnalyticCurve("t", "t^2", "t^3", (0.5, 5.5))
    with pytest.raises(NotAPairError) as ei:
        detect_bertrand(helix, other, n=64)
    assert ei.value.reason in (
        "offset-not-normal", "lambda-varies", "normals-not-aligned",
    )


def test_tangent_offset_rejected(helix):
    ts = np.linspace(0.2, 5.8, 300)
    pts = np.stack(
        [helix.point(t) + 0.5 * frenet_apparatus(helix, t).T for t in ts]
    )
    with pytest.raises(NotAPairError) as ei:
        detect_bertrand(helix, SampledCurve(ts, pts), n=64)
    assert ei.value.reason == "offset-not-normal"


def test_varying_offset_rejected(helix):
    ts = np.linspace(0.2, 5.8, 300)
    pts = np.stack(
        [helix.point(t) + (0.3 + 0.05 * t) * frenet_apparatus(helix, t).N for t in ts]
    )
    with pytest.raises(NotAPairError) as ei:
        detect_bertrand(helix, SampledCurve(ts, pts), n=64)
    assert ei.value.reason == "lambda-varies"


def test_construct_mate_zero_offset(helix):
    m = construct_mate(helix, 0.0, n=64)
    for t in (0.5, 3.0):
        assert np.allclose(m.point(t), helix.point(t), atol=1e-12)


def test_generated_base_satisfies_linear_relation(pair_wobble):
    a_coef, b_coef, resid = linear_relation_fit(pair_wobble.base, n=48)
    omega = DEFAULT_OMEGA["wobble"]
    assert a_coef == pytest.approx(1.0, abs=1e-9)
    assert b_coef == pytest.approx(1.0 / math.tan(omega), abs=1e-9)
    assert resid < 1e-12


def test_generator_rejects_constant_geodesic_curvature():
    with pytest.raises(DegenerateSphereCurveError):
        generate_bertrand_curve(sphere_preset("greatcircle"), a=1.0,
                                omega=math.pi / 3, n=256)
    with pytest.raises(DegenerateSphereCurveError):
        generate_bertrand_curve(sphere_preset("smallcircle"), a=1.0,
                                omega=math.pi / 3, n=256)


def test_generator_rejects_off_sphere_seed():
    seed = AnalyticCurve("2*cos(t)", "2*sin(t)", "0.3*sin(2*t)", (0.2, 0.62))
    with pytest.raises(NotSphericalError):
        generate_bertrand_curve(seed, a=1.0, omega=math.pi / 3, n=256)


def test_generator_rejects_bad_angle():
    seed = sphere_preset("wobble")
    with pytest.raises(ValueError):
        generate_bertrand_curve(seed, a=1.0, omega=math.pi / 2, n=256)
    with pytest.raises(ValueError):
        generate_bertrand_curve(seed, a=-1.0, omega=math.pi / 3, n=256)


def test_unknown_preset():
    with pytest.raises(KeyError):
        sphere_preset("moebius")


def test_all_regular_presets_detect():
    for name in ("tilt", "bean", "slant"):
        p = generated_pair(name, n=256, grid=32)
        assert p.lam == pytest.approx(1.0, abs=1e-8)
        assert p.epsilon == -1


def test_scaled_generator_lambda():
    p = generated_pair("wobble", a=0.5, n=256, grid=32)
    assert p.lam == pytest.approx(0.5, abs=1e-8)


def test_mate_of_mate_returns_base(pair_wobble):
    p = pair_wobble
    t0 = valid_ts(p)[2]
    off = p.base.point(t0) - p.mate.point(t0)
    n_mate = frenet_apparatus(p.mate, t0).N
    lam_back = float(np.dot(off, n_mate))
    assert abs(lam_back) == pytest.approx(abs(p.lam), abs=1e-9)
    back = construct_mate(p.mate, lam_back, n=256)
    for t in valid_ts(p)[:4]:
        assert np.allclose(back.point(t), p.base.point(t), atol=1e-9)


def test_gamma_matches_slant_indicator(pair_wobble):
    p = pair_wobble
    for i in p.valid_indices()[5:-5:32]:
        assert p.ri_base[i].Gamma == pytest.approx(
            slant_geodesic_indicator(p.fd_base[i]), abs=1e-10
        )


@pytest.mark.parametrize("pair_name", ["pair_wobble", "pair_tilt"])
def test_mate_apparatus_from_base_matches_detected_mate(pair_name, request):
    """The mate's frame, curvature, torsion and arc-length rate in closed
    form from base data agree with the mate's own Frenet data.  The closed
    form measures the mate's arc length in the direction of the sign of
    ds_mate_ds; reversing a curve flips T and B and keeps N, kappa, tau."""
    p = request.getfixturevalue(pair_name)
    for i in p.valid_indices():
        fd, fdm = p.fd_base[i], p.fd_mate[i]
        m = mate_apparatus_from_base(fd, p.ri_base[i], p.epsilon)
        sigma = math.copysign(1.0, m.ds_mate_ds)
        # measured worst cases over both pairs: 2.1e-15 (T), 6.1e-15 (N),
        # 6.0e-15 (B), 7.4e-15 (kappa), 7.0e-14 (tau), 1.8e-15 (ds), relative
        # to 1 for the unit vectors and to the mate's values otherwise
        assert np.max(np.abs(m.T - sigma * fdm.T)) < 1e-13
        assert np.max(np.abs(m.N - fdm.N)) < 1e-13
        assert np.max(np.abs(m.B - sigma * fdm.B)) < 1e-13
        assert abs(m.kappa - fdm.kappa) < 1e-13 * fdm.kappa
        assert abs(m.tau - fdm.tau) < 1e-12 * abs(fdm.tau)
        rate = fdm.speed / fd.speed
        assert abs(abs(m.ds_mate_ds) - rate) < 1e-13 * rate


def test_pair_evaluates_each_frenet_point_once(monkeypatch):
    """Detection plus the identity suite ask the base or the mate for its
    Frenet jets at most once per parameter value; detection asks each
    curve for jets a fixed few times, whatever the grid, and asks for no
    speed (it builds no arc-length table)."""
    state = {"detecting": False, "speed_calls": 0}
    frenet_points = Counter()  # (curve, t) at the Frenet order
    detect_calls = Counter()  # curve -> jet requests during detection
    real_jet = JetBackedCurve.jet

    def counting_jet(self, t, order):
        if order == curves.DEFAULT_FRENET_ORDER:
            for x in np.atleast_1d(t):
                frenet_points[(self, float(x))] += 1
        if state["detecting"]:
            detect_calls[self] += 1
        return real_jet(self, t, order)

    real_speed = Curve.speed
    real_detect = bertrand.detect_bertrand

    def counting_speed(self, t):
        state["speed_calls"] += state["detecting"]
        return real_speed(self, t)

    def detect(*args, **kwargs):
        state["detecting"] = True
        try:
            return real_detect(*args, **kwargs)
        finally:
            state["detecting"] = False

    monkeypatch.setattr(JetBackedCurve, "jet", counting_jet)
    monkeypatch.setattr(Curve, "speed", counting_speed)
    monkeypatch.setattr(bertrand, "detect_bertrand", detect)

    pair = generated_pair("wobble", n=64, grid=24)
    theorem_suite(pair, n=24)
    pair_points = [c for (curve, _), c in frenet_points.items()
                   if curve is pair.base or curve is pair.mate]
    assert max(pair_points) == 1
    # deterministic: 24 detection points, 23 more on the 25-point
    # arc-length grid and 64 indicatrix-image points, per curve
    assert len(pair_points) <= 222
    # base: its Frenet grid, its points, and the mate's frame jets and
    # points; mate: its Frenet grid and its points
    assert detect_calls[pair.base] <= 4
    assert detect_calls[pair.mate] <= 2
    assert state["speed_calls"] == 0


def test_wobble_jet_makes_two_sincos(monkeypatch):
    """x, y and z of a preset seed share the normaliser and sin/cos of
    each argument: one jet of wobble needs sin/cos of t and of 2t only."""
    calls = Counter()
    real = jets.jsincos

    def counting(u):
        calls["jsincos"] += 1
        return real(u)

    monkeypatch.setattr(jets, "jsincos", counting)
    sphere_preset("wobble").jet(0.3, 10)
    assert calls["jsincos"] <= 2


def test_generator_builds_each_node_series_once():
    """The generator's walk asks the seed for one order-10 jet per step
    and its Newton solve at most one per node, whatever the number of
    evaluations of the base, its mate, detection and the suite."""
    seed = sphere_preset("wobble")
    real_jet = seed.jet
    points = Counter()  # seed points requested, by order

    def counting_jet(t, order):
        points[order] += np.size(t)
        return real_jet(t, order)

    seed.jet = counting_jet
    n = 64
    base = generate_bertrand_curve(seed, a=1.0, omega=DEFAULT_OMEGA["wobble"], n=n)
    pair = detect_bertrand(base, construct_mate(base, 1.0, n=n), n=24)
    theorem_suite(pair, n=24)
    assert sum(c for order, c in points.items() if order >= 10) <= 2 * n
