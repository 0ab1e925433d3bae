"""Pair construction, detection and the invariants they must satisfy."""

import math
from collections import Counter

import numpy as np
import pytest
from test_batch import _generated, assert_same_bits_array

from bertrand_kit import bertrand, curves, indicatrix, jets
from bertrand_kit.bertrand import (
    bertrand_lambda,
    mate_apparatus_from_base,
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    generated_pair,
    geodesic_indicator_closed_form,
    linear_relation_fit,
    pair_constraint_residual,
    sphere_preset,
    DEFAULT_OMEGA,
)
from bertrand_kit.classify import theorem_suite
from bertrand_kit.curves import (
    AnalyticCurve,
    Curve,
    JetBackedCurve,
    SampledCurve,
    _take_rows,
    frenet_apparatus,
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
    # the rows of valid_indices()[5:-5:16]
    rows = _take_rows(p.base_rows, slice(5, -5, 16))
    rows = _take_rows(rows, rows.g_defined)
    assert len(rows.t) > 0
    assert bertrand_lambda(rows) == pytest.approx(p.lam, abs=1e-8)


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
    """The expanded Gamma column is the slant indicator's defining form
    kappa^2/(kappa^2+tau^2)^{3/2} * d(tau/kappa)/ds."""
    p = pair_wobble
    for i in p.valid_indices()[5:-5:32]:
        fd = p.ri_base[i]
        k, tau = fd.kappa, fd.tau
        df_ds = (fd.dtau_ds * k - tau * fd.dkappa_ds) / (k * k)
        assert fd.Gamma == pytest.approx(
            k * k / (k * k + tau * tau) ** 1.5 * df_ds, abs=1e-10
        )


@pytest.mark.parametrize("pair_name", ["pair_wobble", "pair_tilt"])
def test_mate_apparatus_from_base_matches_detected_mate(pair_name, request):
    """The mate's frame, curvature, torsion and arc-length rate in closed
    form from base data agree with the mate's own Frenet data.  The closed
    form measures the mate's arc length in the direction of the sign of
    ds_mate_ds; reversing a curve flips T and B and keeps N, kappa, tau."""
    p = request.getfixturevalue(pair_name)
    fd, fdm = p.base_rows, p.mate_rows
    m = mate_apparatus_from_base(fd, p.epsilon)
    assert m.kappa.shape == fd.t.shape and m.T.shape == fd.T.shape
    sigma = np.copysign(1.0, m.ds_mate_ds)[:, None]
    # measured worst cases over both pairs: 2.1e-15 (T), 6.1e-15 (N),
    # 6.0e-15 (B), 7.4e-15 (kappa), 7.0e-14 (tau), 1.8e-15 (ds), relative
    # to 1 for the unit vectors and to the mate's values otherwise
    assert np.max(np.abs(m.T - sigma * fdm.T)) < 1e-13
    assert np.max(np.abs(m.N - fdm.N)) < 1e-13
    assert np.max(np.abs(m.B - sigma * fdm.B)) < 1e-13
    assert np.all(np.abs(m.kappa - fdm.kappa) < 1e-13 * fdm.kappa)
    assert np.all(np.abs(m.tau - fdm.tau) < 1e-12 * np.abs(fdm.tau))
    rate = fdm.speed / fd.speed
    assert np.all(np.abs(np.abs(m.ds_mate_ds) - rate) < 1e-13 * rate)



@pytest.mark.parametrize("n, grid", [(64, 24), (512, 128)])
@pytest.mark.parametrize("a", [1.0, 1.37])
@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant"])
def test_geodesic_indicator_closed_form_is_the_other_curves_gamma(preset, a, n, grid):
    """The slant-helix indicator of each curve written in its partner's
    data equals, with its sign, the Gamma column of the curve's own exact
    Frenet rows, on the detection rows where both curves are regular.
    Measured worst gap: 1.6e-13 relative to max |Gamma| (slant)."""
    pair = generated_pair(preset, a=a, n=n, grid=grid)
    for side, own, partner in (("base", pair.base_rows, pair.mate_rows),
                               ("mate", pair.mate_rows, pair.base_rows)):
        closed = geodesic_indicator_closed_form(partner, side)
        scale = np.max(np.abs(own.Gamma))
        assert np.max(np.abs(closed - own.Gamma)) < 1e-12 * scale, side

def test_pair_evaluates_each_frenet_point_once(monkeypatch):
    """Detection plus the identity suite ask the base or the mate for its
    Frenet jets at most once per parameter value; detection asks each
    curve for jets a fixed few times, whatever the grid, and asks for no
    speed, an order-1 jet (it builds no arc-length table)."""
    state = {"detecting": False, "speed_calls": 0}
    frenet_points = Counter()  # (curve, t) at the Frenet order
    detect_calls = Counter()  # curve -> jet requests during detection
    real_jet = JetBackedCurve.jet

    def counting_jet(self, t, order):
        if order == curves._FRENET_ORDER:
            for x in np.atleast_1d(t):
                frenet_points[(self, float(x))] += 1
        if state["detecting"]:
            detect_calls[self] += 1
            state["speed_calls"] += order == 1
        return real_jet(self, t, order)

    real_detect = bertrand.detect_bertrand

    def detect(*args, **kwargs):
        state["detecting"] = True
        try:
            return real_detect(*args, **kwargs)
        finally:
            state["detecting"] = False

    monkeypatch.setattr(JetBackedCurve, "jet", counting_jet)
    monkeypatch.setattr(bertrand, "detect_bertrand", detect)

    pair = generated_pair("wobble", n=64, grid=24)
    theorem_suite(pair, n=24)
    pair_points = [c for (curve, _), c in frenet_points.items()
                   if curve is pair.base or curve is pair.mate]
    assert max(pair_points) == 1
    # deterministic: the 24 detection points per curve; the suite's image
    # rows ask for the frame jets, two orders higher
    assert len(pair_points) == 48
    # base: its Frenet grid and the mate's frame jets; mate: its Frenet
    # grid (the exact requests are pinned by
    # test_detection_reads_positions_from_the_frenet_rows)
    assert detect_calls[pair.base] <= 4
    assert detect_calls[pair.mate] <= 2
    assert state["speed_calls"] == 0


def test_suite_reads_the_detection_grid(monkeypatch):
    """The identity suite reads the Frenet data detection evaluated, and
    negative-result reads the image rows at the regular detection points:
    inside the suite the base and the mate get no Frenet-order request,
    and one frame-jet request each (order 6) at the 24 detection points;
    the mate's frame asks its base for order 8 there."""
    pair = generated_pair("wobble", n=64, grid=24)
    requests = {pair.base: Counter(), pair.mate: Counter()}
    real_jet = JetBackedCurve.jet

    def counting_jet(self, t, order):
        if self in requests:
            requests[self][order, tuple(np.atleast_1d(t).tolist())] += 1
        return real_jet(self, t, order)

    monkeypatch.setattr(JetBackedCurve, "jet", counting_jet)
    theorem_suite(pair, n=24)
    grid = tuple(pair.ts[~pair.masked].tolist())
    assert len(grid) == 24
    assert requests[pair.base] == Counter({(6, grid): 1, (8, grid): 1})
    assert requests[pair.mate] == Counter({(6, grid): 1})


def test_suite_builds_each_image_stencil_once(monkeypatch):
    """negative-result classifies the three image pairs on exact jets: no
    Fornberg weight build, and one image Frenet pass per curve over the
    3 x 24 columns of all axes."""
    pair = generated_pair("wobble", n=64, grid=24)
    weights, passes = Counter(), Counter()
    real_weights, real_columns = curves.fornberg_weights, curves._columns

    def counting_weights(z, x, m):
        weights[len(z)] += 1
        return real_weights(z, x, m)

    def counting_columns(P, ts):
        passes[len(ts)] += 1
        return real_columns(P, ts)

    monkeypatch.setattr(curves, "fornberg_weights", counting_weights)
    # every Frenet pass: the curves' own rows and the image rows
    monkeypatch.setattr(curves, "_columns", counting_columns)
    monkeypatch.setattr(indicatrix, "_columns", counting_columns)
    theorem_suite(pair, n=24)
    assert weights == Counter()
    assert passes == Counter({72: 2})


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


def _seed_points_of_a_pair(n):
    """Seed points requested, by order, while a generator with n steps
    builds a wobble base that is offset, detected and run through the
    suite."""
    seed = sphere_preset("wobble")
    real_jet = seed.jet
    points = Counter()

    def counting_jet(t, order):
        points[order] += np.size(t)
        return real_jet(t, order)

    seed.jet = counting_jet
    base = generate_bertrand_curve(seed, a=1.0, omega=DEFAULT_OMEGA["wobble"], n=n)
    pair = detect_bertrand(base, construct_mate(base, 1.0, n=n), n=24)
    theorem_suite(pair, n=24)
    return points


def test_generator_builds_each_node_series_once():
    """The generator's walk asks the seed for one order-10 jet per step,
    and its Newton solve adds at most one per node, whatever the number
    of evaluations of the base, its mate, detection and the suite."""
    n = 64
    points = _seed_points_of_a_pair(n)
    assert sum(c for order, c in points.items() if order >= 10) <= 2 * n


def test_generator_newton_reads_the_walk_series():
    """The Newton solve for u(t) steps with the walk's series: the seed
    gets order-10 requests at the n walk midpoints only."""
    n = 64
    points = _seed_points_of_a_pair(n)
    assert sum(c for order, c in points.items() if order >= 10) == n


def test_pair_runs_the_generator_pipeline_once_per_grid():
    """The base's Frenet rows (order 4), the mate's frame (order 6 of the
    base) and the base's image rows (order 6) are truncations of one held
    order-6 jet, and the mate's image rows ask the base for order 8:
    detection and the suite run the pipeline on the 24-point detection
    grid only, once at order 6 and once at order 8."""
    seed = sphere_preset("wobble")
    real_jet = seed.jet
    requests = Counter()  # (order, number of points) -> seed requests

    def counting_jet(t, order):
        requests[order, np.size(t)] += 1
        return real_jet(t, order)

    seed.jet = counting_jet
    base = generate_bertrand_curve(seed, a=1.0, omega=DEFAULT_OMEGA["wobble"], n=64)
    mate = construct_mate(base, 1.0, n=64)
    requests.clear()
    pair = detect_bertrand(base, mate, n=24)
    theorem_suite(pair, n=24)
    assert requests == Counter({(6, 24): 1, (8, 24): 1})


def _wobble_side(side):
    """A freshly generated wobble base (n=64), or its mate."""
    base = _generated("wobble")
    return base if side == "base" else construct_mate(base, 1.0, n=64)


@pytest.mark.parametrize("side", ["base", "mate"])
@pytest.mark.parametrize("orders", [(4, 6), (6, 4), (6, 4, 6)])
def test_generator_jets_do_not_depend_on_the_request_order(side, orders):
    """A request served from the held jet has the bits of the same request
    on a freshly generated curve, whatever was asked before it; the mate
    asks its base for two orders more (6 and 8), so its order-6 request
    replaces the held order-6 jet with an order-8 one."""
    curve = _wobble_side(side)
    ts = np.linspace(*curve.domain, 24)
    for order in orders:
        got = curve.jet(ts, order)
        want = _wobble_side(side).jet(ts, order)
        assert_same_bits_array(got.coeffs, want.coeffs)
        assert_same_bits_array(got.basepoint, want.basepoint)


def test_generator_jets_are_read_only():
    """Writing into a returned jet raises and leaves the held jet as it
    was: the same grid still gets the bits of a fresh curve."""
    base = _generated("wobble")
    ts = np.linspace(*base.domain, 24)
    for order in (4, 6):
        jet = base.jet(ts, order)
        with pytest.raises(ValueError):
            jet.coeffs[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            jet.coeffs *= 2.0
    with pytest.raises(ValueError):
        base.jet(float(ts[3]), 2).coeffs[0, 0] = 0.0
    want = _generated("wobble").jet(ts, 6)
    assert_same_bits_array(base.jet(ts, 6).coeffs, want.coeffs)


def test_detection_reads_positions_from_the_frenet_rows(monkeypatch):
    """Detection takes the offsets from the positions in the Frenet rows:
    the base is asked for jets at the Frenet order and, for the mate's
    frame, two orders higher, the mate at the Frenet order, each once,
    and no curve is asked for a point."""
    pair = generated_pair("wobble", n=64, grid=24)
    role = {pair.base: "base", pair.mate: "mate"}
    requests = Counter()
    real_jet, real_point = JetBackedCurve.jet, Curve.point

    def counting_jet(self, t, order):
        requests[role.get(self), order] += 1
        return real_jet(self, t, order)

    def counting_point(self, t):
        requests[role.get(self), "point"] += 1
        return real_point(self, t)

    monkeypatch.setattr(JetBackedCurve, "jet", counting_jet)
    monkeypatch.setattr(Curve, "point", counting_point)
    detect_bertrand(pair.base, pair.mate, n=24)
    assert requests == Counter({("base", 4): 1, ("base", 6): 1, ("mate", 4): 1})
