"""Pair construction, detection and the invariants they must satisfy."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from conftest import count_pipelines
from test_batch import FIELDS, _generated, _through_files, assert_same_bits_array
from test_indicatrix import EPS_PLUS_ONE_OMEGA

from bertrand_kit import bertrand, curves, indicatrix, jets, paper
from bertrand_kit.bertrand import (
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    generated_pair,
    linear_relation_fit,
    pair_constraint_residual,
    sphere_preset,
    DEFAULT_OMEGA,
)
from bertrand_kit.classify import (
    _classify_image_rows,
    _classify_rows,
    _pose,
    classify_curve,
    pair_classify,
    theorem_suite,
)
from bertrand_kit.curves import (
    MIN_CLASSIFY_SAMPLES,
    AnalyticCurve,
    Curve,
    JetBackedCurve,
    SampledCurve,
    _frenet_columns,
    _points_at,
    _take_rows,
    frenet_apparatus,
)
from bertrand_kit.errors import (
    DegenerateSphereCurveError,
    GridMismatchError,
    IllConditionedError,
    NotAPairError,
    NotSphericalError,
    ParameterError,
    TooFewSamplesError,
)
from bertrand_kit.indicatrix import (
    AXES,
    SIDES,
    _arclength_relations,
    apparatus_grid,
    frame_relations_check,
    indicatrix_arclength_relations,
)
from bertrand_kit.cli import _detect_from_files
from bertrand_kit.io import dumps, load_curve, save_curve
from bertrand_kit.paper import (
    _constraint_residuals,
    bertrand_lambda,
    mate_apparatus_from_base,
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


def test_normal_offset_of_a_curve_that_is_not_bertrand_rejected():
    """A constant offset along the principal normal of a twisted cubic
    passes the offset checks, but the two principal normals are not
    parallel."""
    cubic = AnalyticCurve("t", "t^2", "t^3", (0.5, 1.5))
    with pytest.raises(NotAPairError, match="min") as ei:
        detect_bertrand(cubic, construct_mate(cubic, 0.3, n=256), n=64)
    assert ei.value.reason == "normals-not-aligned"


def test_curves_on_disjoint_domains_rejected(helix):
    with pytest.raises(GridMismatchError, match="do not overlap"):
        detect_bertrand(helix, AnalyticCurve("t", "t^2", "t^3", (7.0, 8.0)), n=64)


def test_pair_with_too_few_regular_points_rejected(helix):
    """A straight line is singular at every point, so neither order of
    the two curves leaves enough regular grid points."""
    line = AnalyticCurve("t", "2*t", "3*t", (0.0, 6.0))
    for base, mate in ((line, helix), (helix, line)):
        with pytest.raises(NotAPairError, match="too few regular points") as ei:
            detect_bertrand(base, mate, n=64)
        assert ei.value.reason == "offset-not-normal"


@pytest.mark.parametrize("kind", ["analytic", "generated", "sampled"])
def test_detection_refuses_coincident_curves(helix, kind):
    """A curve is not its own Bertrand mate: detection refuses the curve
    beside itself and beside its mate by lambda 0 (offset-not-normal,
    naming the coincidence), where it used to accept a pair with
    lambda 0."""
    ts = np.linspace(0.0, 6.0, 65)
    base = {"analytic": lambda: helix, "generated": lambda: _generated("wobble"),
            "sampled": lambda: SampledCurve(ts, helix.point(ts).T)}[kind]()
    for mate in (base, construct_mate(base, 0.0, n=64)):
        with pytest.raises(NotAPairError, match="the curves coincide") as ei:
            detect_bertrand(base, mate, n=64)
        assert ei.value.reason == "offset-not-normal"


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


def test_linear_relation_fit_needs_eight_regular_samples():
    with pytest.raises(ValueError, match="n must be >= 8"):
        linear_relation_fit(AnalyticCurve("t", "t^2", "t^3", (0.5, 1.5)), n=7)
    with pytest.raises(IllConditionedError, match="too few regular samples"):
        linear_relation_fit(AnalyticCurve("t", "2*t", "3*t", (0.0, 1.0)), n=64)


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


def _unevaluated(curve):
    """``curve``, whose jet requests fail the test."""
    def jet(t, order):
        pytest.fail(f"{curve.label!r} evaluated at order {order}")
    curve.jet = jet
    return curve


def test_generator_rejects_bad_angle():
    """An omega at pi/2, an a below 0 and an n below 2 raise before the
    seed is asked for anything (n = 1 left the sphere checks one probe,
    whose spread is 0, 'output is a helix', and n = 0 reduced an empty
    array); n = 2 gives a three-node curve."""
    seed = _unevaluated(sphere_preset("wobble"))
    with pytest.raises(ValueError):
        generate_bertrand_curve(seed, a=1.0, omega=math.pi / 2, n=256)
    with pytest.raises(ValueError):
        generate_bertrand_curve(seed, a=-1.0, omega=math.pi / 3, n=256)
    for n in (1, 0):
        with pytest.raises(ParameterError, match=f"got {n}$"):
            generate_bertrand_curve(seed, a=1.0, omega=math.pi / 3, n=n)
    curve = generate_bertrand_curve(sphere_preset("wobble"), 1.0, math.pi / 3, n=2)
    assert curve.points.shape == (3, 3)


# an angle in each preset's inflection band, where tan(omega) lies in the
# range of the seed's geodesic curvature kg
INFLECTION_OMEGA = {"wobble": 2.7, "tilt": 0.3, "bean": 0.2, "slant": 0.3}


@pytest.mark.parametrize("preset", sorted(INFLECTION_OMEGA))
def test_generator_refuses_an_angle_that_gives_an_inflection(preset):
    """Where sin(omega) - kg cos(omega) changes sign over the seed, the
    output's curvature vanishes: the generator raises ParameterError,
    naming tan(omega) and the range of kg at its probes (it used to build
    the curve, whose mate check then failed without naming the
    inflection)."""
    _assert_refuses_the_inflection(preset, INFLECTION_OMEGA[preset], 256)


def _assert_refuses_the_inflection(preset, omega, n):
    """The generator raises ParameterError naming the inflection, and
    tan(omega) lies inside the kg range the message names."""
    with pytest.raises(ParameterError) as err:
        generate_bertrand_curve(sphere_preset(preset), a=1.0, omega=omega, n=n)
    message = str(err.value)
    assert message.startswith(f"omega = {omega} gives the output an inflection: ")
    assert (f"tan(omega) = {math.tan(omega):.6g} lies in the seed's geodesic curvature "
            "range [") in message
    low, high = map(float, message.rsplit("[", 1)[1].rstrip("]").split(", "))
    assert low < math.tan(omega) < high


# wobble angles whose tan(omega) enters the seed's kg range only within
# the last n // 64 - 1 walk midpoints, past the last (n // 64)-th one
LATE_INFLECTION = [(2.4639498632511376, 512), (2.4639529100537136, 4096)]


@pytest.mark.parametrize("omega, n", LATE_INFLECTION)
def test_generator_refuses_an_inflection_at_any_walk_midpoint(omega, n):
    """The sphere checks read every walk midpoint, so an inflection in the
    walk's last few segments is refused (read at every (n // 64)-th
    midpoint, the checks built the curve; at n = 512 ``mate --auto`` then
    fit lambda = 1.00083 and ``verify`` exited 7)."""
    _assert_refuses_the_inflection("wobble", omega, n)


# wobble angles whose tan(omega) enters the seed's kg range only between
# the last walk midpoint and the domain's end
END_INFLECTION = [(2.461987031739115, 512), (2.4618741497436876, 4096)]


@pytest.mark.parametrize("omega, n", END_INFLECTION)
def test_generator_refuses_an_inflection_at_an_end_node(omega, n):
    """The sphere checks read both end nodes of the walk, so an inflection
    past its last midpoint is refused (read at the midpoints only, the
    checks built the curve, and detection of its pair then said
    normals-not-aligned, min |<N, N_mate>| 0.85)."""
    _assert_refuses_the_inflection("wobble", omega, n)


# an angle beyond each preset's inflection band, where sin(omega) - kg
# cos(omega) < 0 over the seed (the band's lambda = -a side)
NEGATIVE_LAMBDA_OMEGA = {"wobble": 3.0, "tilt": 0.1, "bean": 0.05, "slant": 0.1}


@pytest.mark.parametrize("a", [0.7, 1.37])
@pytest.mark.parametrize("preset", sorted(NEGATIVE_LAMBDA_OMEGA))
def test_generator_records_the_sign_of_lambda(preset, a):
    """Beyond the inflection band the output's N is -c' (c the seed), so
    its mate is the offset by -a: the generator records nominal_lambda =
    -a, and ``generated_pair`` forms a pair with lam = -a and epsilon = +1
    (it offset by +a, which detection refused as normals-not-aligned).
    ``paper.bertrand_lambda`` on the base's own rows gives the recorded
    value (measured worst 4.6e-11 relative, bean).  Every identity holds
    there but at bean's 0.05, next to its band edge.  At the default
    angles the record is +a."""
    omega = NEGATIVE_LAMBDA_OMEGA[preset]
    pair = generated_pair(preset, a=a, omega=omega, n=64, grid=24)
    assert pair.base.metadata["nominal_lambda"] == -a
    assert pair.lam == pytest.approx(-a, rel=1e-12)
    assert pair.epsilon == 1
    rows, _, _ = _frenet_columns(pair.base, np.linspace(*pair.base.domain, 24))
    lam = bertrand_lambda(_take_rows(rows, rows.g_defined))
    assert np.max(np.abs(lam / -a - 1.0)) < 1e-8
    if preset != "bean":
        assert theorem_suite(pair).all_passed
    default = generate_bertrand_curve(sphere_preset(preset), a, DEFAULT_OMEGA[preset], n=64)
    assert default.metadata["nominal_lambda"] == a


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("kind", ["analytic", "generated", "sampled"])
def test_mate_rejects_a_size_below_1_before_evaluating(kind, n):
    """A mate n below 1 raises ParameterError before the base is asked
    for anything, whatever the base (n = 0 gave a one-node mate on the
    point domain); n = 1 gives a two-node exact mate."""
    def helix():
        return AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix")

    ts = np.linspace(0.0, 6.0, 64)
    base = {"analytic": helix, "generated": lambda: _generated("wobble"),
            "sampled": lambda: SampledCurve(ts, helix().point(ts).T, label="samples")}[kind]
    with pytest.raises(ParameterError, match=f"got {n}$"):
        construct_mate(_unevaluated(base()), 0.5, n=n)
    if kind != "sampled":
        assert construct_mate(base(), 0.5, n=1).points.shape == (2, 3)


@pytest.mark.parametrize("inset", [0.5, 0.7, -0.1, math.nan, 0.0, 0.49])
def test_detection_inset_lies_in_0_to_one_half(inset):
    """An inset outside [0, 0.5) raises ParameterError before either curve
    is evaluated (0.7 built a reversed grid, 0.31 to 0.13 on wobble, and
    returned a pair); 0 and 0.49 give an increasing grid inset by that
    fraction of the domain at each end."""
    base = _generated("wobble")
    mate = construct_mate(base, 1.0, n=64)
    if not 0.0 <= inset < 0.5:
        with pytest.raises(ParameterError, match="inset"):
            detect_bertrand(_unevaluated(base), _unevaluated(mate), n=24, inset=inset)
        return
    pair = detect_bertrand(base, mate, n=24, inset=inset)
    lo, hi = base.domain
    assert pair.ts[0] == lo + inset * (hi - lo) < pair.ts[-1]
    assert np.all(np.diff(pair.ts) > 0)


def test_unknown_preset():
    with pytest.raises(KeyError):
        sphere_preset("moebius")


def test_slant_seed_is_a_spherical_helix_and_generates_a_slant_helix():
    """On 1025 points the slant seed lies on the unit sphere and its
    tangent keeps <T, e3> = m = 0.45 (worst readings 2.2e-16 and
    1.7e-16; the bound 1e-15 leaves a margin of 4.5), and the curve the
    generator builds from it is a slant helix that is no general helix."""
    seed = sphere_preset("slant")
    assert isinstance(seed, AnalyticCurve)
    rows, keep, _ = _frenet_columns(seed, np.linspace(*seed.domain, 1025))
    assert keep.all()
    assert np.abs(np.linalg.norm(rows.point, axis=1) - 1.0).max() < 1e-15
    assert np.abs(rows.T[:, 2] - 0.45).max() < 1e-15
    cc = classify_curve(_generated("slant"), n=64)
    assert cc.slant_helix and not cc.general_helix


@pytest.mark.parametrize("name", sorted(bertrand.SPHERE_PRESETS))
def test_preset_copies_have_the_bits_of_a_fresh_build(name):
    """Two requests for a preset give two distinct curves whose jets at
    orders 0, 2 and 10 have the bits of a fresh build of the preset."""
    first, second = sphere_preset(name), sphere_preset(name)
    assert first is not second
    fresh = bertrand.SPHERE_PRESETS[name]()
    ts = np.linspace(*fresh.domain, 33)
    for order in (0, 2, 10):
        want = fresh.jet(ts, order)
        for curve in (first, second):
            got = curve.jet(ts, order)
            assert_same_bits_array(got.coeffs, want.coeffs)
            assert_same_bits_array(got.basepoint, want.basepoint)


@pytest.mark.parametrize("name", ["wobble", "slant"])
def test_preset_copies_do_not_share_what_a_caller_sets(name):
    """Setting ``jet`` or ``label`` on a returned preset leaves the next
    request's curve as built."""
    curve = sphere_preset(name)
    curve.jet = lambda t, order: None
    curve.label = "changed"
    again = sphere_preset(name)
    assert "jet" not in vars(again) and again.label == name
    assert again.jet(0.5, 1).coeffs.shape == (2, 3)


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
    """The slant-helix indicator of each curve, the Gamma column of its
    own exact Frenet rows, is eps times its partner's (th2), on the
    detection rows where both curves are regular, at the preset's default
    angle (epsilon = -1) and at an angle with epsilon = +1.  eps times the
    data rows' Gamma is the closed form that ``paper.images`` gives each
    imaged curve's indicator.  Measured worst gap relative to max |Gamma|:
    1.6e-13 at the default angles (slant), 4.4e-13 at epsilon = +1
    (bean)."""
    for omega, eps in ((None, -1), (EPS_PLUS_ONE_OMEGA[preset], 1)):
        pair = generated_pair(preset, a=a, omega=omega, n=n, grid=grid)
        assert pair.epsilon == eps
        for own, partner in ((pair.base_rows, pair.mate_rows),
                             (pair.mate_rows, pair.base_rows)):
            scale = np.max(np.abs(own.Gamma))
            assert np.max(np.abs(eps * partner.Gamma - own.Gamma)) < 1e-12 * scale, omega


def test_pair_evaluates_each_frenet_point_once(monkeypatch):
    """Detection plus the identity suite ask the base or the mate for jets
    at most once per parameter value: detection asks the generated base
    once, for the order-6 grid jet that the rows of both curves and the
    suite's image poses read, and asks the mate for nothing, and for no
    speed, an order-1 jet (it builds no arc-length table).  The points are
    counted on the requests of detection and the suite, at any order, not
    on the requests a curve makes of another."""
    state = {"detecting": False, "speed_calls": 0, "depth": 0}
    points = Counter()  # (curve, t) -> requests
    detect_calls = Counter()  # curve -> jet requests during detection
    real_jet = JetBackedCurve.jet

    def counting_jet(self, t, order):
        if not state["depth"]:
            for x in np.atleast_1d(t):
                points[(self, float(x))] += 1
        if state["detecting"]:
            detect_calls[self] += 1
            state["speed_calls"] += order == 1
        state["depth"] += 1
        try:
            return real_jet(self, t, order)
        finally:
            state["depth"] -= 1

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
    theorem_suite(pair)
    pair_points = [c for (curve, _), c in points.items()
                   if curve is pair.base or curve is pair.mate]
    assert max(pair_points) == 1
    # deterministic: the 24 detection points of the base (48 when the mate
    # was asked for its own Frenet jets); the exact requests are pinned by
    # test_detection_reads_positions_from_the_frenet_rows
    assert len(pair_points) == 24
    assert detect_calls[pair.base] <= 1
    assert detect_calls[pair.mate] == 0
    assert state["speed_calls"] == 0


def test_suite_reads_the_detection_grid(monkeypatch):
    """The identity suite reads the Frenet data detection evaluated, and
    negative-result reads the image poses from the order-2 position jets
    the pair holds since detection: inside the suite the base and the
    mate get no request at all (one order-6 request each before)."""
    pair = generated_pair("wobble", n=64, grid=24)
    requests = Counter()
    real_jet = JetBackedCurve.jet

    def counting_jet(self, t, order):
        requests[self is pair.base, self is pair.mate, order] += 1
        return real_jet(self, t, order)

    monkeypatch.setattr(JetBackedCurve, "jet", counting_jet)
    theorem_suite(pair)
    assert len(pair.ts[~pair.masked]) == 24
    assert requests == Counter()


def test_suite_builds_each_image_stencil_once(monkeypatch):
    """negative-result classifies the three image pairs on exact jets: no
    Fornberg weight build, no image Frenet pass, and one image pose pass
    over the 6 x 24 columns of all axes of both curves (one Frenet pass
    over them before)."""
    pair = generated_pair("wobble", n=64, grid=24)
    weights, passes = Counter(), Counter()
    real_weights = curves.fornberg_weights
    real_columns, real_poses = curves._columns, curves._pose_columns

    def counting_weights(z, x, m):
        weights[len(z)] += 1
        return real_weights(z, x, m)

    def counting(name, real):
        def run(P, ts):
            passes[name, len(ts)] += 1
            return real(P, ts)
        return run

    monkeypatch.setattr(curves, "fornberg_weights", counting_weights)
    # every Frenet pass, the curves' own rows and the image rows, and
    # every pose pass but the one a Frenet pass makes
    for module in (curves, indicatrix):
        monkeypatch.setattr(module, "_columns", counting("columns", real_columns))
    monkeypatch.setattr(indicatrix, "_pose_columns", counting("poses", real_poses))
    theorem_suite(pair)
    assert weights == Counter()
    assert passes == Counter({("poses", 144): 1})


def test_wobble_jet_makes_two_sincos(monkeypatch):
    """x, y and z of a preset seed share the normaliser and sin/cos of
    each argument: one jet of wobble needs sin/cos of t and of 2t only."""
    calls = Counter()
    real = jets.jsincos

    def counting(u):
        calls["jsincos"] += 1
        return real(u)

    monkeypatch.setattr(jets, "jsincos", counting)
    # a program binds jsincos when it is compiled: build the preset and
    # compile its program afresh, with the counter in place
    monkeypatch.setattr(jets, "_COMPILED", {})
    monkeypatch.setattr(bertrand, "_PRESET_BUILDS", {})
    sphere_preset("wobble").jet(0.3, 10)
    assert calls["jsincos"] == 2


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
    theorem_suite(pair)
    return points


def test_generator_builds_each_node_series_once():
    """The generator asks the seed for one jet, of order 10, at the n walk
    midpoints and the two end nodes the sphere checks read: the series of
    every walk step come from that one batch."""
    n = 64
    seed = sphere_preset("wobble")
    real_jet = seed.jet
    requests = Counter()  # (order, number of points) -> seed requests

    def counting_jet(t, order):
        requests[order, np.size(t)] += 1
        return real_jet(t, order)

    seed.jet = counting_jet
    generate_bertrand_curve(seed, a=1.0, omega=DEFAULT_OMEGA["wobble"], n=n)
    assert requests == Counter({(10, n + 2): 1})


def test_generator_newton_reads_the_walk_series():
    """A jet request of the generated base takes its position from the
    walk's series and asks the seed for its own order only: through the
    base, its mate, detection and the suite, the seed gets order-10
    requests at the n walk midpoints and the two end nodes, only."""
    n = 64
    points = _seed_points_of_a_pair(n)
    assert sum(c for order, c in points.items() if order >= 10) == n + 2


@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant"])
@pytest.mark.parametrize("plus", [False, True], ids=["default", "eps-plus-one"])
@pytest.mark.parametrize("a", [0.7, 1.37])
def test_generated_curve_takes_the_seeds_parameter(preset, plus, a):
    """A generated curve's params are the seed's walk nodes,
    ``linspace(*seed.domain, n + 1)`` bit for bit, and its domain is the
    seed's.  At interior seed-u points its kappa and tau are the seed's
    Darboux closed forms (sin w / a)|sin w - kg cos w| and
    (sin w / a)(kg sin w + cos w), kg = det(c, c', c'')/|c'|^3 from the
    seed's own analytic jet, at each preset's default angle and at one
    with epsilon = +1.  The bound is ten times the worst measured case,
    1.3e-15 for kappa and 1.9e-15 for tau relative to max(|tau|, kappa)."""
    seed, n = sphere_preset(preset), 512
    omega = EPS_PLUS_ONE_OMEGA[preset] if plus else DEFAULT_OMEGA[preset]
    base = generate_bertrand_curve(seed, a=a, omega=omega, n=n)
    us = np.linspace(*seed.domain, n + 1)[1:-1]
    rows, regular, _ = _frenet_columns(base, us)
    assert regular.all()
    assert_same_bits_array(base.params, np.linspace(*seed.domain, n + 1))
    assert base.domain == seed.domain
    p, d1, half_d2 = seed.jet(us, 2).coeffs.transpose(0, 2, 1)
    kg = np.sum(jets._cross_rows(p, d1) * (2.0 * half_d2), axis=1) / np.linalg.norm(d1, axis=1)**3
    sin, cos = math.sin(omega), math.cos(omega)
    kappa = sin / a * np.abs(sin - kg * cos)
    tau = sin / a * (kg * sin + cos)
    assert np.max(np.abs(rows.kappa - kappa) / kappa) <= 2e-14
    assert np.max(np.abs(rows.tau - tau) / np.maximum(np.abs(tau), kappa)) <= 2e-14


def test_pair_runs_the_generator_pipeline_once_per_grid():
    """Detection asks the generated base for order 6 on its grid, the
    order the mate's rows read: the base's Frenet rows (order 4), the
    mate's order-4 jet and the suite's image poses (orders 4 and 6 of the
    base) are built from that one jet, so detection and the suite run the
    pipeline once, on the 24-point detection grid at order 6 (at order 8
    before, when the image rows read the mate's order-4 frame)."""
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
    theorem_suite(pair)
    assert requests == Counter({(6, 24): 1})


def _fresh(side):
    """A freshly generated wobble base (n=64), its mate, a fresh slant
    seed, an analytic preset, or the seed's normal offset by 0.3;
    "base-after-mate" and "mate-after-base" are the base and the mate
    after the other curve gave its order-4 jets."""
    if side.startswith("slant-seed"):
        seed = sphere_preset("slant")
        return seed if side == "slant-seed" else construct_mate(seed, 0.3, n=64)
    base = _generated("wobble")
    mate = construct_mate(base, 1.0, n=64)
    if "-after-" in side:
        (mate if side == "base-after-mate" else base).jet(np.linspace(*base.domain, 24), 4)
    return base if side.startswith("base") else mate


@pytest.mark.parametrize("side", ["base", "mate", "slant-seed", "slant-seed-mate",
                                  "base-after-mate", "mate-after-base"])
@pytest.mark.parametrize("orders", [(4, 6), (6, 4), (6, 4, 6), (8, 4, 6), (4, 8), (10, 4, 8),
                                    (6, 6)])
def test_generator_jets_do_not_depend_on_the_request_order(side, orders):
    """A request has the bits of the same request on a freshly generated
    curve, whatever was asked before it: the generator, the slant seed and
    a normal-offset mate keep nothing between requests, and each of the
    mate's requests asks its base for two orders more."""
    curve = _fresh(side)
    ts = np.linspace(*curve.domain, 24)
    for order in orders:
        got = curve.jet(ts, order)
        want = _fresh(side.split("-after-")[0]).jet(ts, order)
        assert_same_bits_array(got.coeffs, want.coeffs)
        assert_same_bits_array(got.basepoint, want.basepoint)


@pytest.mark.parametrize("curve", ["wobble", "tilt", "bean", "slant", "slant-seed",
                                   "tilt-eps-plus-one", "tilt-minus-a"])
def test_order_8_jets_truncate_to_the_bits_of_lower_requests(curve):
    """An order-8 request on a fresh generated base, or on the slant seed,
    truncated to any order from 0 to 7, has the bits of that request on a
    fresh curve (a generator run at that order): detection's order-8 grid
    jet can serve every lower request on the grid.  Besides the default
    angles, tilt at 2.6 (epsilon = +1) and tilt at 0.1, whose mate is the
    offset by -a."""
    def fresh():
        if curve == "slant-seed":
            return sphere_preset("slant")
        if curve.startswith("tilt-"):
            omega = EPS_PLUS_ONE_OMEGA["tilt"] if curve == "tilt-eps-plus-one" else 0.1
            return generate_bertrand_curve(sphere_preset("tilt"), a=1.0, omega=omega, n=64)
        return _generated(curve)

    ts = np.linspace(*fresh().domain, 24)
    high = fresh().jet(ts, 8)
    for order in range(8):
        want = fresh().jet(ts, order)
        assert_same_bits_array(high.truncate(order).coeffs, want.coeffs)
        assert_same_bits_array(high.basepoint, want.basepoint)


@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant"])
def test_pair_and_suite_make_one_generator_pipeline(preset, monkeypatch):
    """generated_pair plus theorem_suite run the generator pipeline once,
    on the detection grid at order 6 (at order 8 while the suite read the
    images' full Frenet rows; three runs when construct_mate evaluated
    its node table and the suite's image rows asked for a second run on
    the grid)."""
    pipelines = count_pipelines(monkeypatch)
    theorem_suite(generated_pair(preset, n=64, grid=24))
    assert pipelines == [(6, 24)]


def test_mate_node_table_waits_for_a_reader(tmp_path, monkeypatch):
    """construct_mate asks its generated base for nothing; the node table,
    computed at its first read, has the bits of the order-0 mate jet at
    the nodes (the table the mate was once built with) and loads back
    from its saved file, and a saved mate file does not depend on what
    the pair evaluated before the read."""
    base = _generated("wobble")
    requests = Counter()
    real_jet = JetBackedCurve.jet

    def counting_jet(self, t, order):
        requests[self is base, order] += 1
        return real_jet(self, t, order)

    monkeypatch.setattr(JetBackedCurve, "jet", counting_jet)
    mate = construct_mate(base, 1.0, n=64)
    assert requests == Counter()
    monkeypatch.undo()

    P, _, N, _ = bertrand._frames(_generated("wobble").jet(mate.params, 2))
    assert_same_bits_array(mate.points, (P + 1.0 * N).truncate(0).coeffs[0].T)
    save_curve(mate, str(tmp_path / "first.json"))
    assert_same_bits_array(load_curve(str(tmp_path / "first.json")).points, mate.points)
    base = _generated("wobble")
    late = construct_mate(base, 1.0, n=64)
    theorem_suite(detect_bertrand(base, late, n=24))
    save_curve(late, str(tmp_path / "late.json"))
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "late.json").read_bytes()


def _fresh_images(preset, grid, order):
    """The T, N and B jets of a fresh base and then a fresh mate at
    ``grid``, from ``_frames`` of each curve's own order-6 jet, cut to
    ``order``."""
    return [v.truncate(order) for curve in _fresh_pair(preset)
            for v in bertrand._frames(curve.jet(grid, 6))[1:]]


@pytest.mark.parametrize("preset", ["wobble", "slant", "analytic"])
def test_pair_jets_are_read_only_with_fresh_bits(preset):
    """The six image jets that detection hands to the suite, the T, N and
    B jets of base and mate from detection's Frenet passes cut to order 2
    (to order 4 with ``images``), have the bits of ``_frames`` of a fresh
    base's and a fresh mate's order-6 jets cut to that order at the pair's
    regular points, before and after the suite reads them, and writing
    into them raises, while the pair's grid stays writable."""
    for images, order in ((False, 2), (True, 4)):
        pair = detect_bertrand(*_fresh_pair(preset), n=24, images=images)
        grid = pair.ts[~pair.masked]
        held = pair._images
        assert len(held) == 6
        for jet in held:
            with pytest.raises(ValueError):
                jet.coeffs[0, 0, 0] = 0.0
            with pytest.raises(ValueError):
                jet.basepoint[0] = 0.0
        assert pair.ts.flags.writeable
        for suite_ran in (False, True):
            if suite_ran and preset != "analytic":
                theorem_suite(pair)
            assert pair._images is held
            for jet, want in zip(held, _fresh_images(preset, grid, order), strict=True):
                assert jet.order == order
                assert_same_bits_array(jet.coeffs, want.coeffs)
                assert_same_bits_array(jet.basepoint, want.basepoint)


def test_detection_reads_positions_from_the_frenet_rows(monkeypatch):
    """Detection takes the offsets from the positions in the Frenet rows:
    the generated base is asked once for jets two orders above the
    Frenet order (its rows read the low orders, its frame and the mate's
    order-4 jet the rest; four orders above before, when the suite read
    the images' full rows), and its normal-offset mate is asked for
    nothing; no curve is asked for a point."""
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
    assert requests == Counter({("base", 6): 1})


@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant"])
def test_pair_and_suite_make_one_mate_frame_run_and_one_image_pass(preset, monkeypatch):
    """generated_pair plus theorem_suite build each curve's frame once, in
    detection's Frenet pass over that curve: the base's at order 4 from
    its order-6 jet, and the mate's at order 2 from its order-4 jet, which
    is P + lam N with the base's N (orders 6 and 4 from the base's order-8
    jet while the suite read the images' full rows).  So there is no
    normal-offset run and no ``_frames`` run (one ``_offset`` run of the
    base's order-8 jet and one ``_frames`` run of both curves' order-6
    jets before), and the six image curves of negative-result take one
    pose pass over 6 x 24 columns (one Frenet pass before)."""
    runs, frames, passes = Counter(), Counter(), Counter()
    real_offset, real_frames = bertrand._offset, bertrand._frames
    real_frame, real_columns = bertrand._frame, indicatrix._pose_columns

    def counting(name, real):
        def run(P, *args):
            runs[name] += 1
            return real(P, *args)
        return run

    def counting_frame(D1, V, C, cnorm):
        frames[C.order] += 1
        return real_frame(D1, V, C, cnorm)

    def counting_columns(P, ts):
        passes[len(ts)] += 1
        return real_columns(P, ts)

    monkeypatch.setattr(bertrand, "_offset", counting("_offset", real_offset))
    monkeypatch.setattr(bertrand, "_frames", counting("_frames", real_frames))
    monkeypatch.setattr(bertrand, "_frame", counting_frame)
    monkeypatch.setattr(indicatrix, "_pose_columns", counting_columns)
    theorem_suite(generated_pair(preset, n=64, grid=24))
    assert runs == Counter()
    assert frames == Counter({4: 1, 2: 1})
    assert passes == Counter({144: 1})


@pytest.mark.parametrize("preset", ["wobble", "slant"])
def test_only_detection_takes_the_image_frames(preset, monkeypatch):
    """On the shared path the readers of a pair's grid other than
    detection (pair_classify, apparatus_grid, frame_relations_check,
    indicatrix_arclength_relations, pair_constraint_residual) take no
    column of a frame jet; detection takes the base's three frame jets
    at the pair's regular points, cut to order 2 first, and keeps them."""
    pair = generated_pair(preset, n=64, grid=24)
    frames, taken = [], Counter()
    real_frame, real_take = bertrand._frame, jets.Jet.take

    def recording_frame(*core):
        frames.extend(real_frame(*core))
        return frames[-3:]

    def counting_take(self, idx):
        if any(np.shares_memory(self.coeffs, f.coeffs) for f in frames):
            taken[self.order] += 1
        return real_take(self, idx)

    monkeypatch.setattr(bertrand, "_frame", recording_frame)
    monkeypatch.setattr(jets.Jet, "take", counting_take)
    readers = (
        lambda: pair_classify(pair.base, pair.mate, n=64),
        lambda: apparatus_grid(pair, "base", "normal", pair.ts),
        lambda: frame_relations_check(pair, n=64),
        lambda: indicatrix_arclength_relations(pair, "mate", n=64),
        lambda: pair_constraint_residual(pair, float(pair.ts[5])),
    )
    for read in readers:
        frames.clear()
        read()
        assert frames and taken == Counter()
    detect_bertrand(pair.base, pair.mate, n=24)
    assert taken == Counter({2: 3})


def _fresh_pair(preset):
    """A fresh generated base of ``preset`` (n=64) and its mate by 1.0, or
    for "analytic" the planar ellipse pair."""
    if preset == "analytic":
        return _planar_pair()
    base = _generated(preset)
    return base, construct_mate(base, 1.0, n=64)


def _planar_pair():
    """An analytic ellipse and its normal offset by 0.2: a planar
    Bertrand pair, whose f = g = 0 leaves the closed forms no row, so the
    suite raises before its image rows."""
    base = AnalyticCurve("2*cos(t)", "sin(t)", "0", (0.1, 2.9))
    return base, construct_mate(base, 0.2, n=64)


@pytest.mark.parametrize("preset", ["wobble", "slant", "analytic"])
def test_mate_jets_after_detection_and_suite_have_fresh_bits(preset):
    """After detection and the suite's image rows, the mate's order-4 and
    order-6 jets on the detection grid, in either order, have the bits of
    a fresh mate's: the jets detection hands to the pair leave the curves
    as they were.  On the mate of an analytic base the suite raises
    before its image rows, so they are run alone."""
    for orders in ((4, 6), (6, 4)):
        base, mate = _fresh_pair(preset)
        pair = detect_bertrand(base, mate, n=24)
        grid = pair.ts[~pair.masked]
        if preset == "analytic":
            _classify_image_rows(pair._images, grid)
        else:
            theorem_suite(pair)
        for order in orders:
            got, want = mate.jet(grid, order), _fresh_pair(preset)[1].jet(grid, order)
            assert_same_bits_array(got.coeffs, want.coeffs)
            assert_same_bits_array(got.basepoint, want.basepoint)


def test_detection_asks_an_analytic_base_once_and_its_mate_nothing(monkeypatch):
    """The mate of an analytic base records that base too: detection asks
    the ellipse once, for its order-6 grid jet (order 8 while the suite
    read the images' full rows), and the mate for nothing (the ellipse at
    orders 4 and 6, the mate at order 4 before)."""
    base, mate = _planar_pair()
    requests = Counter()
    real_analytic, real_backed = AnalyticCurve.jet, JetBackedCurve.jet

    def counting(real):
        def jet(self, t, order):
            requests["base" if self is base else "mate" if self is mate else None,
                     order] += 1
            return real(self, t, order)
        return jet

    monkeypatch.setattr(AnalyticCurve, "jet", counting(real_analytic))
    monkeypatch.setattr(JetBackedCurve, "jet", counting(real_backed))
    detect_bertrand(base, mate, n=24)
    assert requests == Counter({("base", 6): 1})


def _separate_rows(base, mate, ts):
    """The rows of each curve at ``ts`` from its own Frenet request, the
    mate's at the base's regular points, both where both are regular."""
    base_rows, ok, _ = _frenet_columns(base, ts)
    mate_rows, mate_ok, _ = _frenet_columns(mate, ts[ok])
    return _take_rows(base_rows, mate_ok), mate_rows


def _assert_same_rows(got, want):
    for name in FIELDS:
        assert_same_bits_array(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("preset", ["wobble", "slant", "analytic"])
def test_shared_detection_rows_have_the_bits_of_fresh_curves(preset):
    """Detection builds both curves' rows and frames from one order-6 run
    of the base, and holds the six image jets; the rows have the bits of
    ``_frenet_columns`` of a fresh base and a fresh mate, each asked for
    its own order-4 jets, and the base's jets of orders 4, 6 and 8 on the
    grid after detection have the bits of a fresh base's."""
    pair = detect_bertrand(*_fresh_pair(preset), n=24)
    assert pair._images is not None
    assert len(pair._images) == 6
    want_base, want_mate = _separate_rows(*_fresh_pair(preset), pair.ts)
    _assert_same_rows(pair.base_rows, want_base)
    _assert_same_rows(pair.mate_rows, want_mate)
    for order in (4, 6, 8):
        want = _fresh_pair(preset)[0].jet(pair.ts, order)
        assert_same_bits_array(pair.base.jet(pair.ts, order).coeffs, want.coeffs)


def test_mate_of_a_mate_is_detected_on_the_separate_path():
    """A normal offset's jets drift from the bits of lower requests, so the
    mate of a mate records no base: detecting (mate, mate of mate) asks
    each curve for its own Frenet jets, holds the six image jets of those
    requests, read-only and of order 2, and gives the rows of fresh
    curves."""
    def fresh():
        mate = construct_mate(_generated("wobble"), 1.0, n=64)
        return mate, construct_mate(mate, 1.0, n=64)

    mate, back = fresh()
    assert back._offset_of is None
    pair = detect_bertrand(mate, back, n=24)
    assert [(jet.order, jet.coeffs.flags.writeable) for jet in pair._images] == [(2, False)] * 6
    want_base, want_mate = _separate_rows(*fresh(), pair.ts)
    _assert_same_rows(pair.base_rows, want_base)
    _assert_same_rows(pair.mate_rows, want_mate)


def _mate_of_a_mate():
    """A fresh mate of a generated wobble base and its own mate by 1.0,
    which records no base: a pair on the separate path."""
    mate = construct_mate(_generated("wobble"), 1.0, n=64)
    return mate, construct_mate(mate, 1.0, n=64)


def _sampled_pair():
    """A generated wobble base sampled at 257 points and its sampled mate
    by 1.0: a pair on the separate path."""
    base = _generated("wobble")
    ts = np.linspace(*base.domain, 257)
    sampled = SampledCurve(ts, base.jet(ts, 0).coeffs[0].T)
    return sampled, construct_mate(sampled, 1.0, n=256)


# each factory returns a fresh (base, mate); the first three take the
# shared path, the other two the separate one
EVALUATOR_PAIRS = {
    "wobble": lambda: _fresh_pair("wobble"),
    "slant": lambda: _fresh_pair("slant"),
    "analytic": _planar_pair,
    "mate-of-mate": _mate_of_a_mate,
    "sampled": _sampled_pair,
}


@pytest.mark.parametrize("name", list(EVALUATOR_PAIRS))
def test_pair_functions_have_the_bits_of_fresh_curves(name):
    """``pair_classify`` (align='param'), ``indicatrix_arclength_relations``,
    ``pair_constraint_residual``, ``apparatus_grid`` and
    ``frame_relations_check`` read both curves through one
    ``_pair_columns``; each result has the bits of its formula over the
    rows of a fresh base and a fresh mate, each asked for its own order-4
    jets (``_separate_rows``), on either path.  On the planar pair the
    base's closed forms apply at no row, and the frame relations raise."""
    fresh = EVALUATOR_PAIRS[name]
    pair = detect_bertrand(*fresh(), n=24, tol_align=1e-4, tol_const=1e-4, inset=0.01)
    base, mate = fresh()

    ts = bertrand._overlap_grid(pair.base, pair.mate, 128)
    rows_a, rows_b = _separate_rows(base, mate, ts)
    ok = np.ones(len(rows_a.t), dtype=bool)
    (want,) = _classify_rows(_pose(rows_a), ok, _pose(rows_b), ok, [ok], 1e-6)
    assert repr(pair_classify(pair.base, pair.mate)) == repr(want)

    ts = np.linspace(pair.ts[0], pair.ts[-1], 65)
    rows = _separate_rows(base, mate, ts)
    assert len(rows[0].t) == len(ts)
    for side in ("base", "mate"):
        got = indicatrix_arclength_relations(pair, side, n=64)
        want = _arclength_relations(side, *rows, pair.lam, pair.epsilon)
        for field in dataclasses.fields(want):
            value = getattr(want, field.name)
            if isinstance(value, np.ndarray):
                assert_same_bits_array(getattr(got, field.name), value)
            else:
                assert repr(getattr(got, field.name)) == repr(value), field.name

    for t in pair.ts[~pair.masked][::5]:
        want = _constraint_residuals(*_separate_rows(base, mate, np.array([t])), pair.epsilon)
        assert pair_constraint_residual(pair, t).hex() == float(want[0]).hex()

    # the closed forms of each side's images over the fresh data side's rows
    report, masked, fewest = {}, 0, len(ts)
    for side, data in zip(SIDES, rows[::-1]):
        applies = paper._applies(data)
        closed = paper.images(side, _take_rows(data, applies), pair.epsilon)
        for axis in AXES:
            want = _points_at(closed[axis], np.flatnonzero(applies), len(ts))
            got = apparatus_grid(pair, side, axis, ts)
            assert [v is None for v in got] == [v is None for v in want]
            for g, w in zip(got, want):
                if w is not None:
                    for name in w._fields:
                        assert_same_bits_array(getattr(g, name), getattr(w, name))
        report.update(paper._frame_relations(side, closed, pair.epsilon))
        masked += len(ts) - int(np.count_nonzero(applies))
        fewest = min(fewest, int(np.count_nonzero(applies)))
    if fewest < MIN_CLASSIFY_SAMPLES:
        with pytest.raises(TooFewSamplesError, match="closed forms"):
            frame_relations_check(pair, n=len(ts))
    else:
        want = {**report, "masked_points": masked}
        assert repr(frame_relations_check(pair, n=len(ts))) == repr(want)


def test_pair_functions_run_one_generator_pipeline_per_call(monkeypatch):
    """On a generated pair, ``pair_classify`` (align='param'),
    ``indicatrix_arclength_relations``, ``pair_constraint_residual``,
    ``apparatus_grid`` and ``frame_relations_check`` each run the base's
    generator pipeline once per call, at order 6 on their own grid, and
    read the mate from that run (one pipeline per curve before)."""
    pair = generated_pair("wobble", n=64, grid=24)
    runs = count_pipelines(monkeypatch)
    ts = np.linspace(pair.ts[0], pair.ts[-1], 40)
    calls = [(lambda: pair_classify(pair.base, pair.mate, n=32), (6, 32)),
             (lambda: indicatrix_arclength_relations(pair, "base", n=64), (6, 65)),
             (lambda: indicatrix_arclength_relations(pair, "mate", n=64), (6, 65)),
             (lambda: pair_constraint_residual(pair, pair.ts[5]), (6, 1)),
             (lambda: apparatus_grid(pair, "base", "tangent", ts), (6, 40)),
             (lambda: apparatus_grid(pair, "mate", "binormal", ts), (6, 40)),
             (lambda: frame_relations_check(pair, n=64), (6, 64))]
    for call, want in calls:
        runs.clear()
        call()
        assert runs == [want]


@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant", "analytic"])
def test_pair_check_without_images_asks_the_base_for_order_6(preset, monkeypatch):
    """A pair check without ``images``, the default, asks the base once,
    for order 6, where ``images`` asks for order 8, and asks the mate for
    nothing.  It builds each curve's frame once, the base's to order 4
    and the mate's to order 2 (6 and 4 with ``images``), and holds the
    six image jets cut to order 2 (4 with ``images``).  Its grid, rows,
    offset, sign and statistics have the bits of the order-8 run's, and a
    suite on it gives the order-8 pair's report."""
    base, mate = _fresh_pair(preset)
    role = {base: "base", mate: "mate"}
    requests = Counter()
    real_frame = bertrand._frame

    def counting(real):
        def jet(self, t, order):
            if self in role:  # not the generator's seed
                requests[role[self], order] += 1
            return real(self, t, order)
        return jet

    def counting_frame(*core):
        requests["frame", core[2].order] += 1
        return real_frame(*core)

    for cls in (AnalyticCurve, JetBackedCurve):
        monkeypatch.setattr(cls, "jet", counting(cls.jet))
    monkeypatch.setattr(bertrand, "_frame", counting_frame)
    got = detect_bertrand(base, mate, n=24)
    assert requests == Counter({("base", 6): 1, ("frame", 4): 1, ("frame", 2): 1})
    requests.clear()
    want = detect_bertrand(base, mate, n=24, images=True)
    assert requests == Counter({("base", 8): 1, ("frame", 6): 1, ("frame", 4): 1})
    monkeypatch.undo()
    assert [jet.order for jet in got._images] == [2] * 6
    assert [jet.order for jet in want._images] == [4] * 6
    assert_same_bits_array(got.ts, want.ts)
    assert_same_bits_array(got.masked, want.masked)
    _assert_same_rows(got.base_rows, want.base_rows)
    _assert_same_rows(got.mate_rows, want.mate_rows)
    for name in ("lam", "epsilon", "p1", "p2", "q1", "q2", "lambda_stat"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    if preset != "analytic":
        reports = [{k: vars(e) for k, e in theorem_suite(pair).entries.items()}
                   for pair in (got, want)]
        assert dumps(reports[0]) == dumps(reports[1])


# The generator's slant curve (a = 1, omega = pi/4) in closed form, and
# its mate by lambda = 1.  With m = 0.45 and r = sqrt(1 - m^2) =
# sqrt(319)/20, the slant seed c has speed V = (r/m) cos t, so the rate
# V c + c x c' is a sum of sines and cosines of t times multiples of
# 1/9, and the mate's offset N = c'/V = (-r sin(20t/9), r cos(20t/9), m).
_SLANT_X = ("sqrt(319)*(29*(sin(2*t/9) - cos(2*t/9))/160 {}sin(20*t/9)/40 "
            "- 9*cos(20*t/9)/800 + 11*(sin(38*t/9) + cos(38*t/9))/3040)")
_SLANT_Y = ("-sqrt(319)*(29*(sin(2*t/9) + cos(2*t/9))/160 + 9*sin(20*t/9)/800 "
            "{} cos(20*t/9)/40 - 11*(sin(38*t/9) - cos(38*t/9))/3040)")
_SLANT_Z = "319*(2*t + sin(2*t) - cos(2*t))/720{}"


def _slant_curve(mate=False):
    """The closed-form slant Bertrand curve on the slant seed's domain, or
    with ``mate`` its mate by 1, as an ``AnalyticCurve``."""
    texts = (_SLANT_X.format("-" if mate else "+ "), _SLANT_Y.format("-" if mate else "+"),
             _SLANT_Z.format(" + 9/20" if mate else ""))
    return AnalyticCurve(*texts, sphere_preset("slant").domain,
                         label="slant-bertrand" + ("+1*N" if mate else ""))


def test_closed_form_slant_curve_is_the_generators():
    """The closed-form slant curve is the generator's slant curve (a = 1,
    omega = pi/4) up to a translation, whose jets agree to 3e-15 of their
    largest coefficient, and its closed-form mate is its normal offset by
    the generator's lambda, 1, whose order-4 jets, built from the frame's
    jets, agree to 1e-12."""
    base = _slant_curve()
    generated = generate_bertrand_curve(sphere_preset("slant"), 1.0, math.pi / 4, n=64)
    assert generated.metadata["nominal_lambda"] == 1.0
    ts = np.linspace(*base.domain, 17)
    got, want = base.jet(ts, 6).coeffs, generated.jet(ts, 6).coeffs
    shift = want[0] - got[0]
    assert np.ptp(shift, axis=1).max() < 3e-15
    np.testing.assert_allclose(got[1:], want[1:], rtol=0.0, atol=3e-15 * np.abs(want).max())
    mate = construct_mate(base, 1.0, n=64).jet(ts, 4).coeffs
    np.testing.assert_allclose(_slant_curve(mate=True).jet(ts, 4).coeffs, mate,
                               rtol=0.0, atol=1e-12 * np.abs(mate).max())


def _slant_and_mate():
    """The closed-form slant curve and its mate built by ``construct_mate``."""
    base = _slant_curve()
    return base, construct_mate(base, 1.0, n=64)


# each factory takes a tmp_path and returns a fresh (base, mate); the first
# two take detection's shared path, the other four the separate one
PAIR_KINDS = {
    "generated": lambda tmp_path: _fresh_pair("wobble"),
    "analytic-base": lambda tmp_path: _slant_and_mate(),
    "stripped-files": lambda tmp_path: _through_files(tmp_path, *_fresh_pair("wobble"),
                                                      strip=("base", "mate")),
    "analytic-files": lambda tmp_path: _through_files(tmp_path, _slant_curve(),
                                                      _slant_curve(mate=True)),
    "mate-of-mate": lambda tmp_path: _mate_of_a_mate(),
    "unrecorded-base": lambda tmp_path: _through_files(tmp_path, *_fresh_pair("wobble"),
                                                       strip=("base",)),
}


@pytest.mark.parametrize("images", [False, True])
@pytest.mark.parametrize("kind", list(PAIR_KINDS))
def test_suite_asks_no_curve_for_a_jet(kind, images, tmp_path, monkeypatch):
    """After detection the suite reads only what the pair holds: on either
    path, with or without ``images``, ``theorem_suite`` reaches its image
    rows and asks no curve for a jet (each pair on the separate path made
    one order-6 request per curve there before)."""
    base, mate = PAIR_KINDS[kind](tmp_path)
    shared = mate._offset_of is not None and mate._offset_of[0] is base
    assert shared == (kind in ("generated", "analytic-base"))
    pair = _detect_from_files(base, mate, 24, images)
    requests = Counter()
    real_jet = Curve.jet

    def counting_jet(self, t, order):
        requests[order] += 1
        return real_jet(self, t, order)

    monkeypatch.setattr(Curve, "jet", counting_jet)
    report = theorem_suite(pair)
    monkeypatch.undo()
    assert requests == Counter()
    assert report.entries["negative-result"].note.startswith("verdicts=")


# each factory returns a fresh (base, mate) on detection's separate path
SEPARATE_PAIRS = {
    "mate-of-mate": _mate_of_a_mate,
    "sampled": _sampled_pair,
    "analytic": lambda: (_slant_curve(), _slant_curve(mate=True)),
}


def _outer_requests(monkeypatch, base, mate):
    """A Counter of the (role, order) of each ``Curve.jet`` request that
    ``base`` or ``mate`` gets from now on from outside any other request
    (a normal offset asks its own base inside its request)."""
    requests, depth = Counter(), []
    real_jet = Curve.jet

    def counting_jet(self, t, order):
        if not depth:
            requests["base" if self is base else "mate" if self is mate else None, order] += 1
        depth.append(1)
        try:
            return real_jet(self, t, order)
        finally:
            depth.pop()

    monkeypatch.setattr(Curve, "jet", counting_jet)
    return requests


@pytest.mark.parametrize("name", list(SEPARATE_PAIRS))
def test_separate_detection_asks_each_curve_once_more_only_for_images(name, monkeypatch):
    """On the separate path detection asks each curve once, for its
    order-4 Frenet jets, and with ``images`` once more, for order 6, at
    the pair's regular points: an order-4 request's frames reach order 2,
    and the rows keep the bits of the order-4 request."""
    base, mate = SEPARATE_PAIRS[name]()
    requests = _outer_requests(monkeypatch, base, mate)
    _detect_from_files(base, mate, 24, images=False)
    assert requests == Counter({("base", 4): 1, ("mate", 4): 1})
    requests.clear()
    _detect_from_files(base, mate, 24, images=True)
    assert requests == Counter({("base", 4): 1, ("mate", 4): 1, ("base", 6): 1, ("mate", 6): 1})


@pytest.mark.parametrize("name", list(SEPARATE_PAIRS))
def test_separate_pair_holds_each_curves_own_frames(name):
    """On the separate path the six image jets that detection holds, base
    first, are read-only and have the bits of ``_frames`` of a fresh
    curve's own order-4 request at the pair's regular points (the base's
    frame taken at those of its regular points where the mate is regular
    too), cut to order 2; with ``images``, of its own order-6 request there,
    cut to order 4."""
    for images, order in ((False, 2), (True, 4)):
        pair = _detect_from_files(*SEPARATE_PAIRS[name](), 24, images)
        grid = pair.ts[~pair.masked]
        want = [v.truncate(order) for curve in SEPARATE_PAIRS[name]()
                for v in bertrand._frames(curve.jet(grid, order + 2))[1:]]
        assert len(pair._images) == 6
        for jet, fresh in zip(pair._images, want, strict=True):
            assert jet.order == order
            assert not jet.coeffs.flags.writeable and not jet.basepoint.flags.writeable
            assert_same_bits_array(jet.coeffs, fresh.coeffs)
            assert_same_bits_array(jet.basepoint, grid)


def test_generator_build_makes_one_seed_request():
    """A generator build asks its seed once, for the walk's order-10 jets
    at the n midpoints and the two end nodes; the sphere checks read the
    order-2 terms of every one of them (a second, order-2 request
    before)."""
    for n in (64, 256):
        seed = sphere_preset("wobble")
        real_jet = seed.jet
        requests = Counter()

        def counting_jet(t, order):
            requests[order, np.size(t)] += 1
            return real_jet(t, order)

        seed.jet = counting_jet
        generate_bertrand_curve(seed, a=1.0, omega=DEFAULT_OMEGA["wobble"], n=n)
        assert requests == Counter({(10, n + 2): 1})


def _sphere_checks_one_probe_at_a_time(seed_jet):
    """The sphere checks' first two tests, probe by probe in grid order:
    the reference for the one array comparison of ``_sphere_checks``."""
    p, d1 = seed_jet.coeffs[:2].transpose(0, 2, 1)
    for u, r_u, v_u in zip(seed_jet.basepoint, np.linalg.norm(p, axis=1),
                           np.linalg.norm(d1, axis=1)):
        if abs(r_u - 1.0) > 1e-8:
            raise NotSphericalError(f"|c({u})| = {r_u}, not on the unit sphere")
        if v_u < 1e-9:
            raise DegenerateSphereCurveError(f"sphere curve irregular at u={u}")


def _seed_with(off=(), still=()):
    """The order-2 jet of a unit circle at 8 probes, pushed off the sphere
    by 1e-6 at the probes ``off`` and stopped (zero velocity) at ``still``."""
    u = np.linspace(0.1, 0.8, 8)
    c = np.zeros((3, 3, len(u)))
    c[0] = np.cos(u), np.sin(u), 0.0 * u
    c[1] = -np.sin(u), np.cos(u), 0.0 * u
    c[2] = -0.5 * np.cos(u), -0.5 * np.sin(u), 0.0 * u
    for i in off:
        c[0, :, i] *= 1.0 + 1e-6
    for i in still:
        c[1, :, i] = 0.0
    return jets.Jet(u, c)


@pytest.mark.parametrize("off, still", [((3,), ()), ((), (5,)), ((2, 6), (4,)),
                                         ((4,), (2, 6)), ((3,), (3,)), ((7,), (0,))])
def test_sphere_checks_raise_the_first_failing_probe(off, still):
    """The sphere checks test all probes in one comparison and raise the
    error, class and message, of the first failing probe, a probe off the
    sphere before an irregular one at the same probe."""
    seed = _seed_with(off, still)
    with pytest.raises((NotSphericalError, DegenerateSphereCurveError)) as want:
        _sphere_checks_one_probe_at_a_time(seed)
    with pytest.raises((NotSphericalError, DegenerateSphereCurveError)) as got:
        bertrand._sphere_checks(seed, math.pi / 3)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
