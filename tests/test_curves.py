"""Frenet apparatus and arc length on analytic and sampled curves."""

import math

import numpy as np
import pytest

from bertrand_kit import curves
from bertrand_kit.curves import (
    AnalyticCurve,
    SampledCurve,
    _frenet_rows,
    _integrate,
    cumulative_trapezoid,
    frenet_apparatus,
    frenet_grid,
)
from bertrand_kit.errors import (
    OutOfDomainError,
    SingularPointError,
    TooFewSamplesError,
)
from bertrand_kit.io import dumps
from bertrand_kit.jets import jsqrt


def test_circular_helix_apparatus(helix):
    # r/(r^2+c^2) and c/(r^2+c^2) with r=3, c=4
    for t in (0.3, 1.1, 4.9):
        fd = frenet_apparatus(helix, t)
        assert fd.speed == pytest.approx(5.0, abs=1e-12)
        assert fd.kappa == pytest.approx(0.12, abs=1e-12)
        assert fd.tau == pytest.approx(0.16, abs=1e-12)
        assert fd.dkappa_ds == pytest.approx(0.0, abs=1e-12)
        assert fd.dtau_ds == pytest.approx(0.0, abs=1e-12)
        assert fd.Gamma == pytest.approx(0.0, abs=1e-12)


def test_helix_frame_orthonormal(helix):
    fd = frenet_apparatus(helix, 2.0)
    M = np.stack([fd.T, fd.N, fd.B])
    assert np.allclose(M @ M.T, np.eye(3), atol=1e-12)
    assert np.allclose(np.cross(fd.T, fd.N), fd.B, atol=1e-12)


def test_twisted_cubic_at_origin():
    # (t, t^2, t^3): kappa = 2, tau = 3 at t = 0
    c = AnalyticCurve("t", "t^2", "t^3", (-1.0, 1.0))
    fd = frenet_apparatus(c, 0.0)
    assert fd.kappa == pytest.approx(2.0, abs=1e-12)
    assert fd.tau == pytest.approx(3.0, abs=1e-12)


def test_planar_circle_zero_torsion():
    c = AnalyticCurve("2*cos(t)", "2*sin(t)", "0*t", (0.0, 6.0))
    fd = frenet_apparatus(c, 1.0)
    assert fd.kappa == pytest.approx(0.5, abs=1e-12)
    assert fd.tau == pytest.approx(0.0, abs=1e-12)


def test_arclength_derivative_chain_rule():
    c = AnalyticCurve("sin(t)", "t^2", "cos(2*t)", (0.0, 3.0))
    t0, h = 1.2, 1e-4
    fd = frenet_apparatus(c, t0)
    ka = frenet_apparatus(c, t0 + h).kappa
    kb = frenet_apparatus(c, t0 - h).kappa
    fd_kp_param = (ka - kb) / (2 * h)
    assert fd.dkappa_ds == pytest.approx(fd_kp_param / fd.speed, rel=1e-6)


def test_singular_point_raises():
    c = AnalyticCurve("t^2", "t^3", "t^4", (-1.0, 1.0))
    with pytest.raises(SingularPointError):
        frenet_apparatus(c, 0.0)


def test_out_of_domain():
    c = AnalyticCurve("t", "t", "t", (0.0, 1.0))
    with pytest.raises(OutOfDomainError):
        c.point(2.0)


def test_frenet_grid_masks_singular():
    c = AnalyticCurve("t^2", "t^3", "t^4", (-1.0, 1.0))
    fds = frenet_grid(c, np.linspace(-0.5, 0.5, 11))
    assert fds[5] is None
    assert all(fd is not None for i, fd in enumerate(fds) if i != 5)


def test_sampled_circle_matches_analytic():
    ts = np.linspace(0.0, 2 * math.pi, 600)
    pts = np.stack([np.cos(ts), np.sin(ts), np.zeros_like(ts)], axis=1)
    c = SampledCurve(ts, pts)
    fd = frenet_apparatus(c, math.pi)
    assert fd.kappa == pytest.approx(1.0, rel=1e-6)
    assert abs(fd.tau) < 1e-5


def test_sampled_frenet_rows_use_nine_node_stencils():
    """Nine-node stencils differentiate a degree-8 polynomial curve exactly,
    so its sampled Frenet rows match the analytic ones to rounding, ends
    included (measured <= 5.1e-12 relative on 41 samples).  Seven-node
    stencils miss by 4e-5 in kappa and 1.9e-3 in tau'."""
    exact = AnalyticCurve("t", "t^2 + 0.5*t^5", "t^3 - 0.25*t^8", (-1.0, 1.0))
    ps = np.linspace(-1.0, 1.0, 41)
    sampled = SampledCurve(ps, exact.point(ps).T)
    ts = np.linspace(-1.0, 1.0, 37)
    want, got = _frenet_rows(exact, ts), _frenet_rows(sampled, ts)
    for name in ("kappa", "tau", "dkappa_ds", "dtau_ds", "d2kappa_ds2", "Gamma"):
        w = getattr(want, name)
        assert np.max(np.abs(getattr(got, name) - w)) <= 1e-9 * np.max(np.abs(w)), name


def test_sampled_too_few_points():
    ts = np.linspace(0, 1, 5)
    pts = np.stack([ts, ts, ts], axis=1)
    with pytest.raises(TooFewSamplesError):
        SampledCurve(ts, pts)


def series_arc_length(curve, t0, t1, n=64):
    """Cumulative arc length at n+1 uniform nodes of [t0, t1], from the
    speed's exact series about each segment's midpoint."""
    nodes = np.linspace(t0, t1, n + 1)
    d = [c.deriv() for c in curve.jet(0.5 * (nodes[:-1] + nodes[1:]), 10)]
    return _integrate(jsqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]), nodes)[0]


def test_arc_length_helix(helix):
    assert series_arc_length(helix, 0.0, 2.0)[-1] == pytest.approx(10.0, rel=1e-10)


def test_arc_length_additive(helix):
    a = series_arc_length(helix, 0.0, 1.3)[-1]
    b = series_arc_length(helix, 1.3, 2.9)[-1]
    assert a + b == pytest.approx(series_arc_length(helix, 0.0, 2.9)[-1], rel=1e-10)


def test_arc_length_parabola_cumulative():
    # (t, t^2, 0): s(t) = (t*sqrt(1 + 4t^2) + asinh(2t)/2)/2, a speed that varies
    c = AnalyticCurve("t", "t^2", "0", (0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 33)
    want = (ts * np.sqrt(1.0 + 4.0 * ts * ts) + np.arcsinh(2.0 * ts) / 2.0) / 2.0
    np.testing.assert_allclose(series_arc_length(c, 0.0, 1.0, n=32), want, rtol=1e-12, atol=0)


def test_analytic_vs_sampled_frenet():
    c = AnalyticCurve("sin(t)", "t^2/4", "cos(2*t)/3", (0.0, 3.0))
    ts = np.linspace(0.0, 3.0, 800)
    pts = np.stack([c.point(t) for t in ts])
    s = SampledCurve(ts, pts)
    for t in (0.7, 1.5, 2.3):
        fa = frenet_apparatus(c, t)
        fb = frenet_apparatus(s, t)
        assert fb.kappa == pytest.approx(fa.kappa, rel=1e-6)
        assert fb.tau == pytest.approx(fa.tau, rel=1e-5)
        assert np.allclose(fa.T, fb.T, atol=1e-7)


def test_take_rows_keeps_the_type_and_takes_array_rows():
    """``_take_rows`` keeps the type and takes each array field's rows,
    keeping the other fields."""
    rows, _, _ = curves._frenet_columns(AnalyticCurve("cos(t)", "sin(t)", "t*t", (0.0, 1.0)),
                                        np.linspace(0.0, 1.0, 9))
    idx = np.array([1, 4, 8])
    got = curves._take_rows(rows, idx)
    assert type(got) is curves.FrenetData
    for name in curves.FrenetData._fields:
        assert np.array_equal(getattr(got, name), getattr(rows, name)[idx])
    kept = curves._take_rows(rows._replace(t=0.5), idx)
    assert kept.t == 0.5 and np.array_equal(kept.kappa, rows.kappa[idx])


def test_frenet_rows_and_views_are_read_only():
    """A field of a Frenet row record or of its one-point views cannot be
    reassigned."""
    curve = AnalyticCurve("cos(t)", "sin(t)", "t*t", (0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 9)
    rows, _, _ = curves._frenet_columns(curve, ts)
    for record in (rows, frenet_grid(curve, ts)[0], frenet_apparatus(curve, 0.5)):
        with pytest.raises(AttributeError):
            record.kappa = 1.0


def test_serialized_floats_keep_their_text():
    """Floats, numpy floats and non-finite values serialize as before:
    17 significant digits, and null for NaN and the infinities."""
    values = [0.1, -2.5e-300, np.float64(1.0) / 3.0, np.float32(0.1), math.nan, math.inf,
              -np.inf, np.float64("nan"), 7, np.int64(-3), True, None]
    assert dumps(values) == ("[0.10000000000000001, -2.5e-300, "
                             "0.33333333333333331, 0.10000000149011612, null, null, null, "
                             "null, 7, -3, true, null]")


def test_frenet_rows_normal_is_numpy_cross_of_b_and_t():
    """The rows' N is B x T by ``jets._cross_rows``, with the bits of
    ``np.cross`` on the rows' own B and T."""
    for curve in (AnalyticCurve("cos(t)", "sin(t)", "t*t", (0.0, 1.0)),
                  AnalyticCurve("t", "t^2", "t^3", (-1.0, 1.0))):
        rows, _, _ = curves._frenet_columns(curve, np.linspace(*curve.domain, 33))
        assert np.array_equal(rows.N.view(np.uint64), np.cross(rows.B, rows.T).view(np.uint64))


def test_stacked_trapezoid_rows_have_their_own_bits():
    """``cumulative_trapezoid`` of stacked rows equals each row's own call,
    bit for bit."""
    rng = np.random.default_rng(3)
    for n in (2, 3, 17, 257):
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = rng.normal(size=(6, n)) * 10.0 ** rng.integers(-8, 8, (6, 1))
        stacked = cumulative_trapezoid(x, y)
        assert stacked.shape == (6, n)
        for row, alone in zip(stacked, y):
            want = cumulative_trapezoid(x, alone)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


def _tenth_samples():
    ts = np.linspace(0.0, 0.1, 9)
    return SampledCurve(ts, np.stack([np.cos(ts), np.sin(ts), ts * ts], axis=1))


@pytest.mark.parametrize("make", [_tenth_samples,
                                  lambda: AnalyticCurve("t", "t^2", "t^3", (0.0, 0.1))])
def test_float32_parameters_are_checked_in_float64(make):
    """A float32 parameter is checked at its float64 value: np.float32(0.1)
    is 0.10000000149011612, beyond the slack of a domain ending at 0.1, so
    a scalar and a 1-D float32 array holding it raise OutOfDomainError
    with the message of that float64 value; float32 values in the domain
    get the bits of their float64 values."""
    curve = make()
    beyond = float(np.float32(0.1))
    for got_t, want_t in ((np.float32(0.1), beyond),
                          (np.array([0.05, 0.1], dtype=np.float32),
                           np.array([float(np.float32(0.05)), beyond]))):
        with pytest.raises(OutOfDomainError) as want:
            curve.jet(want_t, 0)
        with pytest.raises(OutOfDomainError) as got:
            curve.jet(got_t, 0)
        assert str(got.value) == str(want.value)
        assert "t=0.10000000149011612 outside" in str(got.value)
    inside = np.array([0.0, 0.025, 0.05, 0.0999], dtype=np.float32)
    for got_t, want_t in ((inside[2], float(inside[2])), (inside, inside.astype(float))):
        got, want = curve.jet(got_t, 2), curve.jet(want_t, 2)
        assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))
