"""Batched grids: a point's Frenet data does not depend on its batch.

Every curve answers ``jet`` for a whole array of parameter values at
once, and ``frenet_grid`` evaluates a grid from one request.  Each column
goes through the same floating-point operations whatever the others
hold, so a point evaluated alone, in a grid or in any shuffled subset of
it gives the same bits.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest
from test_indicatrix import EPS_PLUS_ONE_OMEGA
from test_jets import FAMILY_TEXTS

from bertrand_kit import curves, jets, paper
from bertrand_kit.bertrand import (
    DEFAULT_OMEGA,
    _frames,
    _image_frames,
    _pair_columns,
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    generated_pair,
    sphere_preset,
)
from bertrand_kit.curves import (
    AnalyticCurve,
    JetBackedCurve,
    SampledCurve,
    _frenet_columns,
    _take_rows,
    fornberg_weights,
    frenet_apparatus,
    frenet_grid,
)
from bertrand_kit.classify import _classify_image_rows, _classify_rows, _pose, theorem_suite
from bertrand_kit.cli import _detect_from_files
from bertrand_kit.errors import (
    DomainError,
    OutOfDomainError,
    SingularPointError,
)
from bertrand_kit.indicatrix import (
    AXES,
    SIDES,
    apparatus_grid,
    image_rows,
)
from bertrand_kit.io import read_inputs, save_curve

TREFOIL = ("sin(t) + 2.1*sin(2*t)", "cos(t) - 2.1*cos(2*t)", "-sin(3*t)")


def _generated(preset):
    seed = sphere_preset(preset)
    return generate_bertrand_curve(seed, a=1.0, omega=DEFAULT_OMEGA[preset], n=64)


def _trefoil_samples():
    curve = AnalyticCurve(*TREFOIL, (0.0, 6.0))
    ts = np.linspace(0.0, 6.0, 200)
    return SampledCurve(ts, curve.point(ts).T, label="trefoil samples")


CURVES = {
    "trefoil": lambda: AnalyticCurve(*TREFOIL, (0.0, 6.0)),
    "tan-sqrt-negative-power": lambda: AnalyticCurve(
        "tan(t/3) + log(1 + t)", "sqrt(1 + t^2)*exp(-t/4)", "(2 + t)^-2 + 0.3*t^3", (0.1, 1.9)
    ),
    "wobble-base": lambda: _generated("wobble"),
    "slant-base": lambda: _generated("slant"),
    "slant-seed": lambda: sphere_preset("slant"),
    "wobble-mate": lambda: construct_mate(_generated("wobble"), 1.0, n=64),
    "sampled-trefoil": _trefoil_samples,
}

FIELDS = ("t", "point", "speed", "T", "N", "B", "kappa", "tau", "dkappa_ds", "dtau_ds",
          "d2kappa_ds2", "f", "g", "g_defined", "Gamma")


def assert_same_bits(a, b):
    # g is NaN where it is undefined
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


@pytest.mark.parametrize("name", sorted(CURVES))
def test_point_does_not_depend_on_its_batch(name):
    curve = CURVES[name]()
    lo, hi = curve.domain
    # both ends included: one-sided stencils and the first and last walk nodes
    ts = np.linspace(lo, hi, 29)
    grid = frenet_grid(curve, ts)
    assert all(fd is not None for fd in grid)
    for t, fd in zip(ts, grid):
        assert_same_bits(fd, frenet_apparatus(curve, t))
        assert_same_bits(fd, frenet_grid(curve, [t])[0])
    rng = np.random.default_rng(3)
    for _ in range(2):
        pick = rng.permutation(len(ts))[: len(ts) // 2]
        for i, fd in zip(pick, frenet_grid(curve, ts[pick])):
            assert_same_bits(fd, grid[i])
    # a float is the one-point grid: its jet is the grid's column, bit for bit
    for order in (0, 4, 8):
        jet = curve.jet(ts, order)
        for i, t in enumerate(ts):
            one = curve.jet(float(t), order)
            assert one.coeffs.shape == (order + 1, 3)
            assert np.array_equal(one.coeffs.view(np.uint64),
                                  jet.column(i).coeffs.view(np.uint64)), (order, i)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_jet_refuses_a_2d_t_and_a_negative_order(name):
    """Every kind refuses a t of more than one dimension and an order below
    0 with the same ValueError, before it checks the domain."""
    curve = CURVES[name]()
    lo, hi = curve.domain
    for t, order, shape in ((0.5 * (lo + hi), -1, "()"), (hi + 1.0, -1, "()"),
                            (np.full((2, 2), lo), 2, "(2, 2)"), ([[lo]], 0, "(1, 1)")):
        with pytest.raises(ValueError) as err:
            curve.jet(t, order)
        assert type(err.value) is ValueError
        assert str(err.value) == ("jet takes a float or a 1-D array t and an order >= 0, "
                                  f"got t of shape {shape} and order {order}")


# largest |rows.point - curve.point| on the 29 points below.  The Frenet
# request asks for order 4, the point for order 0: a sampled curve's
# stencil is then wider, 9 nodes against 7 (measured 1.2e-10).  Analytic and generated curves
# and the mate, whose frame reads base jets of another order, give the
# same bits.
POINT_GAP = {"trefoil": 0.0, "wobble-base": 0.0, "wobble-mate": 0.0,
             "sampled-trefoil": 5e-10}


@pytest.mark.parametrize("name", sorted(POINT_GAP))
def test_frenet_rows_carry_the_points(name):
    """The positions in the Frenet rows are the curve's points, ends
    included."""
    curve = CURVES[name]()
    ts = np.linspace(*curve.domain, 29)
    rows, want = _frenet_columns(curve, ts)[0].point, curve.point(ts).T
    if POINT_GAP[name]:
        assert np.max(np.abs(rows - want)) <= POINT_GAP[name]
    else:
        assert_same_bits_array(rows, want)


@pytest.mark.parametrize("name", ["trefoil", "wobble-base", "wobble-mate", "sampled-trefoil"])
def test_frenet_rows_are_the_low_orders_of_a_higher_request(name, monkeypatch):
    """The Frenet rows, from order-4 jets, have the bits of the rows built
    from order-6 jets truncated to order 4, ends included: analytic and
    generated jets keep their low coefficients when the order rises (the
    mate's frame then asks its base for order 8 instead of 6), and rows
    0..4 of a stencil's Fornberg weights do not depend on the highest
    derivative order asked."""
    curve = CURVES[name]()
    ts = np.linspace(*curve.domain, 29)
    rows = _frenet_columns(curve, ts)[0]
    if isinstance(curve, SampledCurve):
        # the same 9-node stencils, weights up to the sixth derivative
        weights = curves.fornberg_weights
        monkeypatch.setattr(curves, "fornberg_weights",
                            lambda z, x, m: weights(z, x, m + 2)[..., : m + 1, :])
    else:
        jet = type(curve).jet

        def higher(self, t, order):
            if order == curves._FRENET_ORDER:
                return jet(self, t, order + 2).truncate(order)
            return jet(self, t, order)

        monkeypatch.setattr(type(curve), "jet", higher)
    assert_same_bits(_frenet_columns(CURVES[name](), ts)[0], rows)


@pytest.mark.parametrize("preset", ["wobble", "slant"])
def test_generated_position_does_not_depend_on_the_order(preset):
    """A generated curve's position comes from the walk's own series, so
    every jet order gives the same bits, ends included."""
    curve = _generated(preset)
    ts = np.linspace(*curve.domain, 29)
    want = constant_terms(curve, ts, 0)
    for order in (2, 6, 8):
        assert_same_bits_array(constant_terms(_generated(preset), ts, order), want)


def test_views_carry_the_bits_of_their_rows():
    """The one-point views that public functions return hold the bits of
    the rows the package computes on: the pair's per-point lists at its
    valid indices, and each ``apparatus_grid`` entry at its closed-form
    row."""
    pair = generated_pair("wobble", n=64, grid=24)
    idx = pair.valid_indices()
    for views, rows in ((pair.ri_base, pair.base_rows), (pair.ri_mate, pair.mate_rows)):
        assert [i for i, v in enumerate(views) if v is not None] == idx.tolist()
        for j, i in enumerate(idx):
            for name in FIELDS:
                assert_same_bits_array(getattr(views[i], name), getattr(rows, name)[j])
    ts = np.linspace(pair.ts[0], pair.ts[-1], 29)
    base_rows, mate_rows, both, _, _ = _pair_columns(pair.base, pair.mate, ts, images=False)
    assert both.all()
    rows_idx = np.arange(len(ts))
    for side in SIDES:
        data = mate_rows if side == "base" else base_rows
        assert paper._applies(data).all()
        images = paper.images(side, data, pair.epsilon)
        for axis in AXES:
            closed = images[axis]
            views = apparatus_grid(pair, side, axis, ts)
            assert [i for i, v in enumerate(views) if v is not None] == rows_idx.tolist()
            for j, i in enumerate(rows_idx):
                for name in ("t", "point", "T", "N", "B", "kappa", "tau", "kappa_image",
                             "tau_image", "Gamma"):
                    assert_same_bits_array(getattr(views[i], name), getattr(closed, name)[j])


def _fornberg_reference(z, x, m):
    """Fornberg's algorithm on Python floats, one point at a time."""
    n = len(x)
    c = [[0.0] * n for _ in range(m + 1)]
    c1, c4 = 1.0, x[0] - z
    c[0][0] = 1.0
    for i in range(1, n):
        mn, c2, c5, c4 = min(i, m), 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k][i] = c1 * (k * c[k - 1][i - 1] - c5 * c[k][i - 1]) / c2
                c[0][i] = -c1 * c5 * c[0][i - 1] / c2
            for k in range(mn, 0, -1):
                c[k][j] = (c4 * c[k][j] - k * c[k - 1][j]) / c3
            c[0][j] = c4 * c[0][j] / c3
        c1 = c2
    return np.array(c)


def test_stencil_weights_match_the_one_point_algorithm():
    """Also at the stencil shapes the package asks for: width 7 with m = 1
    (speeds) and m = 4 (``construct_mate`` of a sampled base), width 9
    with m = 4 (the Frenet rows, of order ``_FRENET_ORDER``), width 9 with
    m = 6, width 11 with m = 8, and batches of 1021 points, one of them at
    width 9 with m = 4, the shape of a pair-verify stencil table; there z
    lies inside the stencil, on a node, or at either end (a table's
    one-sided ends)."""
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, (40, 9)), axis=1)
    z = x[:, 4] + rng.uniform(-0.05, 0.05, 40)
    cases = [(z, x, m) for m in (0, 3, 6)]
    for width, m, points in ((7, 1, 40), (7, 4, 40), (9, 6, 40), (11, 8, 40), (9, 6, 1021),
                             (9, 4, 1021)):
        x = np.sort(rng.uniform(0.0, 1.0, (points, width)), axis=1)
        z = x[:, width // 2] + rng.uniform(-0.05, 0.05, points)
        z[::7] = x[::7, 0]
        z[1::7] = x[1::7, -1]
        z[2::7] = x[2::7, 1]
        cases.append((z, x, m))
    for z, x, m in cases:
        batch = fornberg_weights(z, x, m)
        for i in range(len(z)):
            ref = _fornberg_reference(float(z[i]), [float(v) for v in x[i]], m)
            assert np.array_equal(batch[i], ref)
            assert np.array_equal(fornberg_weights(z[i], x[i], m), ref)


@pytest.mark.parametrize("order", [1, 4])
def test_stencil_jets_are_the_per_point_contraction(order):
    """A SampledCurve's jet at each t has the bits of a per-point formula:
    that t's weights (the scalar reference algorithm) times its stencil's
    points, ``w[i] @ points[idx[i]]``, then the k-th derivative divided by
    k!; at a float t and on a grid, one-sided ends included."""
    curve = _trefoil_samples()
    ts = np.linspace(*curve.domain, 29)
    idx, _ = curve._stencil(ts, order)
    fact = np.array([math.factorial(k) for k in range(order + 1)], dtype=float)
    want = []
    for t, i in zip(ts, idx):
        w = _fornberg_reference(float(t), [float(v) for v in curve.params[i]], order)
        want.append((np.asarray(w) @ curve.points[i]) / fact[:, None])
    want = np.stack(want, axis=-1)
    assert_same_bits_array(curve.jet(ts, order).coeffs, want)
    for k in (0, 14, 28):
        assert_same_bits_array(curve.jet(float(ts[k]), order).coeffs, want[..., k])


# singular indices of the one-point-at-a-time evaluation on this grid:
# speed below its floor at 0 and 1e-10 on the cusp, curvature below its
# floor there on the inflection; -1e-9 still clears the speed floor
CUSP_TS = np.array([-0.5, -1e-3, -1e-5, -1e-9, 0.0, 1e-10, 1e-6, 2e-5, 0.25, 0.7])


@pytest.mark.parametrize(
    "texts, singular",
    [
        (("t^2", "t^3", "t^4"), [4, 5]),
        (("t", "t^3", "t^5"), [4, 5]),
        (("t", "t^2", "t^4"), []),
    ],
)
def test_grid_masks_the_singular_points(texts, singular):
    curve = AnalyticCurve(*texts, (-1.0, 1.0))
    grid = frenet_grid(curve, CUSP_TS)
    assert [i for i, fd in enumerate(grid) if fd is None] == singular
    for i, t in enumerate(CUSP_TS):
        if i in singular:
            with pytest.raises(SingularPointError):
                frenet_apparatus(curve, t)
        else:
            assert_same_bits(grid[i], frenet_apparatus(curve, t))


@pytest.mark.parametrize("where", [0, 3, 6])
def test_domain_error_in_any_column_raises(where):
    ts = np.linspace(1.0, 2.0, 7)
    ts[where] = math.pi / 2
    with pytest.raises(DomainError, match="tan pole"):
        frenet_grid(AnalyticCurve("tan(t)", "t", "t^2", (0.0, 3.0)), ts)
    ts = np.linspace(0.5, 0.9, 7)
    ts[where] = -0.25
    with pytest.raises(DomainError):
        frenet_grid(AnalyticCurve("log(t)", "t", "t^2", (-1.0, 1.0)), ts)
    with pytest.raises(DomainError):
        frenet_apparatus(AnalyticCurve("log(t)", "t", "t^2", (-1.0, 1.0)), -0.25)


# every analytic curve of this file and of the benchmark's Frenet tables,
# the preset seeds, and a mix of the plain-constant rules: a non-integer
# and a negative integer power, a constant component, products of two
# constants, a division by a constant, and -0.0 both made a function of t
# and scaling one, so that z is a signed zero
ANALYTIC = {
    # the trefoil of CURVES is the benchmark's trefoil family
    "tan-sqrt-negative-power": CURVES["tan-sqrt-negative-power"],
    **{
        name: (lambda texts=texts, domain=domain: AnalyticCurve(*texts, domain))
        for name, (texts, domain) in FAMILY_TEXTS.items()
    },
    **{
        name: (lambda name=name: sphere_preset(name))
        for name in ("wobble", "tilt", "bean", "smallcircle", "greatcircle")
    },
    "constant-rules": lambda: AnalyticCurve(
        "t^1.5 + (2 + t)^-2", "0", "-0.0*2 + 2*3*t/7*-0.0", (0.25, 2.0)
    ),
}


def constant_terms(curve, t, order):
    return np.array([j.coeffs[0] for j in curve.jet(t, order)])


def stacked_points(curve, ts):
    """The points at each float of ``ts``, as columns."""
    return np.stack([curve.point(float(t)) for t in ts], axis=1)


def assert_same_bits_array(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_point_is_the_constant_term_of_the_jet(name):
    """``point`` at a float runs the program's value function and gives
    the bits of the jets' constant terms, signed zeros too; on a grid,
    both domain ends included, ``point`` is the order-0 jet, and it has
    the bits of the stacked points at each float."""
    curve = ANALYTIC[name]()
    lo, hi = curve.domain
    ts = np.linspace(lo, hi, 29)
    stacked = stacked_points(curve, ts)
    assert_same_bits_array(curve.point(ts), stacked)
    for order in (0, 6):
        assert_same_bits_array(stacked, constant_terms(curve, ts, order))
        for t in ts:
            assert_same_bits_array(curve.point(t), constant_terms(curve, t, order))


@pytest.mark.parametrize(
    "texts, domain, bad_t, error, message",
    [
        (("tan(t)", "t", "t^2"), (0.0, 3.0), math.pi / 2, DomainError, "tan pole near t=1.57"),
        (("t", "log(t)", "1"), (-1.0, 1.0), -0.25, DomainError, "log of non-positive"),
        (("t", "sqrt(t - 0.5)", "1"), (-1.0, 1.0), 0.25, DomainError, "sqrt of non-positive"),
        (("t", "t^2", "t^1.5"), (-1.0, 1.0), 0.0, DomainError, "non-integer power"),
        (("t", "1/(t - 0.5)", "1"), (-1.0, 1.0), 0.5, DomainError, "function vanishing"),
        (("t", "(t - 0.5)^-3", "1"), (-1.0, 1.0), 0.5, DomainError, "function vanishing"),
        (("t", "t/0", "1"), (-1.0, 1.0), 0.25, DomainError, "division by zero"),
        # two constants: the left one becomes a function of t first
        (("t", "1", "1/(2 - 2)"), (-1.0, 1.0), 0.25, DomainError, "function vanishing"),
        (("t", "exp(900*t)", "1"), (-1.0, 1.0), 0.9, DomainError, "non-finite"),
        (("t", "t^2", "t^3"), (-1.0, 1.0), 1.5, OutOfDomainError, "t=1.5 outside"),
        (("t", "t^2", "t^3"), (-1.0, 1.0), math.nan, OutOfDomainError, "t=nan outside"),
        # log of an exp that overflows (for t < 0 the exp underflows to 0 instead)
        (("t", "log(exp(1000*t))", "1"), (0.0, 1.0), 0.9, DomainError, "non-finite"),
    ],
)
def test_point_raises_where_the_jet_raises(texts, domain, bad_t, error, message):
    """``point`` at a float raises the exception class and message of
    ``jet(t, 0)``.  On a grid, where ``point`` is the order-0 jet and the
    message names the first bad column, it raises what the stacked points
    at each float raise: the error of the first column that has one."""
    curve = AnalyticCurve(*texts, domain)
    ts = np.linspace(domain[0] + 0.1, domain[1] - 0.1, 7)
    grid = np.concatenate((ts[:3], [bad_t], ts[3:], [bad_t]))
    with np.errstate(over="ignore"):
        with pytest.raises(error, match=message) as want:
            curve.jet(bad_t, 0)
        with pytest.raises(error) as want_grid:
            stacked_points(curve, grid)
        for at, expected in ((bad_t, want), (grid, want_grid)):
            with pytest.raises(error) as got:
                curve.point(at)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "texts, domain",
    [
        (("t", "exp(900*t)", "1"), (-1.0, 1.0)),
        (("t", "log(exp(1000*t))", "1"), (0.0, 1.0)),
    ],
)
def test_overflowed_jet_raises_at_every_order(texts, domain, order):
    """An overflowed exp, or the log of one, gives the point's
    ``DomainError`` at every jet order, before the recurrences of exp
    and log would multiply 0 by inf or divide inf by inf (which would
    warn, and RuntimeWarnings fail the tests)."""
    curve = AnalyticCurve(*texts, domain)
    ts = np.linspace(domain[0] + 0.1, domain[1] - 0.1, 7)
    for t in (0.9, np.concatenate((ts[:3], [0.9], ts[3:]))):
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="non-finite") as want:
                curve.point(t)
            with pytest.raises(DomainError) as got:
                curve.jet(t, order)
        assert str(got.value) == str(want.value)


def test_point_builds_no_jet(monkeypatch):
    """A point at a float costs no jet: no ``Jet`` is constructed and no
    ``evaluate_jets`` call is made.  (A grid's points are its order-0
    jet.)"""
    calls = Counter()
    real_init = jets.Jet.__init__
    real_evaluate = jets.evaluate_jets

    def counting_init(self, *args):
        calls["Jet"] += 1
        real_init(self, *args)

    def counting_evaluate(*args, **kwargs):
        calls["evaluate_jets"] += 1
        return real_evaluate(*args, **kwargs)

    curve = sphere_preset("wobble")
    monkeypatch.setattr(jets.Jet, "__init__", counting_init)
    monkeypatch.setattr(jets, "evaluate_jets", counting_evaluate)
    curve.point(0.3)
    assert calls == Counter()
    curve.jet(0.3, 0)
    assert calls["Jet"] > 0


def assert_same_evidence(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert_same_evidence(a[key], b[key])
        else:
            assert_same_bits_array(a[key], b[key])


def _image_alone(curve, k, ts):
    """The image of frame vector k (0: T, 1: N, 2: B) of a curve on its
    own: a JetBackedCurve whose jet is that vector's jet from ``_frames``
    of the curve's jet two orders higher, sampled at ``ts``."""

    def jet_fn(t, order):
        return _frames(curve.jet(t, order + 2))[k + 1].truncate(order)

    return JetBackedCurve(jet_fn, ts, jet_fn(ts, 0).coeffs[0].T, label=AXES[k])


def _side(preset, side):
    base = _generated(preset)
    return base if side == "base" else construct_mate(base, 1.0, n=64)


IMAGE_CURVES = {
    **{f"{preset}-{side}": (lambda preset=preset, side=side: _side(preset, side))
       for preset in ("wobble", "bean", "slant") for side in ("base", "mate")},
    "trefoil": CURVES["trefoil"],
    "sampled-trefoil": _trefoil_samples,
}


@pytest.mark.parametrize("name", sorted(IMAGE_CURVES))
def test_image_rows_are_each_image_alone(name):
    """``image_rows`` stacks the T, N and B images' columns in that order,
    and each image's share has the bits of ``_frenet_columns`` of that
    image alone: its mask, its rows field by field and its errors."""
    curve = IMAGE_CURVES[name]()
    lo, hi = curve.domain
    ts = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 29)
    rows, regular, errors = image_rows(curve, ts)
    start, want_errors = 0, []
    for k in range(len(AXES)):
        want, want_regular, axis_errors = _frenet_columns(_image_alone(curve, k, ts), ts)
        assert np.array_equal(regular[k * len(ts):(k + 1) * len(ts)], want_regular)
        got = _take_rows(rows, slice(start, start + len(want.t)))
        for field in FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            if a.dtype == bool:
                assert np.array_equal(a, b), field
            else:
                assert_same_bits_array(a, b)
        start += len(want.t)
        want_errors += [str(e) for e in axis_errors]
    assert start == len(rows.t)
    assert [str(e) for e in errors] == want_errors


def test_image_rows_mark_one_untestable_axis():
    """A planar curve's binormal is constant, so its binormal image and
    that of its normal offset are single points: that axis alone is
    untestable, and the tangent and normal axes, groups of one grouped
    ``_classify_rows`` call, get the verdict and the evidence of a
    one-group call on their own images' rows."""
    base = AnalyticCurve("2*cos(t)", "sin(t)", "0", (0.0, 3.0))
    mate = construct_mate(base, 0.2, n=64)
    ts = np.linspace(0.1, 2.9, 24)
    got = _classify_image_rows(_image_frames([curve.jet(ts, 6) for curve in (base, mate)]), ts)
    assert list(got) == list(AXES)
    assert not image_rows(base, ts)[1][2 * len(ts):].any()
    assert got["binormal"].verdict == "untestable"
    for k, axis in enumerate(AXES[:2]):
        (rows_a, ok_a, _), (rows_b, ok_b, _) = (
            _frenet_columns(_image_alone(curve, k, ts), ts) for curve in (base, mate))
        (alone,) = _classify_rows(_pose(rows_a), ok_a, _pose(rows_b), ok_b, [ok_a & ok_b], 1e-6)
        assert got[axis].verdict == alone.verdict != "untestable"
        assert_same_evidence(got[axis].evidence, alone.evidence)


@pytest.mark.parametrize("preset", ["wobble", "slant"])
def test_grouped_classification_has_the_bits_of_one_group_calls(preset):
    """``_classify_rows`` gives each column group the verdict and evidence
    of a call with that group alone, bit for bit, whatever the other
    groups hold (disjoint, overlapping, the whole grid); a group of fewer
    than 16 columns is untestable with no evidence, and the same columns
    give the same result in either group order."""
    pair = generated_pair(preset, n=64, grid=48)
    rows_a, rows_b = _pose(pair.base_rows), _pose(pair.mate_rows)
    ok = ~pair.masked[~pair.masked]
    # halves, every other column, all of them, one overlapping the others
    # and one of fewer than 16 columns
    cols = np.arange(len(ok))
    groups = [cols < len(ok) // 2, cols >= len(ok) // 2, cols % 2 == 0, cols >= 0,
              (cols > 3) & (cols < len(ok) - 2), cols < 10]
    got = _classify_rows(rows_a, ok, rows_b, ok, groups, 1e-6)
    assert len(got) == len(groups)
    for group, result in zip(groups, got):
        (alone,) = _classify_rows(rows_a, ok, rows_b, ok, [group], 1e-6)
        assert result.verdict == alone.verdict
        assert_same_evidence(result.evidence, alone.evidence)
    assert got[-1].verdict == "untestable" and got[-1].evidence == {}
    assert got[3].verdict == "bertrand"
    backwards = _classify_rows(rows_a, ok, rows_b, ok, groups[::-1], 1e-6)[::-1]
    assert repr(backwards) == repr(got)


def _axis_rows(curve, ts):
    """Each axis's point, T, N and B rows (``_pose``) and regular mask
    from the curve's own ``image_rows`` at ``ts``."""
    rows, regular, _ = image_rows(curve, ts)
    out, start = [], 0
    for k in range(len(AXES)):
        ok = regular[k * len(ts):(k + 1) * len(ts)]
        count = np.count_nonzero(ok)
        out.append((tuple(v[start:start + count] for v in _pose(rows)), ok))
        start += count
    return out


def _mate_of_a_mate(tmp_path):
    """A wobble mate beside its own mate, by 1.0 (-epsilon lambda, which
    leads back to the base): the mate records no base block."""
    mate = construct_mate(_generated("wobble"), 1.0, n=64)
    return detect_bertrand(mate, construct_mate(mate, 1.0, n=64), n=24)


def _through_files(tmp_path, base, mate, strip=()):
    """``base`` and ``mate`` saved to files and loaded as the CLI loads a
    pair, with the metadata of the files named in ``strip`` removed."""
    paths = []
    for name, curve in (("base", base), ("mate", mate)):
        path = tmp_path / f"{name}.json"
        save_curve(curve, str(path))
        if name in strip:
            doc = json.loads(path.read_text())
            del doc["metadata"]
            path.write_text(json.dumps(doc))
        paths.append(str(path))
    return read_inputs(*paths)[0]


def _stripped_files(tmp_path):
    """A wobble pair through files without their metadata, loaded as
    samples and detected as ``indicatrix`` detects."""
    base = _generated("wobble")
    curves_ = _through_files(tmp_path, base, construct_mate(base, 1.0, n=64),
                             strip=("base", "mate"))
    return _detect_from_files(*curves_, 24, images=True)


def _own_axis_poses(curve, ts, order):
    """Each axis's point, T, N and B rows and regular mask from the pose
    of that image alone, whose position jet is the frame jet of
    ``_frames`` of the curve's own request for ``order`` at ``ts``."""
    return [curves._pose_columns(v, ts)[:2] for v in _frames(curve.jet(ts, order))[1:]]


@pytest.mark.parametrize("build", [_mate_of_a_mate, _stripped_files])
def test_suite_images_of_a_separate_pair_are_each_curves_own(build, tmp_path):
    """A pair that detection did not build from one run of its base holds
    six read-only image jets of order 2, from each curve's own order-4
    request, or of order 4 with ``images`` (``_stripped_files``), from
    each curve's own order-6 request.  Each axis's negative-result
    verdict, and its evidence, are those of ``_classify_rows`` over the
    poses of each image alone from the frame of its curve's own request,
    and with ``images`` over each curve's own ``image_rows``."""
    pair = build(tmp_path)
    order = pair._images[0].order
    held = [(jet.order, jet.coeffs.flags.writeable) for jet in pair._images]
    assert held == [(order, False)] * 6
    note = theorem_suite(pair).entries["negative-result"].note
    ts = pair.ts[~pair.masked]
    got = _classify_image_rows(pair._images, ts)
    references = [(_own_axis_poses(pair.base, ts, order + 2),
                   _own_axis_poses(pair.mate, ts, order + 2))]
    if order == 4:
        references.append((_axis_rows(pair.base, ts), _axis_rows(pair.mate, ts)))
    for axis_a, axis_b in references:
        verdicts = []
        for axis, (rows_a, ok_a), (rows_b, ok_b) in zip(AXES, axis_a, axis_b):
            (want,) = _classify_rows(rows_a, ok_a, rows_b, ok_b, [ok_a & ok_b], 1e-6)
            assert got[axis].verdict == want.verdict
            assert_same_evidence(got[axis].evidence, want.evidence)
            verdicts.append(want.verdict)
        assert note == f"verdicts={verdicts}"


def _pose_reference(P, ts):
    """The point, T, N and B rows, regular mask and error messages of the
    position jet P, one column at a time, from jet operations on P's own
    order: the floors and frame as ``_columns`` took them from the jets of
    g', |g'|, g' x g'' and |g' x g''| before the pose stage."""
    rows, regular, errors = [], [], []
    for i, t in enumerate(ts):
        D1 = P.column(i).deriv()
        v2 = jets.jdot(D1, D1).coeffs[0]
        if not (np.isfinite(v2) and v2 >= curves.EPS_REG * curves.EPS_REG):
            regular.append(False)
            errors.append(f"speed below regularity floor at t={t}")
            continue
        v = jets.jsqrt(jets.jdot(D1, D1)).coeffs[0]
        C = jets.jcross(D1, D1.deriv())
        c2 = jets.jdot(C, C).coeffs[0]
        if c2 < (curves.EPS_REG * v * v) ** 2 or np.sqrt(c2) / (v * v * v) <= curves.EPS_REG:
            regular.append(False)
            errors.append(f"curvature below regularity floor at t={t}")
            continue
        T = D1.coeffs[0] / v
        B = C.coeffs[0] / jets.jsqrt(jets.jdot(C, C)).coeffs[0]
        rows.append((P.coeffs[0][:, i], T, jets._cross_rows(B[None], T[None])[0], B))
        regular.append(True)
    return tuple(np.array(v).reshape(-1, 3) for v in zip(*rows)), np.array(regular), errors


def _stack(jets_, ts, order):
    """The jets about ``ts``, cut to ``order``, as one jet of their columns."""
    return jets.Jet(np.tile(ts, len(jets_)),
                    np.concatenate([j.truncate(order).coeffs for j in jets_], axis=-1))


def _preset_images(preset, omega):
    """The six image jets of a generated pair (n = 64, grid 24), as
    detection holds them by default (order 2) and with ``images``
    (order 4), and the grid they are about."""
    base = generate_bertrand_curve(sphere_preset(preset), a=1.0, omega=omega, n=64)
    mate = construct_mate(base, base.metadata["nominal_lambda"], n=64)
    poses, full = (detect_bertrand(base, mate, n=24, images=images)
                   for images in (False, True))
    return poses._images, full._images, full.ts[~full.masked]


def _sampled_images(tmp_path):
    """The six order-4 image jets that detection holds with ``images`` on
    a pair loaded as samples, twice."""
    pair = _stripped_files(tmp_path)
    return pair._images, pair._images, pair.ts[~pair.masked]


def _planted_images(tmp_path):
    """The order-4 jet of a trefoil at 12 points, with a zero-speed column
    (every coefficient past the point 0), a straight one (g'' and above
    0) and a non-finite one."""
    ts = np.linspace(0.2, 5.8, 12)
    P = AnalyticCurve(*TREFOIL, (0.0, 6.0)).jet(ts, 4)
    c = P.coeffs.copy()
    c[1:, :, 3] = 0.0
    c[2:, :, 7] = 0.0
    c[1, 0, 9] = math.nan
    P = jets.Jet(ts, c)
    return (P,), (P,), ts


POSE_CASES = {
    **{f"{preset}-{omega}": (lambda tmp_path, preset=preset, omega=omega:
                             _preset_images(preset, omega))
       for preset, plus in EPS_PLUS_ONE_OMEGA.items()
       for omega in (DEFAULT_OMEGA[preset], plus)},
    "sampled": _sampled_images,
    "planted": _planted_images,
}


@pytest.mark.parametrize("name", list(POSE_CASES))
def test_pose_stage_has_the_bits_of_the_frenet_pass(name, tmp_path):
    """The pose stage (``curves._pose_columns``) over the stacked image
    jets that detection holds, cut to order 2, gives the point, T, N and
    B rows of ``_columns`` over the order-4 image jets (``_pose``), bit
    for bit, with its regular mask and errors; so does a column-by-column
    jet reference.  On the four presets at their default angles and at an
    angle with epsilon = +1, on a pair loaded as samples, and on planted
    singular columns, where both floors fire."""
    poses, full, ts = POSE_CASES[name](tmp_path)
    P2, P4 = _stack(poses, ts, 2), _stack(full, ts, 4)
    assert P2.order == 2 and P4.order == 4
    ts_all = P4.basepoint
    rows, want_regular, want_errors, _ = curves._columns(P4, ts_all)
    ref_pose, ref_regular, ref_errors = _pose_reference(P4, ts_all)
    for P in (P2, P4):
        pose, regular, errors = curves._pose_columns(P, ts_all)
        for want in (_pose(rows), ref_pose):
            assert len(pose) == len(want) == 4
            for got_rows, want_rows in zip(pose, want):
                assert_same_bits_array(got_rows, want_rows)
        assert np.array_equal(regular, want_regular)
        assert np.array_equal(regular, ref_regular)
        assert [str(e) for e in errors] == [str(e) for e in want_errors] == ref_errors
    if name == "planted":
        assert [e.split()[0] for e in ref_errors] == ["speed", "curvature", "speed"]
    else:
        assert regular.all()
