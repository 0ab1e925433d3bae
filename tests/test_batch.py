"""Batched grids: a point's Frenet data does not depend on its batch.

Every curve answers ``jet`` for a whole array of parameter values at
once, and ``frenet_grid`` evaluates a grid from one request.  Each column
goes through the same floating-point operations whatever the others
hold, so a point evaluated alone, in a grid or in any shuffled subset of
it gives the same bits.
"""

import math

import numpy as np
import pytest

from bertrand_kit.bertrand import (
    DEFAULT_OMEGA,
    construct_mate,
    generate_bertrand_curve,
    sphere_preset,
)
from bertrand_kit.curves import (
    AnalyticCurve,
    SampledCurve,
    fornberg_weights,
    frenet_apparatus,
    frenet_grid,
)
from bertrand_kit.errors import DomainError, SingularPointError

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
    "wobble-mate": lambda: construct_mate(_generated("wobble"), 1.0, n=64),
    "sampled-trefoil": _trefoil_samples,
}

FIELDS = ("t", "speed", "T", "N", "B", "kappa", "tau", "dkappa_ds", "dtau_ds", "d2kappa_ds2")


def assert_same_bits(a, b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, (40, 9)), axis=1)
    z = x[:, 4] + rng.uniform(-0.05, 0.05, 40)
    for m in (0, 3, 6):
        batch = fornberg_weights(z, x, m)
        for i in range(len(z)):
            ref = _fornberg_reference(float(z[i]), [float(v) for v in x[i]], m)
            assert np.array_equal(batch[i], ref)
            assert np.array_equal(fornberg_weights(z[i], x[i], m), ref)


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
