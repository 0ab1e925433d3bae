"""Space curves and their Frenet apparatus.

Three curve representations share one interface:

* ``AnalyticCurve`` -- three parsed component expressions of ``t``;
  derivatives are exact via jet propagation.
* ``SampledCurve``  -- parameter/point tables; derivatives via Fornberg
  finite-difference stencils (7 points minimum, one-sided at the ends).
* ``JetBackedCurve`` -- a callable jet provider plus a dense sample table;
  used for curves defined through quadrature (offsets, generators) where
  exact derivatives are still available.

All Frenet quantities are computed from general-parameter formulas with
explicit chain-rule conversion to arc-length derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, interpolate

from . import expr as ex
from .errors import (
    DomainError,
    NonConvergentError,
    OutOfDomainError,
    SingularPointError,
    TooFewSamplesError,
)
from .jets import Jet, _first, evaluate_jets, jsqrt

EPS_REG = 1e-9
DEFAULT_FRENET_ORDER = 6


# ---------------------------------------------------------------------------
# curve representations


class Curve:
    """Common interface: a labelled map t -> R^3 on a closed interval.

    ``jet``, ``point``, ``velocity`` and ``speed`` take a float, or a 1-D
    array of parameter values to get every point from one request: jets
    then carry one coefficient column per value, points and velocities
    come as (3, N) and speeds as (N,).
    """

    label: str

    @property
    def domain(self):
        raise NotImplementedError

    def jet(self, t, order):
        """Component-wise jets (x, y, z) at ``t``."""
        raise NotImplementedError

    def _check_domain(self, t):
        lo, hi = self.domain
        ts = np.asarray(t)
        inside = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
        if not inside.all():
            raise OutOfDomainError(
                f"t={_first(~inside, t)} outside [{lo}, {hi}] of curve {self.label!r}"
            )

    def point(self, t):
        xj, yj, zj = self.jet(t, 0)
        return np.array([xj.coeffs[0], yj.coeffs[0], zj.coeffs[0]])

    def velocity(self, t):
        xj, yj, zj = self.jet(t, 1)
        return np.array([xj.coeffs[1], yj.coeffs[1], zj.coeffs[1]])

    def speed(self, t):
        return np.linalg.norm(self.velocity(t), axis=0)


def _per_point(jet_fn, t, order):
    """``jet_fn(ts, order)``, which takes a 1-D array, at ``t``; a float t
    gets jets about that one basepoint."""
    if np.ndim(t):
        return jet_fn(np.asarray(t, dtype=float), order)
    return tuple(j.column(0) for j in jet_fn(np.array([t], dtype=float), order))


class AnalyticCurve(Curve):
    """Curve of three expressions of ``t``, given as text or parsed ASTs.

    The components are interned through one table (``expr.intern``), so
    a subexpression they share, such as the normaliser of a seed
    ``(x, y, z)/sqrt(x^2 + y^2 + z^2)``, is one node, and ``jet``
    evaluates it once per call with one ``evaluate_jets``, for one
    parameter value or a whole grid.
    """

    def __init__(self, x, y, z, domain, label=""):
        table = {}
        x, y, z = (
            ex.intern(ex.parse_expression(c) if isinstance(c, str) else c, table)
            for c in (x, y, z)
        )
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ValueError("domain must satisfy t_lo < t_hi")
        self.x, self.y, self.z = x, y, z
        self._domain = (lo, hi)
        self.label = label

    @property
    def domain(self):
        return self._domain

    def jet(self, t, order):
        self._check_domain(t)
        return evaluate_jets((self.x, self.y, self.z), t, order, max_order=max(order, 8))


def fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at z on nodes x.

    For one point (z a number, x of shape (n,)) returns an array of shape
    (m+1, n); row k gives the weights of the k-th derivative.  For N
    points (z of shape (N,), x of shape (N, n)) returns (N, m+1, n), each
    point through the same operations as alone.  Fornberg's recursive
    algorithm.
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    c = np.zeros(z.shape + (m + 1, n))
    c1 = 1.0
    c4 = x[..., 0] - z
    c[..., 0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., k, i] = c1 * (k * c[..., k - 1, i - 1] - c5 * c[..., k, i - 1]) / c2
                c[..., 0, i] = -c1 * c5 * c[..., 0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[..., k, j] = (c4 * c[..., k, j] - k * c[..., k - 1, j]) / c3
            c[..., 0, j] = c4 * c[..., 0, j] / c3
        c1 = c2
    return c


class SampledCurve(Curve):
    MIN_SAMPLES = 7

    def __init__(self, params, points, label=""):
        params = np.asarray(params, dtype=float)
        points = np.asarray(points, dtype=float)
        if params.ndim != 1 or points.shape != (len(params), 3):
            raise ValueError("params must be (n,), points (n, 3)")
        if len(params) < self.MIN_SAMPLES:
            raise TooFewSamplesError(
                f"need at least {self.MIN_SAMPLES} samples, got {len(params)}"
            )
        if np.any(np.diff(params) <= 0):
            raise ValueError("params must be strictly increasing")
        self.params = params
        self.points = points
        self.label = label

    @property
    def domain(self):
        return (float(self.params[0]), float(self.params[-1]))

    def jet(self, t, order):
        self._check_domain(t)
        return _per_point(self._stencil_jets, t, order)

    def _stencil_jets(self, ts, order):
        # each point's stencil: `width` consecutive samples around it
        n = len(self.params)
        width = min(max(self.MIN_SAMPLES, order + 3), n)
        i = np.searchsorted(self.params, ts)
        lo = np.maximum(0, np.minimum(i - width // 2, n - width))
        idx = lo[:, None] + np.arange(width)
        w = fornberg_weights(ts, self.params[idx], order)
        derivs = np.matmul(w, self.points[idx])  # (N, order+1, 3)
        fact = np.array([math.factorial(k) for k in range(order + 1)], dtype=float)
        coeffs = derivs / fact[:, None]
        return tuple(Jet(ts, coeffs[:, :, comp].T) for comp in range(3))


class JetBackedCurve(Curve):
    """Curve defined by an exact jet provider with a dense sample table.

    ``jet_fn(ts, order)`` takes a 1-D array of parameter values and
    returns (x, y, z) jets with one coefficient column per value.
    """

    def __init__(self, jet_fn, params, points, label="", metadata=None):
        self._jet_fn = jet_fn
        self.params = np.asarray(params, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.label = label
        self.metadata = dict(metadata or {})

    @property
    def domain(self):
        return (float(self.params[0]), float(self.params[-1]))

    def jet(self, t, order):
        self._check_domain(t)
        return _per_point(self._jet_fn, t, order)


# ---------------------------------------------------------------------------
# Frenet apparatus


@dataclass(frozen=True)
class FrenetData:
    t: float
    speed: float
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    dkappa_ds: float
    dtau_ds: float
    d2kappa_ds2: float


def _cross_jets(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot_jets(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _take(jets, idx):
    return tuple(j.take(idx) for j in jets)


def _frenet_columns(curve, ts, order=DEFAULT_FRENET_ORDER, eps_reg=EPS_REG):
    """Frenet data at every t of ``ts`` from one jet request of the curve.

    A singular t gets, in place of its data, the SingularPointError that
    ``frenet_apparatus`` raises there.  The regularity floors are applied
    column by column, and a flagged column leaves the batch before any
    denominator could vanish in it.

    kappa = |g' x g''| / |g'|^3 and tau = <g' x g'', g'''> / |g' x g''|^2
    are evaluated in jet arithmetic so that their parameter derivatives
    come out alongside the values; arc-length derivatives follow by the
    chain rule.
    """
    ts = np.asarray(ts, dtype=float)
    out = [None] * len(ts)
    if not len(ts):
        return out
    D1 = tuple(p.deriv() for p in curve.jet(ts, order))
    v2 = _dot_jets(D1, D1)
    slow = ~(np.isfinite(v2.coeffs[0]) & (v2.coeffs[0] >= eps_reg * eps_reg))
    for i in np.flatnonzero(slow):
        out[i] = SingularPointError(f"speed below regularity floor at t={ts[i]}")
    keep = np.flatnonzero(~slow)
    D1, v2 = _take(D1, keep), v2.take(keep)
    speed_jet = jsqrt(v2)
    C = _cross_jets(D1, tuple(d.deriv() for d in D1))
    c2 = _dot_jets(C, C)
    v = speed_jet.coeffs[0]
    flat = c2.coeffs[0] < (eps_reg * v * v) ** 2
    for i in keep[flat]:
        out[i] = SingularPointError(f"curvature below regularity floor at t={ts[i]}")
    sub = np.flatnonzero(~flat)
    keep = keep[sub]
    D1, C = _take(D1, sub), _take(C, sub)
    c2, speed_jet = c2.take(sub), speed_jet.take(sub)
    D3 = tuple(d.deriv().deriv() for d in D1)
    cnorm = jsqrt(c2)
    kappa_jet = cnorm / (speed_jet * speed_jet * speed_jet)
    tau_jet = _dot_jets(C, D3) / c2

    v = speed_jet.coeffs[0]
    kdot = kappa_jet.coeffs[1]
    kddot = 2.0 * kappa_jet.coeffs[2]
    vdot = speed_jet.coeffs[1]
    d2kappa = (kddot * v - kdot * vdot) / v**3
    dkappa = kdot / v
    dtau = tau_jet.coeffs[1] / v
    T = np.ascontiguousarray((np.array([d.coeffs[0] for d in D1]) / v).T)
    B = np.ascontiguousarray((np.array([c.coeffs[0] for c in C]) / cnorm.coeffs[0]).T)
    N = np.cross(B, T)
    for j, i in enumerate(keep):
        out[i] = FrenetData(
            t=float(ts[i]),
            speed=float(v[j]),
            T=T[j],
            N=N[j],
            B=B[j],
            kappa=float(kappa_jet.coeffs[0, j]),
            tau=float(tau_jet.coeffs[0, j]),
            dkappa_ds=float(dkappa[j]),
            dtau_ds=float(dtau[j]),
            d2kappa_ds2=float(d2kappa[j]),
        )
    return out


def frenet_apparatus(curve, t, order=DEFAULT_FRENET_ORDER, eps_reg=EPS_REG):
    """Frame, curvature, torsion and their arc-length derivatives at t:
    the one-point case of ``_frenet_columns``.  Raises SingularPointError
    at a singular point."""
    fd = _frenet_columns(curve, np.array([t], dtype=float), order=order, eps_reg=eps_reg)[0]
    if isinstance(fd, SingularPointError):
        raise fd
    return fd


def frenet_grid(curve, ts, order=DEFAULT_FRENET_ORDER, eps_reg=EPS_REG):
    """Frenet data over a grid from one jet request of the curve; singular
    points become None entries."""
    return [
        None if isinstance(fd, SingularPointError) else fd
        for fd in _frenet_columns(curve, ts, order=order, eps_reg=eps_reg)
    ]


def slant_geodesic_indicator(fd: FrenetData) -> float:
    """Geodesic-curvature function of the principal-normal image.

    kappa^2/(kappa^2+tau^2)^{3/2} * d(tau/kappa)/ds, expanded so that no
    intermediate quotient by kappa^2 is formed twice.
    """
    k, tau = fd.kappa, fd.tau
    if k <= EPS_REG:
        raise SingularPointError(f"kappa={k} at t={fd.t}")
    num = fd.dtau_ds * k - tau * fd.dkappa_ds
    return float(num / (k * k + tau * tau) ** 1.5)


# ---------------------------------------------------------------------------
# arc length


def cumulative_trapezoid(x, y):
    """Cumulative trapezoid-rule integral of y over the nodes x, from 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))


def arc_length(curve, t0, t1, tol=1e-10):
    """Integral of the speed over [t0, t1] by adaptive quadrature."""
    lo, hi = curve.domain
    if not (lo - 1e-12 <= t0 <= hi + 1e-12 and lo - 1e-12 <= t1 <= hi + 1e-12):
        raise OutOfDomainError(f"[{t0}, {t1}] outside curve domain [{lo}, {hi}]")
    val, err = integrate.quad(curve.speed, t0, t1, epsabs=tol, epsrel=1e-12, limit=200)
    if err > max(tol * 10.0, abs(val) * 1e-8):
        raise NonConvergentError(f"arc length error estimate {err} above tolerance")
    return float(val)


@dataclass
class ArcLengthTable:
    """Monotone (t, s) table invertible in both directions."""

    t: np.ndarray
    s: np.ndarray
    _fwd: interpolate.PchipInterpolator = field(repr=False, default=None)
    _inv: interpolate.PchipInterpolator = field(repr=False, default=None)

    def __post_init__(self):
        if np.any(np.diff(self.s) <= 0):
            raise NonConvergentError("arc-length column not strictly increasing")
        self._fwd = interpolate.PchipInterpolator(self.t, self.s)
        self._inv = interpolate.PchipInterpolator(self.s, self.t)

    def forward(self, t):
        return self._fwd(t)

    def inverse(self, s):
        return self._inv(s)

    @property
    def total(self):
        return float(self.s[-1])


def build_arclength_table(curve, n, tol=1e-10):
    """Cumulative arc length at n+1 uniform parameter nodes."""
    if n < 16:
        raise ValueError("n must be >= 16")
    lo, hi = curve.domain
    ts = np.linspace(lo, hi, n + 1)
    segs = np.empty(n)
    for i in range(n):
        segs[i] = arc_length(curve, ts[i], ts[i + 1], tol=tol)
    s = np.concatenate(([0.0], np.cumsum(segs)))
    return ArcLengthTable(t=ts, s=s)
