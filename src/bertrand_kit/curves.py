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
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .errors import (
    OutOfDomainError,
    SingularPointError,
    TooFewSamplesError,
)
from .jets import (
    Jet,
    _cross_rows,
    _first,
    compile_program,
    jcross,
    jdot,
    jsqrt,
    jstack,
    program_jets,
    program_values,
)

EPS_REG = 1e-9
EPS_G = 1e-10
# The fewest grid rows a classification or a closed-form check reads.
MIN_CLASSIFY_SAMPLES = 16
# How far outside its domain a curve still takes a parameter value.
_DOMAIN_SLACK = 1e-12
# The jet order the Frenet rows read: kappa'' is kappa_jet.coeffs[2] and
# tau' is tau_jet.coeffs[1], and kappa's jet comes out two orders below
# the position's (|g' x g''|), tau's three (<g' x g'', g'''>).
_FRENET_ORDER = 4


# ---------------------------------------------------------------------------
# curve representations


class Curve:
    """Common interface: a labelled map t -> R^3 on a closed interval.

    ``jet`` and ``point`` take a float, or a 1-D array of parameter values
    to get every point from one request: jets then carry one coefficient
    column per value, and points come as (3, N).  ``jet`` returns one
    vector jet (``jets.Jet`` with coefficients (K+1, 3) or (K+1, 3, N)),
    which unpacks into the x, y and z component jets; ``point`` is its
    order-0 constant term.
    """

    label: str
    # (base, lam) on the mate ``construct_mate`` built on an analytic or
    # generated base, which ``bertrand._pair_columns`` reads
    _offset_of = None

    @property
    def domain(self):
        raise NotImplementedError

    def jet(self, t, order):
        """The vector jet of (x, y, z) at ``t``."""
        raise NotImplementedError

    def _check_domain(self, t):
        lo, hi = self.domain
        if isinstance(t, float) and lo - _DOMAIN_SLACK <= t <= hi + _DOMAIN_SLACK:
            return
        # in float64, as the jets are: a float32 t compared in float32
        # could pass just beyond the slack
        ts = np.asarray(t, dtype=float)
        inside = (ts >= lo - _DOMAIN_SLACK) & (ts <= hi + _DOMAIN_SLACK)
        if not inside.all():
            raise OutOfDomainError(
                f"t={_first(~inside, ts)} outside [{lo}, {hi}] of curve {self.label!r}"
            )

    def point(self, t):
        return self.jet(t, 0).coeffs[0]


def _per_point(jet_fn, t, order):
    """``jet_fn(ts, order)``, which takes a 1-D array, at ``t``; a float t
    gets jets about that one basepoint."""
    if np.ndim(t):
        return jet_fn(np.asarray(t, dtype=float), order)
    return jet_fn(np.array([t], dtype=float), order).column(0)


class AnalyticCurve(Curve):
    """Curve of three expressions of ``t``, given as text or parsed ASTs.

    The curve keeps the trees as given, and they become one straight-line
    program (``expr.program``) that evaluates each distinct subtree once,
    for one parameter value or a whole grid: a subexpression they share,
    such as the normaliser of a seed ``(x, y, z)/sqrt(x^2 + y^2 + z^2)``,
    is one slot.  At the first
    evaluation the curve takes the program's two compiled Python functions
    (``jets.compile_program``, compiled once per distinct program in a
    process): ``jet`` runs the jet function, and ``point`` at a number
    tests the domain inline and runs the straight-line value function,
    which gives the bits and domain errors of the order-0 jet about
    ``float(t)`` as one (3,) array, without building a jet.  A grid's
    points are the constant terms of its order-0 jet, as for any curve.
    """

    def __init__(self, x, y, z, domain, label=""):
        x, y, z = (ex.parse_expression(c) if isinstance(c, str) else c for c in (x, y, z))
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"domain must be finite with t_lo < t_hi, got [{lo}, {hi}]")
        self.x, self.y, self.z = x, y, z
        self._program = ex.program((x, y, z))
        self._domain = (lo, hi)
        self.label = label

    @property
    def domain(self):
        return self._domain

    @cached_property
    def _compiled(self):
        """``self._program`` as a Python function, at the first evaluation."""
        return compile_program(self._program)

    def jet(self, t, order):
        self._check_domain(t)
        return jstack(program_jets(self._compiled, t, order))

    def point(self, t):
        if not isinstance(t, float) and np.ndim(t):
            return super().point(t)
        t = float(t)
        lo, hi = self._domain
        if not lo - _DOMAIN_SLACK <= t <= hi + _DOMAIN_SLACK:
            self._check_domain(t)
        return np.array(program_values(self._compiled, t))


def fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at z on nodes x.

    For one point (z a number, x of shape (n,)) returns an array of shape
    (m+1, n); row k gives the weights of the k-th derivative.  For N
    points (z of shape (N,), x of shape (N, n)) returns (N, m+1, n).
    Fornberg's recursive algorithm, with one array step per node i over
    every (k, j) of the stencil and the points on the last axis: each
    weight goes through the scalar algorithm's operations in its order,
    so every point gets the bits it gets alone.
    """
    z = np.asarray(z, dtype=float)
    # (n,) + z.shape, contiguous: node i's row x[i] is one run of memory
    x = np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
    n = len(x)
    c = np.zeros((m + 1, n) + z.shape)
    ks = np.arange(1.0, m + 1).reshape((m, 1) + (1,) * z.ndim)
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        k = ks[:mn]
        c5 = c4
        c4 = x[i] - z
        c3 = x[i] - x[:i]
        # c3[0] * c3[1] * ... * c3[i-1], multiplied in order of j
        c2 = np.multiply.accumulate(c3)[-1]
        prev = c[:, i - 1]
        c[1 : mn + 1, i] = c1 * (k[:, 0] * prev[:mn] - c5 * prev[1 : mn + 1]) / c2
        c[0, i] = -c1 * c5 * prev[0] / c2
        # the old nodes' rows 1..mn read rows 0..mn-1 before any is written
        old = c[:, :i]
        new = c4 * old[1 : mn + 1]
        new -= k * old[:mn]
        np.divide(new, c3, out=old[1 : mn + 1])
        np.multiply(c4, old[0], out=old[0])
        old[0] /= c3
        c1 = c2
    return np.ascontiguousarray(np.moveaxis(c, (0, 1), (-2, -1)))


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
        if not (np.all(np.isfinite(params)) and np.all(np.isfinite(points))):
            raise ValueError("params and points must be finite")
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
        idx, w = self._stencil(ts, order)
        return Jet(ts, _taylor(w, self.points[idx]))

    def _stencil(self, ts, order):
        """Each t's stencil, ``width`` consecutive samples around it, four
        more than the order needs (9 for the Frenet rows' order 4): the
        sample indices (N, width) and the Fornberg weights of derivatives
        0..order on them (N, order+1, width), which read no point."""
        n = len(self.params)
        width = min(max(self.MIN_SAMPLES, order + 5), n)
        i = np.searchsorted(self.params, ts)
        lo = np.maximum(0, np.minimum(i - width // 2, n - width))
        idx = lo[:, None] + np.arange(width)
        return idx, fornberg_weights(ts, self.params[idx], order)


def _taylor(w, points):
    """Taylor coefficients (K+1, 3, N) from stencil weights w (N, K+1,
    width) and the stencil points (N, width, 3).  Derivatives are divided
    by k! after the contraction, so each column gets the bits it gets
    alone."""
    derivs = np.matmul(w, points)  # (N, K+1, 3)
    fact = np.array([math.factorial(k) for k in range(w.shape[-2])], dtype=float)
    # C-ordered, the column axis last in memory too (``jets.Jet``)
    return np.ascontiguousarray(np.moveaxis(derivs / fact[:, None], (1, 2), (0, 1)))


class JetBackedCurve(Curve):
    """Curve defined by an exact jet provider with a dense sample table.

    ``jet_fn(ts, order)`` takes a 1-D array of parameter values and
    returns the vector jet of (x, y, z), one coefficient column per value.
    With ``points=None`` the table of points at ``params`` is the order-0
    jet's constant terms, computed at its first read.
    """

    def __init__(self, jet_fn, params, points=None, label="", metadata=None):
        self._jet_fn = jet_fn
        self.params = np.asarray(params, dtype=float)
        if points is not None:
            self.points = np.asarray(points, dtype=float)
        self.label = label
        self.metadata = dict(metadata or {})

    @cached_property
    def points(self):
        return self._jet_fn(self.params, 0).coeffs[0].T

    @property
    def domain(self):
        return (float(self.params[0]), float(self.params[-1]))

    def jet(self, t, order):
        self._check_domain(t)
        return _per_point(self._jet_fn, t, order)


# ---------------------------------------------------------------------------
# Frenet apparatus


class FrenetData(NamedTuple):
    """Position, frame, curvature, torsion, their arc-length derivatives
    and the ratio invariants of the curve.

    The package computes on the rows of a grid (``_frenet_columns``):
    (N,) arrays and (N, 3) vectors, one row per regular point.  The views
    that ``frenet_apparatus`` and ``frenet_grid`` return hold one point's
    floats, bools and (3,) vectors.  Rows and views are named tuples, so
    their fields cannot be reassigned.  ``point`` is the curve's position,
    the constant terms of the jets the frame is built from: no second
    request of the curve is needed for it.  ``f = tau/kappa`` and
    ``g = tau'/kappa'`` (arc-length primes) are the paper's ratio
    invariants; ``g`` is NaN where ``|kappa'| < EPS_G`` (a helical arc),
    and ``g_defined`` marks where it is not.  ``Gamma`` is the slant-helix
    indicator, the geodesic curvature of the principal-normal image,
    kappa^2/(kappa^2+tau^2)^{3/2} * d(tau/kappa)/ds.
    """

    t: float
    point: np.ndarray
    speed: float
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    dkappa_ds: float
    dtau_ds: float
    d2kappa_ds2: float
    f: float
    g: float
    g_defined: bool
    Gamma: float


def _take_rows(rows, idx):
    """The rows ``idx`` of a named tuple of row arrays; fields that are
    not arrays are kept."""
    return rows._make(v[idx] if isinstance(v, np.ndarray) else v for v in rows)


def _points_at(rows, idx, n):
    """The one-point views of a named tuple of row arrays, as a list of n
    entries: the view of row j at ``idx[j]``, None elsewhere.  A view
    holds numbers as Python floats and bools and vectors as (3,) arrays,
    rows of the (N, 3) fields.  Views are built by ``tuple.__new__``, as
    ``rows._make`` builds them, with no Python call per view."""
    columns = [v.tolist() if v.ndim == 1 else list(v) for v in rows]
    views = map(tuple.__new__, repeat(type(rows)), zip(*columns))
    out = [None] * n
    for i, view in zip(idx, views):
        out[i] = view
    return out


def _frenet_columns(curve, ts):
    """Frenet data at every regular t of ``ts`` from one jet request of
    the curve: ``(rows, regular, errors)``.  ``rows`` is a FrenetData of
    arrays over ``ts[regular]``, positions and ratio invariants included,
    and ``errors`` holds, in grid order, the SingularPointError that
    ``frenet_apparatus`` raises at each singular t.  The regularity floors
    are applied column by column, and a flagged column leaves the batch
    before any denominator could vanish in it.  A point is singular where
    its speed is below EPS_REG, where |g' x g''| < EPS_REG |g'|^2, or
    where kappa <= EPS_REG: this is the package's one curvature floor, so
    f and Gamma are defined on every row.

    kappa = |g' x g''| / |g'|^3 and tau = <g' x g'', g'''> / |g' x g''|^2
    are evaluated in jet arithmetic so that their parameter derivatives
    come out alongside the values; arc-length derivatives follow by the
    chain rule.
    """
    ts = np.asarray(ts, dtype=float)
    return _columns(curve.jet(ts, _FRENET_ORDER), ts)[:3]


def _columns(P, ts):
    """The ``_frenet_columns`` of the position jet P about ``ts``, and the
    jets of g', |g'|, g' x g'' and |g' x g''| that the pass builds at the
    regular columns: ``(rows, regular, errors, core)``.  g' and g' x g''
    have the orders P gives them, one and two below P's, and |g'| and
    |g' x g''| that of g' x g''; ``_frame`` builds the frame jets from
    ``core``.  The rows read the order-4 truncation of those jets, so a P
    of order 4 or more gives them the bits of its order-4 truncation."""
    D1 = P.deriv()
    # |g'| to the order of g' x g'', the highest any reader of it reaches
    low = D1.truncate(D1.order - 1)
    v2 = jdot(low, low)
    slow = ~(np.isfinite(v2.coeffs[0]) & (v2.coeffs[0] >= EPS_REG * EPS_REG))
    keep = np.flatnonzero(~slow)
    D1, v2 = D1.take(keep), v2.take(keep)
    speed_jet = jsqrt(v2)
    C = jcross(D1, D1.deriv())
    c2 = jdot(C, C)
    v = speed_jet.coeffs[0]
    # the bits of kappa_jet's constant term below
    kappa = np.sqrt(c2.coeffs[0]) / (v * v * v)
    flat = (c2.coeffs[0] < (EPS_REG * v * v) ** 2) | (kappa <= EPS_REG)
    sub = np.flatnonzero(~flat)
    keep = keep[sub]
    D1, C = D1.take(sub), C.take(sub)
    c2, speed_jet = c2.take(sub), speed_jet.take(sub)
    cnorm = jsqrt(c2)
    core = (D1, speed_jet, C, cnorm)

    # the rows' jets, of the orders an order-4 position gives them
    D1 = D1.truncate(_FRENET_ORDER - 1)
    speed_jet, C, c2, cnorm = (j.truncate(_FRENET_ORDER - 2) for j in (speed_jet, C, c2, cnorm))
    kappa_jet = cnorm / (speed_jet * speed_jet * speed_jet)
    tau_jet = jdot(C, D1.deriv().deriv()) / c2

    v = speed_jet.coeffs[0]
    kappa, tau = kappa_jet.coeffs[0], tau_jet.coeffs[0]
    kdot = kappa_jet.coeffs[1]
    kddot = 2.0 * kappa_jet.coeffs[2]
    vdot = speed_jet.coeffs[1]
    dkappa_ds, dtau_ds = kdot / v, tau_jet.coeffs[1] / v
    g_defined = np.abs(dkappa_ds) >= EPS_G
    g = np.full(len(g_defined), math.nan)
    g[g_defined] = dtau_ds[g_defined] / dkappa_ds[g_defined]
    T = np.ascontiguousarray((D1.coeffs[0] / v).T)
    B = np.ascontiguousarray((C.coeffs[0] / cnorm.coeffs[0]).T)
    rows = FrenetData(
        t=ts[keep],
        point=P.coeffs[0].T[keep],
        speed=v,
        T=T,
        N=_cross_rows(B, T),
        B=B,
        kappa=kappa,
        tau=tau,
        dkappa_ds=dkappa_ds,
        dtau_ds=dtau_ds,
        d2kappa_ds2=(kddot * v - kdot * vdot) / v**3,
        f=tau / kappa,
        g=g,
        g_defined=g_defined,
        # expanded so that no quotient by kappa^2 is formed twice
        Gamma=(dtau_ds * kappa - tau * dkappa_ds) / (kappa * kappa + tau * tau) ** 1.5,
    )
    regular = np.zeros(len(ts), dtype=bool)
    regular[keep] = True
    errors = [
        SingularPointError(f"{'speed' if slow[i] else 'curvature'} below regularity "
                           f"floor at t={ts[i]}")
        for i in np.flatnonzero(~regular)
    ]
    return rows, regular, errors, core


def _frame(D1, V, C, cnorm):
    """The frame jets (T, N, B) from the jets of g', |g'|, g' x g'' and
    |g' x g''|, as ``_columns`` returns them, all three of the order of
    g' x g'' (the order N reaches)."""
    order = C.order
    T = D1.truncate(order) / V.truncate(order)
    B = C / cnorm
    return T, jcross(B, T), B


def frenet_apparatus(curve, t):
    """Frame, curvature, torsion, their arc-length derivatives and the
    ratio invariants at t, as the one-point view of a one-row
    ``_frenet_columns``.  Raises SingularPointError at a singular point."""
    rows, _, errors = _frenet_columns(curve, [t])
    if errors:
        raise errors[0]
    return _points_at(rows, [0], 1)[0]


def frenet_grid(curve, ts):
    """Frenet data over a grid from one jet request of the curve, as the
    one-point views of its rows; singular points become None entries."""
    rows, regular, _ = _frenet_columns(curve, ts)
    return _points_at(rows, np.flatnonzero(regular), len(regular))


# ---------------------------------------------------------------------------
# arc length


def cumulative_trapezoid(x, y):
    """Cumulative trapezoid-rule integral of y over the nodes x, from 0.
    Stacked rows of y, the nodes on the last axis, are integrated at once,
    each with the bits it gets alone."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(0.5 * (y[..., 1:] + y[..., :-1]) * np.diff(x), axis=-1)
    return out


def _integrate(rate, nodes):
    """Cumulative integral of a rate over the nodes, from 0 at nodes[0],
    the antiderivative jet A it integrates (0 at each segment's midpoint),
    and A at each segment's left node.

    ``rate`` is a jet with one column per segment, about the segment's
    midpoint; each segment adds the integral of that Taylor series.  A
    vector rate gives one integral per component, (3, len(nodes)).
    """
    A = rate.antideriv(0.0)
    left = A(nodes[:-1])
    steps = A(nodes[1:]) - left
    start = np.zeros(steps.shape[:-1] + (1,))
    return np.concatenate((start, np.cumsum(steps, axis=-1)), axis=-1), A, left
