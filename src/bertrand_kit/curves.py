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
    _LEFT,
    _RIGHT,
    Jet,
    _cross_rows,
    _first,
    compile_program,
    jcross,
    jdot,
    jsqrt,
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

    ``jet(t, order)``, every kind's one entry, takes a 1-D array of
    parameter values and returns one vector jet (``jets.Jet``, (K+1, 3, N)
    coefficients, one column per value), which unpacks into the x, y and
    z component jets.  A float is the one-point grid: its jet, (K+1, 3),
    is column 0 of ``[t]``'s.  A ``t`` of more than one dimension and an
    ``order`` below 0 raise one ValueError before the domain is checked;
    each kind supplies only ``_jets(ts, order)`` on a 1-D float64 grid.
    ``point`` is the order-0 constant term, except ``AnalyticCurve.point``
    at a float, which runs the compiled value function.
    """

    label: str
    # (base, lam) on the mate ``construct_mate`` built on an analytic or
    # generated base, which ``bertrand._pair_columns`` reads
    _offset_of = None

    @property
    def domain(self):
        """The first and last of the parameter table ``params``."""
        return (float(self.params[0]), float(self.params[-1]))

    def jet(self, t, order):
        """The vector jet of (x, y, z) at ``t``."""
        # in float64, as the jets are: a float32 t compared in float32
        # could pass just beyond the slack
        ts = np.asarray(t, dtype=float)
        if ts.ndim > 1 or order < 0:
            raise ValueError(f"jet takes a float or a 1-D array t and an order >= 0, "
                             f"got t of shape {ts.shape} and order {order}")
        lo, hi = self.domain
        inside = (ts >= lo - _DOMAIN_SLACK) & (ts <= hi + _DOMAIN_SLACK)
        if not inside.all():
            raise OutOfDomainError(
                f"t={_first(~inside, ts)} outside [{lo}, {hi}] of curve {self.label!r}"
            )
        if ts.ndim:
            return self._jets(ts, order)
        return self._jets(ts.reshape(1), order).column(0)

    def point(self, t):
        return self.jet(t, 0).coeffs[0]


class AnalyticCurve(Curve):
    """Curve of three expressions of ``t``, given as text or parsed ASTs.

    The curve keeps the trees as given, and they become one straight-line
    program (``expr.program``) that evaluates each distinct subtree once,
    for one parameter value or a whole grid: a subexpression they share,
    such as the normaliser of a seed ``(x, y, z)/sqrt(x^2 + y^2 + z^2)``,
    is one slot.  At the first
    evaluation the curve takes the program's two compiled Python functions
    (``jets.compile_program``, compiled once per distinct program in a
    process): ``_jets`` runs the jet function, which gives x, y and z as
    one (K+1, 3, N) coefficient array and runs ready steps of one kind as
    one stacked recurrence, with the bits and the first domain error of
    the steps run one by one; ``point`` at a number runs the
    straight-line value function.
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

    def _jets(self, ts, order):
        return Jet(ts, program_jets(self._compiled, ts, order))

    def point(self, t):
        """At a number, the one evaluation past ``Curve.jet``: an inline
        domain test and the value function, with the bits and domain errors
        of ``jet(float(t), 0)``'s constant term at a twentieth of its cost.
        perfbench frenet-table makes 1025 such calls per op; ROADMAP item
        1b deletes the value function once item 1a samples from a grid."""
        if not isinstance(t, float) and np.ndim(t):
            return super().point(t)
        t = float(t)
        lo, hi = self._domain
        if not lo - _DOMAIN_SLACK <= t <= hi + _DOMAIN_SLACK:
            return super().point(t)  # raises the jet's OutOfDomainError
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

    def _jets(self, ts, order):
        if order >= len(self.params):
            raise TooFewSamplesError(
                f"a jet of order {order} needs at least {order + 1} samples, "
                f"curve {self.label!r} has {len(self.params)}"
            )
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

    ``jet_fn(ts, order)``, the curve's ``_jets``, takes a 1-D array of
    parameter values and returns the vector jet of (x, y, z), one column
    per value.  ``params``, the table's parameter values, fixes the
    domain: a generated curve's are its walk nodes in its seed's
    parameter, a normal-offset mate's regular points of its base's
    domain.  With ``points=None`` the table of points at ``params`` is
    the order-0 jet's constant terms, computed at its first read.
    """

    def __init__(self, jet_fn, params, points=None, label="", metadata=None):
        self._jets = jet_fn
        self.params = np.asarray(params, dtype=float)
        if points is not None:
            self.points = np.asarray(points, dtype=float)
        self.label = label
        self.metadata = dict(metadata or {})

    @cached_property
    def points(self):
        return self._jets(self.params, 0).coeffs[0].T


def _base_block(base):
    """The base keys a mate file records: an analytic base's expressions
    and domain, a generated base's seed, a, omega and n, else None.  A
    base loaded as samples has no block, whatever metadata it keeps."""
    if isinstance(base, AnalyticCurve):
        return {"base_generator": "analytic",
                **{f"base_{c}": ex.to_text(getattr(base, c)) for c in "xyz"},
                "base_lo": base.domain[0], "base_hi": base.domain[1]}
    meta = base.metadata if isinstance(base, JetBackedCurve) else {}
    if meta.get("generator") != "bertrand":
        return None
    return {"base_generator": "bertrand", **{k: meta.get(k) for k in ("a", "omega", "seed_label")},
            "base_n": meta.get("n")}


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
    entries: the view of row j at ``idx[j]``, None elsewhere, for
    increasing ``idx`` below n.  A view holds numbers as Python floats
    and bools and vectors as (3,) arrays, rows of the (N, 3) fields.
    Views are built by ``tuple.__new__``, as ``rows._make`` builds them,
    with no Python call per view, and where ``idx`` covers all n entries
    the list is the views themselves."""
    columns = [v.tolist() if v.ndim == 1 else list(v) for v in rows]
    views = map(tuple.__new__, repeat(type(rows)), zip(*columns))
    if len(idx) == n:
        return list(views)
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


def _pose_columns(P, ts):
    """The point, T, N and B rows of the position jet P about ``ts`` at
    its regular columns, from P's coefficients 0-2 alone, and the
    package's regularity floors: ``(pose, regular, errors)``, with
    ``regular`` and ``errors`` as ``_frenet_columns`` gives them.  A
    column is singular where its speed |g'| is below EPS_REG or not
    finite, where |g' x g''| < EPS_REG |g'|^2, or where kappa <= EPS_REG,
    and a flagged column leaves the batch before any denominator could
    vanish in it.  Each step is the constant term of the jet operation
    that ``_columns`` runs (``jdot``, ``jcross``, ``jsqrt``), on the same
    values in the same order, so the four rows have the bits of its rows
    for any P of order 2 or more (truncated Taylor arithmetic: the
    constant terms of g', g'' and g' x g'' read no coefficient of P above
    the second)."""
    p, d1, d2 = P.coeffs[:3]
    d2 = 2.0 * d2  # the constant term of g'' = 2 P[2]
    v2 = d1[0] * d1[0] + d1[1] * d1[1] + d1[2] * d1[2]
    slow = ~(np.isfinite(v2) & (v2 >= EPS_REG * EPS_REG))
    keep = np.flatnonzero(~slow)
    d1, d2 = np.take(d1, keep, axis=1), np.take(d2, keep, axis=1)
    v = np.sqrt(v2[keep])
    C = d1[_LEFT] * d2[_RIGHT]
    C = C[:3] - C[3:]
    c2 = C[0] * C[0] + C[1] * C[1] + C[2] * C[2]
    cnorm = np.sqrt(c2)
    # the bits of the constant term of _columns' kappa_jet
    kappa = cnorm / (v * v * v)
    flat = (c2 < (EPS_REG * v * v) ** 2) | (kappa <= EPS_REG)
    sub = np.flatnonzero(~flat)
    keep = keep[sub]
    T = np.ascontiguousarray((np.take(d1, sub, axis=1) / v[sub]).T)
    B = np.ascontiguousarray((np.take(C, sub, axis=1) / cnorm[sub]).T)
    pose = (p.T[keep], T, _cross_rows(B, T), B)
    regular = np.zeros(len(ts), dtype=bool)
    regular[keep] = True
    errors = [
        SingularPointError(f"{'speed' if slow[i] else 'curvature'} below regularity "
                           f"floor at t={ts[i]}")
        for i in np.flatnonzero(~regular)
    ]
    return pose, regular, errors


def _core_jets(P):
    """The core jets of the position jet P, column by column: those of g',
    |g'|, g' x g'' and |g' x g''|, from which ``_frame`` builds the frame
    jets, and that of |g' x g''|^2.  g' and g' x g'' have the orders P
    gives them, one and two below P's, and the norms that of g' x g''."""
    D1 = P.deriv()
    # |g'| to the order of g' x g'', the highest any reader of it reaches
    low = D1.truncate(D1.order - 1)
    C = jcross(D1, D1.deriv())
    c2 = jdot(C, C)
    return (D1, jsqrt(jdot(low, low)), C, jsqrt(c2)), c2


def _columns(P, ts):
    """The ``_frenet_columns`` of the position jet P about ``ts``, and the
    ``_core_jets`` that the pass builds at the regular columns, less
    |g' x g''|^2: ``(rows, regular, errors, core)``.  The regularity
    floors, the point and the frame rows are ``_pose_columns``'s.  The
    rows read the order-4 truncation of the core jets, so a P of order 4
    or more gives them the bits of its order-4 truncation."""
    (point, T, N, B), regular, errors = _pose_columns(P, ts)
    keep = np.flatnonzero(regular)
    core, c2 = _core_jets(P.take(keep))
    D1, speed_jet, C, cnorm = core

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
    rows = FrenetData(
        t=ts[keep],
        point=point,
        speed=v,
        T=T,
        N=N,
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
    return rows, regular, errors, core


def _frame(D1, V, C, cnorm):
    """The frame jets (T, N, B) from the jets of g', |g'|, g' x g'' and
    |g' x g''| (``_core_jets``), all three of the order of g' x g'' (the
    order N reaches)."""
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
