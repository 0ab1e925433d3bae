"""Bertrand pairs: construction, detection, closed-form mate apparatus.

Conventions
-----------
Base and mate share the evaluation parameter ``t``; arc lengths on the
two curves are derived per-curve and never assumed equal.  The mate of a
curve is ``mate(t) = base(t) + lambda * N(t)`` with constant signed
offset ``lambda`` along the principal normal.  ``epsilon`` is the
measured sign of <N, N_mate> and must be constant over the grid.

The ratio invariants are ``f = tau/kappa`` and ``g = tau'/kappa'``
(arc-length primes); ``g`` is undefined on helical arcs (kappa' = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import interpolate

from .curves import (
    AnalyticCurve,
    Curve,
    EPS_REG,
    FrenetData,
    JetBackedCurve,
    SampledCurve,
    _cross_jets,
    _dot_jets,
    _frenet_columns,
    frenet_grid,
    slant_geodesic_indicator,
)
from .errors import (
    DegenerateRatioError,
    DegenerateSphereCurveError,
    GridMismatchError,
    IllConditionedError,
    NotAPairError,
    NotSphericalError,
    SingularPointError,
)
from .jets import Jet, compose, invert_series, jsincos, jsqrt

EPS_G = 1e-10
EPS_DEN = 1e-10
TOL_ALIGN = 1e-6
TOL_CONST = 1e-6


# ---------------------------------------------------------------------------
# ratio invariants


@dataclass(frozen=True)
class RatioInvariants:
    t: float
    f: float
    g: float
    g_defined: bool
    Gamma: float


def ratio_invariants(fd: FrenetData, eps_g: float = EPS_G) -> RatioInvariants:
    if fd.kappa <= EPS_REG:
        raise SingularPointError(f"kappa={fd.kappa} at t={fd.t}")
    f = fd.tau / fd.kappa
    g_defined = abs(fd.dkappa_ds) >= eps_g
    g = fd.dtau_ds / fd.dkappa_ds if g_defined else math.nan
    return RatioInvariants(
        t=fd.t, f=f, g=g, g_defined=g_defined, Gamma=slant_geodesic_indicator(fd)
    )


def bertrand_lambda(ri: RatioInvariants, kappa: float, eps_den: float = EPS_DEN) -> float:
    """Offset distance from the ratio invariants: g / (kappa (g - f))."""
    if not ri.g_defined:
        raise DegenerateRatioError(f"g undefined (helical) at t={ri.t}")
    if abs(ri.g - ri.f) <= eps_den:
        raise DegenerateRatioError(f"g = f degeneracy at t={ri.t}")
    return ri.g / (kappa * (ri.g - ri.f))


# ---------------------------------------------------------------------------
# closed-form mate apparatus


@dataclass(frozen=True)
class MateApparatus:
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    ds_mate_ds: float


def mate_apparatus_from_base(fd: FrenetData, ri: RatioInvariants, eps: int) -> MateApparatus:
    """Frame/curvature/torsion of the mate expressed in base quantities."""
    if not ri.g_defined:
        raise DegenerateRatioError(f"g undefined at t={ri.t}")
    f, g = ri.f, ri.g
    if abs(f) <= EPS_DEN or abs(g - f) <= EPS_DEN:
        raise DegenerateRatioError(f"f=0 or g=f at t={ri.t}")
    root = math.sqrt(1.0 + g * g)
    T_m = -(fd.T - g * fd.B) / root
    N_m = eps * fd.N
    B_m = -eps * (g * fd.T + fd.B) / root
    k = fd.kappa
    kappa_m = -eps * k * (g - f) * (1.0 + f * g) / (f * (1.0 + g * g))
    tau_m = k * (g - f) ** 2 / (f * (1.0 + g * g))
    ds_m = f * root / (g - f)
    return MateApparatus(T=T_m, N=N_m, B=B_m, kappa=kappa_m, tau=tau_m, ds_mate_ds=ds_m)


def geodesic_indicator_closed_form(fd: FrenetData, ri: RatioInvariants, side: str = "base") -> float:
    """Slant-helix indicator from closed forms.

    side='base': indicator of the base curve from mate-side data
    (pass fd/ri of the *mate*): -kappa'(g-f) / (kappa^2 (1+f^2)^{3/2}).

    side='mate': indicator of the mate from base-side data (pass fd/ri of
    the *base*), including the ds/ds_mate factor.
    """
    if not ri.g_defined:
        raise DegenerateRatioError(f"g undefined at t={ri.t}")
    f, g, k = ri.f, ri.g, fd.kappa
    if side == "base":
        return float(-fd.dkappa_ds * (g - f) / (k * k * (1.0 + f * f) ** 1.5))
    if side == "mate":
        if abs(f) <= EPS_DEN:
            raise DegenerateRatioError(f"f=0 at t={ri.t}")
        ds_ds_mate = (g - f) / (f * math.sqrt(1.0 + g * g))
        num = fd.dkappa_ds * f * (1.0 + g * g) ** 2
        den = -(k * k) * ((1.0 + f * g) ** 2 + (g - f) ** 2) ** 1.5
        return float(num / den * ds_ds_mate)
    raise ValueError(f"side must be 'base' or 'mate', got {side!r}")


# ---------------------------------------------------------------------------
# jet helpers for the normal offset


def _frame_jets(base: Curve, t, order: int):
    """Jets of (position, T, N, B) to the given order (needs order+2 base
    jets), at a float t or at each t of a 1-D array."""
    P = base.jet(t, order + 2)
    D1 = tuple(p.deriv() for p in P)
    D2 = tuple(d.deriv() for d in D1)
    V = jsqrt(_dot_jets(D1, D1))
    C = _cross_jets(D1, D2)
    Cn = jsqrt(_dot_jets(C, C))
    T = tuple(d / V for d in D1)
    B = tuple(c / Cn for c in C)
    return P, T, _cross_jets(B, T), B


def construct_mate(base: Curve, lam: float, n: int = 2048) -> Curve:
    """The normal-offset curve base + lam*N.

    For analytic or jet-backed bases the mate keeps an exact jet provider;
    sampled bases yield a sampled mate via the stencil path.  lam = 0
    returns a relabelled copy of the base samples.
    """
    lo, hi = base.domain
    ts = np.linspace(lo, hi, n + 1)
    label = f"{base.label or 'curve'}+{lam}*N"

    if isinstance(base, SampledCurve):
        fds = frenet_grid(base, ts, order=4)
        keep = np.array([fd is not None for fd in fds], dtype=bool)
        normals = np.array([fd.N for fd in fds if fd is not None]).reshape(-1, 3)
        return SampledCurve(ts[keep], base.point(ts[keep]).T + lam * normals, label=label)

    def mate_jet(t, order):
        P, _T, N, _B = _frame_jets(base, t, order)
        return tuple((P[i] + lam * N[i]).truncate(order) for i in range(3))

    pts = np.array([j.coeffs[0] for j in mate_jet(ts, 0)]).T
    meta = {"generator": "normal-offset", "lambda": lam, "n": n}
    base_meta = getattr(base, "metadata", None) or {}
    if base_meta.get("generator") == "bertrand":
        # self-describing mate file: carry the seed recipe of the base
        meta.update(
            {
                "base_generator": "bertrand",
                "a": base_meta.get("a"),
                "omega": base_meta.get("omega"),
                "seed_label": base_meta.get("seed_label"),
                "base_n": base_meta.get("n"),
            }
        )
    return JetBackedCurve(mate_jet, ts, pts, label=label, metadata=meta)


# ---------------------------------------------------------------------------
# pair model and detection


def _frenet_fill(cache: dict, curve: Curve, side: str, ts) -> list:
    """Frenet data of ``curve`` at each t, memoized in ``cache`` under
    (side, t).  The points not held yet are evaluated in one batch; a
    singular point is held, and returned, as the error it raised."""
    keys = [(side, float(t)) for t in ts]
    missing = [key for key in dict.fromkeys(keys) if key not in cache]
    if missing:
        cache.update(zip(missing, _frenet_columns(curve, [t for _, t in missing])))
    return [cache[key] for key in keys]


def _regular(fds) -> np.ndarray:
    return np.array([not isinstance(fd, SingularPointError) for fd in fds], dtype=bool)


@dataclass
class ConstancyStat:
    mean: float
    max_deviation: float

    @classmethod
    def of(cls, values):
        values = np.asarray([v for v in values if np.isfinite(v)])
        if len(values) == 0:
            return cls(math.nan, math.nan)
        m = float(np.mean(values))
        return cls(m, float(np.max(np.abs(values - m))))


@dataclass
class BertrandPairModel:
    """A detected Bertrand pair: offset, sign, grid data and statistics.

    The pair holds the Frenet data of both curves and reuses it:
    ``frenet(side, t)`` and ``frenet_grid(side, ts)`` evaluate the base
    or the mate at most once per parameter value, starting from the
    points detection evaluated, and a grid's new points in one batch.
    """

    base: Curve
    mate: Curve
    lam: float
    epsilon: int
    ts: np.ndarray
    fd_base: list
    fd_mate: list
    ri_base: list
    ri_mate: list
    p1: ConstancyStat
    p2: ConstancyStat
    q1: ConstancyStat
    q2: ConstancyStat
    lambda_stat: ConstancyStat
    degenerate: bool = False
    masked: np.ndarray = field(default=None)
    _frenet: dict = field(default_factory=dict, init=False, repr=False)

    def frenet(self, side: str, t) -> FrenetData:
        """Frenet data of the base (side 'base') or the mate at t.

        Raises SingularPointError at a singular point, every time.
        """
        fd = self._fill(side, [t])[0]
        if isinstance(fd, SingularPointError):
            raise fd.with_traceback(None)
        return fd

    def frenet_grid(self, side: str, ts) -> list:
        """Frenet data of one side at each t of ``ts``, None where singular."""
        return [None if isinstance(fd, SingularPointError) else fd
                for fd in self._fill(side, ts)]

    def _fill(self, side, ts):
        curve = {"base": self.base, "mate": self.mate}[side]
        return _frenet_fill(self._frenet, curve, side, ts)

    @property
    def masked_fraction(self):
        return float(np.mean(self.masked)) if self.masked is not None else 0.0

    def valid_indices(self):
        return np.nonzero(~self.masked)[0]


def _overlap_grid(base: Curve, mate: Curve, n: int, inset: float = 1e-6):
    lo = max(base.domain[0], mate.domain[0])
    hi = min(base.domain[1], mate.domain[1])
    if not lo < hi:
        raise GridMismatchError(
            f"domains {base.domain} and {mate.domain} do not overlap"
        )
    pad = inset * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


def detect_bertrand(
    base: Curve,
    mate: Curve,
    n: int = 128,
    tol_align: float = TOL_ALIGN,
    tol_const: float = TOL_CONST,
    eps_g: float = EPS_G,
    inset: float = 1e-6,
) -> BertrandPairModel:
    """Check the Bertrand-pair definition and assemble the pair model.

    ``inset`` trims a fraction of the overlap interval at each end; useful
    for sampled curves whose end stencils are one-sided.  Raises
    NotAPairError with a reason of 'offset-not-normal', 'lambda-varies'
    or 'normals-not-aligned'.  The returned pair keeps the Frenet data
    evaluated here and reuses it through ``BertrandPairModel.frenet``.
    """
    ts = _overlap_grid(base, mate, n, inset=inset)
    frenet = {}
    ok = _regular(_frenet_fill(frenet, base, "base", ts))
    # the mate only where the base is regular: a normal offset's frame
    # needs the base's
    ok[ok] = _regular(_frenet_fill(frenet, mate, "mate", ts[ok]))
    masked = ~ok
    fd_b = [frenet[("base", float(t))] if k else None for t, k in zip(ts, ok)]
    fd_m = [frenet[("mate", float(t))] if k else None for t, k in zip(ts, ok)]
    valid = np.nonzero(ok)[0]
    if len(valid) < max(8, n // 4):
        raise NotAPairError("offset-not-normal", "too few regular points")

    offsets = mate.point(ts[valid]).T - base.point(ts[valid]).T
    norms = np.linalg.norm(offsets, axis=1)
    scale = max(float(np.max(norms)), 0.0)
    degenerate = scale < 1e-12

    lam_signed = np.array(
        [float(np.dot(offsets[j], fd_b[i].N)) for j, i in enumerate(valid)]
    )
    if not degenerate:
        # offset must lie along the principal normal
        resid = np.linalg.norm(
            offsets - lam_signed[:, None] * np.array([fd_b[i].N for i in valid]),
            axis=1,
        )
        if np.max(resid) > math.sqrt(tol_align) * scale:
            raise NotAPairError(
                "offset-not-normal", f"max transverse component {np.max(resid):.3e}"
            )
        lam_mean = float(np.mean(lam_signed))
        if np.max(np.abs(lam_signed - lam_mean)) > tol_const * (1.0 + abs(lam_mean)):
            raise NotAPairError(
                "lambda-varies",
                f"max deviation {np.max(np.abs(lam_signed - lam_mean)):.3e}",
            )
    else:
        lam_mean = 0.0

    dots = np.array([float(np.dot(fd_b[i].N, fd_m[i].N)) for i in valid])
    if np.min(np.abs(dots)) < 1.0 - tol_align:
        raise NotAPairError(
            "normals-not-aligned", f"min |<N, N_mate>| = {np.min(np.abs(dots)):.6f}"
        )
    signs = np.sign(dots)
    eps = int(signs[len(signs) // 2])
    # a permissive tolerance (diagnostic use) also waives sign consistency
    if tol_align < 0.5 and np.any(signs != eps):
        raise NotAPairError("normals-not-aligned", "sign of <N, N_mate> flips")

    ri_b = [None if fd is None else ratio_invariants(fd, eps_g=eps_g) for fd in fd_b]
    ri_m = [None if fd is None else ratio_invariants(fd, eps_g=eps_g) for fd in fd_m]

    g_vals = [r.g for r in ri_b if r is not None and r.g_defined]
    gt_vals = [r.g for r in ri_m if r is not None and r.g_defined]
    q1 = ConstancyStat.of([1.0 / math.sqrt(1.0 + g * g) for g in g_vals])
    q2 = ConstancyStat.of([g / math.sqrt(1.0 + g * g) for g in g_vals])
    p1 = ConstancyStat.of([1.0 / math.sqrt(1.0 + g * g) for g in gt_vals])
    p2 = ConstancyStat.of([g / math.sqrt(1.0 + g * g) for g in gt_vals])

    pair = BertrandPairModel(
        base=base,
        mate=mate,
        lam=lam_mean,
        epsilon=eps,
        ts=ts,
        fd_base=fd_b,
        fd_mate=fd_m,
        ri_base=ri_b,
        ri_mate=ri_m,
        p1=p1,
        p2=p2,
        q1=q1,
        q2=q2,
        lambda_stat=ConstancyStat.of(lam_signed if not degenerate else [0.0]),
        degenerate=degenerate,
        masked=masked,
    )
    pair._frenet = frenet
    return pair


def pair_constraint_residual(pair: BertrandPairModel, t: float) -> float:
    """LHS of (kappa_m + eps*kappa) g g_m - eps f g_m kappa - f_m g kappa_m."""
    fd = pair.frenet("base", t)
    fdm = pair.frenet("mate", t)
    ri = ratio_invariants(fd)
    rim = ratio_invariants(fdm)
    if not (ri.g_defined and rim.g_defined):
        raise DegenerateRatioError(f"g undefined at t={t}")
    eps = pair.epsilon
    return float(
        (fdm.kappa + eps * fd.kappa) * ri.g * rim.g
        - eps * ri.f * rim.g * fd.kappa
        - rim.f * ri.g * fdm.kappa
    )


def linear_relation_fit(curve: Curve, n: int = 64):
    """Least-squares (a, b) with a*kappa + b*tau = 1 over n samples."""
    if n < 8:
        raise ValueError("n must be >= 8")
    lo, hi = curve.domain
    fds = frenet_grid(curve, np.linspace(lo, hi, n))
    A = np.array([(fd.kappa, fd.tau) for fd in fds if fd is not None])
    if len(A) < 8:
        raise IllConditionedError("too few regular samples")
    # constant kappa and tau leave a one-parameter family of solutions
    sv = np.linalg.svd(A - A.mean(axis=0), compute_uv=False)
    if sv[0] < 1e-10 * max(1.0, float(np.abs(A).max())):
        raise IllConditionedError(
            "kappa and tau are constant (circular helix): relation not unique"
        )
    coef, *_ = np.linalg.lstsq(A, np.ones(len(A)), rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - 1.0) ** 2)))
    return float(coef[0]), float(coef[1]), resid


# ---------------------------------------------------------------------------
# generator: Bertrand curves from spherical seed curves


def _sphere_checks(sphere_curve: Curve, probes):
    jets = sphere_curve.jet(probes, 2)
    p, d1, half_d2 = (np.array([j.coeffs[k] for j in jets]).T for k in range(3))
    r = np.linalg.norm(p, axis=1)
    v = np.linalg.norm(d1, axis=1)
    for u, r_u, v_u in zip(probes, r, v):
        if abs(r_u - 1.0) > 1e-8:
            raise NotSphericalError(f"|c({u})| = {r_u}, not on the unit sphere")
        if v_u < 1e-9:
            raise DegenerateSphereCurveError(f"sphere curve irregular at u={u}")
    kg = np.sum(np.cross(p, d1) * (2.0 * half_d2), axis=1) / v**3
    spread = np.max(kg) - np.min(kg)
    if spread < 1e-8 * (1.0 + np.max(np.abs(kg))):
        raise DegenerateSphereCurveError(
            "geodesic curvature of the sphere curve is constant: output is a helix"
        )


def generate_bertrand_curve(
    sphere_curve: Curve, a: float, omega: float, n: int = 2048
) -> JetBackedCurve:
    """Bertrand test curve from a spherical seed.

    With c the seed reparameterized by its own arc length t, the output is
    the cumulative integral of a*(c + cot(omega) * c x c') dt.  Its
    curvature and torsion satisfy a*kappa + a*cot(omega)*tau = 1, so the
    normal offset by lambda = a produces a Bertrand mate.  Jets of the
    output are exact: the arc-length reparameterization is inverted by
    series reversion at evaluation time.  The Newton solve for u(t) starts
    from the seed-speed series of the walk node below t; each node's
    series is built on first use and kept with the curve, so there are at
    most ``n`` of them.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if not 0.0 < omega < math.pi or abs(omega - math.pi / 2) < 1e-12:
        raise ValueError("omega must lie in (0, pi), omega != pi/2")
    cot = 1.0 / math.tan(omega)
    lo, hi = sphere_curve.domain
    us = np.linspace(lo, hi, n + 1)
    _sphere_checks(sphere_curve, 0.5 * (us[:-1] + us[1:])[:: max(1, n // 64)])

    walk_order = 10

    def _seed_jets(u, order):
        # seed c, dc/du and the seed's speed V = |dc/du|, as jets in u
        Cj = sphere_curve.jet(u, order)
        Dj = tuple(c.deriv() for c in Cj)
        return Cj, Dj, jsqrt(_dot_jets(Dj, Dj))

    # node walk: accumulate t (arc length of c) and position by series
    # steps, the series of every step from one batch at the midpoints
    Cj, Dj, V = _seed_jets(0.5 * (us[:-1] + us[1:]), walk_order)
    W = _cross_jets(Cj, Dj)
    # dgamma/du = a (V c + cot(omega) c x dc/du)
    G = tuple(a * (V * Cj[j] + cot * W[j]) for j in range(3))

    def walk(rate):
        A = rate.antideriv(0.0)
        return np.concatenate(([0.0], np.cumsum(A(us[1:]) - A(us[:-1]))))

    t_nodes = walk(V)
    P_nodes = np.stack([walk(g) for g in G], axis=1)

    u_of_t = interpolate.PchipInterpolator(t_nodes, us)
    # columns k: the seed speed V about us[k] and its antiderivative
    # through (us[k], t_nodes[k]), built for a node on first use
    V_nodes = np.empty((walk_order, n))
    S_nodes = np.empty((walk_order + 1, n))
    built = np.zeros(n, dtype=bool)

    def _solve_u(t):
        u = u_of_t(t)
        k = np.clip(np.searchsorted(t_nodes, t) - 1, 0, n - 1)
        new = np.unique(k[~built[k]])
        if len(new):
            V = _seed_jets(us[new], walk_order)[2]
            V_nodes[:, new] = V.coeffs
            S_nodes[:, new] = V.antideriv(t_nodes[new]).coeffs
            built[new] = True
        V = Jet(us[k], V_nodes[:, k])
        SV = Jet(us[k], S_nodes[:, k])
        for _ in range(4):
            u = u - (SV(u) - t) / V(u)
        return u, k

    def jet_fn(t, order):
        internal = max(order, 6)
        u, k = _solve_u(t)
        Cj, Dj, V = _seed_jets(u, internal)
        s_jet = V.antideriv(t)  # s(u) about u, with s(u) = t
        u_jet = invert_series(s_jet)
        C = tuple(compose(Cj[i], u_jet) for i in range(3))  # c(u(t)) in t
        Cd = tuple(c.deriv() for c in C)
        W = _cross_jets(C, Cd)
        Gp = tuple(a * (C[i] + cot * W[i]) for i in range(3))  # dgamma/dt
        out = []
        for comp in range(3):
            A = Gp[comp].antideriv(0.0)
            # integration constant from the nearest walk node
            out.append(A.with_constant(P_nodes[k, comp] - A(t_nodes[k])).truncate(order))
        return tuple(out)

    meta = {
        "generator": "bertrand",
        "a": a,
        "omega": omega,
        "nominal_lambda": a,
        "n": n,
        "seed_label": sphere_curve.label,
    }
    return JetBackedCurve(
        jet_fn, t_nodes, P_nodes, label=f"bertrand({sphere_curve.label or 'seed'})",
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# spherical seed presets


def _normalized_analytic(x, y, z, domain, label):
    """Build (x,y,z)/|(x,y,z)| as an analytic unit-sphere curve."""
    n2 = f"(({x})^2 + ({y})^2 + ({z})^2)"
    return AnalyticCurve(
        f"({x})/sqrt{n2}",
        f"({y})/sqrt{n2}",
        f"({z})/sqrt{n2}",
        domain,
        label=label,
    )


def _spherical_helix_seed(m: float, domain, label: str, n: int = 1024) -> JetBackedCurve:
    """Unit-sphere curve whose tangent makes a constant angle with the axis.

    Height is linear in arc length (z = m*s); the azimuth phi(s) is the
    cumulative integral of an explicit elementary function, evaluated with
    exact jets.  Feeding this seed to the generator yields a Bertrand
    curve that is also a slant helix.
    """
    phi_rate = AnalyticCurve(
        f"sqrt(1 - {m}^2 - {m}^4*t^2/(1 - {m}^2*t^2))/sqrt(1 - {m}^2*t^2)",
        "0",
        "0",
        domain,
        label="phi-rate",
    )
    lo, hi = domain
    ss = np.linspace(lo, hi, n + 1)
    A = phi_rate.jet(0.5 * (ss[:-1] + ss[1:]), 8)[0].antideriv(0.0)
    phi_nodes = np.concatenate(([0.0], np.cumsum(A(ss[1:]) - A(ss[:-1]))))

    m2 = m * m

    def jet_fn(s, order):
        internal = max(order, 6)
        k = np.clip(np.searchsorted(ss, s) - 1, 0, n - 1)
        A = phi_rate.jet(s, internal)[0].antideriv(0.0)
        # phi(s) = phi_nodes[k] + int_{ss[k]}^{s} rate, via the local series
        phi_jet = A.with_constant(phi_nodes[k] - A(ss[k]))
        sj = Jet.variable(s, phi_jet.order)
        r_jet = jsqrt(1.0 - m2 * sj * sj)
        sphi, cphi = jsincos(phi_jet)
        x = r_jet * cphi
        y = r_jet * sphi
        z = m * sj
        return (x.truncate(order), y.truncate(order), z.truncate(order))

    r = np.sqrt(1.0 - m2 * ss * ss)
    pts = np.stack([r * np.cos(phi_nodes), r * np.sin(phi_nodes), m * ss], axis=1)
    return JetBackedCurve(jet_fn, ss, pts, label=label, metadata={"m": m})


SPHERE_PRESETS = {}


def sphere_preset(name: str) -> Curve:
    """Named spherical seed curves for the generator."""
    if name not in SPHERE_PRESETS:
        raise KeyError(f"unknown sphere preset {name!r}; have {sorted(SPHERE_PRESETS)}")
    return SPHERE_PRESETS[name]()


# Seed domains are windows where the geodesic curvature is monotone and
# stays clear of 0, -cot(omega) and tan(omega) for the default omega, so
# the generated base and its mate are regular, non-helical and non-planar.
DEFAULT_OMEGA = {
    "wobble": 2.0 * math.pi / 3.0,
    "tilt": math.pi / 3.0,
    "bean": math.pi / 4.0,
    "slant": math.pi / 4.0,
    "smallcircle": math.pi / 3.0,
    "greatcircle": math.pi / 3.0,
}


def _register_presets():
    SPHERE_PRESETS.update(
        {
            "wobble": lambda: _normalized_analytic(
                "cos(t)", "sin(t)", "0.3*sin(2*t)", (0.2, 0.62), "wobble"
            ),
            "tilt": lambda: _normalized_analytic(
                "cos(t)", "sin(t)", "0.35*sin(t) + 0.25*cos(2*t)", (0.9, 1.42), "tilt"
            ),
            "bean": lambda: _normalized_analytic(
                "cos(t) + 0.15*sin(2*t)",
                "sin(t)",
                "0.4*sin(t) + 0.2*cos(2*t)",
                (0.74, 1.06),
                "bean",
            ),
            "slant": lambda: _spherical_helix_seed(0.45, (0.25, 1.05), "slant"),
            "smallcircle": lambda: AnalyticCurve(
                "0.8*cos(t)", "0.8*sin(t)", "0.6", (0.0, 2.0), "smallcircle"
            ),
            "greatcircle": lambda: AnalyticCurve(
                "cos(t)", "sin(t)", "0", (0.0, 2.0), "greatcircle"
            ),
        }
    )


_register_presets()


def generated_pair(preset: str, a: float = 1.0, omega: float = None, n: int = 2048,
                   grid: int = 128) -> BertrandPairModel:
    """Convenience: generate a Bertrand curve from a preset, offset it by
    its nominal lambda, and run detection."""
    if omega is None:
        omega = DEFAULT_OMEGA.get(preset, math.pi / 3.0)
    base = generate_bertrand_curve(sphere_preset(preset), a=a, omega=omega, n=n)
    mate = construct_mate(base, a, n=n)
    return detect_bertrand(base, mate, n=grid)
