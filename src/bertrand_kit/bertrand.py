"""Bertrand pairs: construction, detection, test-pair generation.

Conventions
-----------
Base and mate share the evaluation parameter ``t``; arc lengths on the
two curves are derived per-curve and never assumed equal.  The mate of a
curve is ``mate(t) = base(t) + lambda * N(t)`` with constant signed
offset ``lambda`` along the principal normal.  ``epsilon`` is the
measured sign of <N, N_mate> and must be constant over the grid.

The ratio invariants ``f = tau/kappa`` and ``g = tau'/kappa'``
(arc-length primes) are columns of ``FrenetData``; ``g`` is undefined on
helical arcs (kappa' = 0).  The closed forms over them are ``paper``'s.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as ex
from .curves import (
    AnalyticCurve,
    Curve,
    FrenetData,
    JetBackedCurve,
    SampledCurve,
    _FRENET_ORDER,
    _base_block,
    _columns,
    _frame,
    _frenet_columns,
    _integrate,
    _points_at,
    _take_rows,
)
from .errors import (
    DegenerateSphereCurveError,
    GridMismatchError,
    IllConditionedError,
    NotAPairError,
    NotSphericalError,
    ParameterError,
    TooFewSamplesError,
)
from .paper import _constraint_residuals, projection_constants
from .jets import _cross_rows, jcross, jdot, jsqrt

TOL_ALIGN = 1e-6
TOL_CONST = 1e-6
# The largest offset between two curves' points below which they coincide:
# no pair, as a Bertrand pair's offset is a nonzero constant.
_EPS_COINCIDE = 1e-12


# ---------------------------------------------------------------------------
# jet helpers for the normal offset


def _frames(P):
    """Vector jets of (P, T, N, B) from the position jet P, the frame two
    orders below P's, column by column.  The frame is ``curves._frame``,
    which detection also runs on a Frenet pass's jets."""
    D1 = P.deriv()
    C = jcross(D1, D1.deriv())
    D1 = D1.truncate(C.order)
    return (P, *_frame(D1, jsqrt(jdot(D1, D1)), C, jsqrt(jdot(C, C))))


def _image_frames(jets):
    """The order-4 T, N and B jets of each curve whose order-6 position
    jet is one of ``jets``, curve by curve, from one ``_frames`` pass per
    curve: the position jets of its three image curves."""
    return tuple(v.truncate(_FRENET_ORDER) for P in jets for v in _frames(P)[1:])


def _offset(P, lam):
    """The position jet P + lam N of a curve's normal offset, from the
    curve's position jet P, two orders below P's."""
    P, _T, N, _B = _frames(P)
    return P + lam * N


def construct_mate(base: Curve, lam: float, n: int = 2048) -> Curve:
    """The normal-offset curve base + lam*N.

    For analytic or jet-backed bases the mate keeps an exact jet provider,
    ``_offset`` of the base's jet two orders higher, which holds nothing,
    and its node table (the mate at the n+1 regular points of the base's
    domain) is computed at its first read, not here: building the mate
    evaluates nothing, and an evaluation error surfaces at that read.
    Its metadata records lambda, n and the base's ``curves._base_block``;
    a mate with a block records ``(base, lam)``, and ``_pair_columns``
    then reads the pair from one run of that base.  The nodes are
    ``_grid(base, n + 1)``, and the node table asks the base for order 2
    there, so a ``curves.held`` base may serve it.  Sampled bases yield a
    sampled mate via the stencil path, at the regular grid points of the
    base.  A non-finite lambda or an n below 1 raises ParameterError
    before any evaluation.
    """
    if not math.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam}")
    if n < 1:
        raise ParameterError(f"a mate needs n >= 1, got {n}")
    ts = _grid(base, n + 1)
    label = f"{base.label or 'curve'}+{lam}*N"

    if isinstance(base, SampledCurve):
        rows, keep, _ = _frenet_columns(base, ts)
        return SampledCurve(ts[keep], rows.point + lam * rows.N, label=label)

    block = _base_block(base)
    mate = JetBackedCurve(lambda t, order: _offset(base.jet(t, order + 2), lam), ts,
                          label=label, metadata={"generator": "normal-offset", "lambda": lam,
                                                 "n": n, **(block or {})})
    # the bases with a block are those whose jets up to order 8 truncate
    # to the bits of lower requests, as detection's one run of the base needs
    if block is not None:
        mate._offset_of = (base, lam)
    return mate


# ---------------------------------------------------------------------------
# pair model and detection


@dataclass
class ConstancyStat:
    mean: float
    max_deviation: float

    @classmethod
    def of(cls, values):
        values = np.asarray(values)[np.isfinite(values)]
        if len(values) == 0:
            return cls(math.nan, math.nan)
        m = float(values.mean())
        return cls(m, float(np.abs(values - m).max()))


@dataclass
class BertrandPairModel:
    """A detected Bertrand pair: offset, sign, grid data and statistics.

    ``base_rows`` and ``mate_rows`` hold the Frenet data of both curves,
    ratio invariants included, at the regular points ``ts[~masked]`` of
    the detection grid, as arrays with one row per point.  ``ri_base`` and
    ``ri_mate`` view them point by point over ``ts``, None where masked.
    A pair that detection built from one run of its base's jet also holds
    the T, N and B jets of both curves at ``ts[~masked]``, which
    detection's Frenet passes built, read-only: the position jets of the
    six image curves that the suite classifies (``_image_jets``), cut to
    order 2, whose coefficients 0-2 fix each image's point and frame, or
    to order 4 when detection was asked for ``images``.
    """

    base: Curve
    mate: Curve
    lam: float
    epsilon: int
    ts: np.ndarray
    base_rows: FrenetData
    mate_rows: FrenetData
    p1: ConstancyStat
    p2: ConstancyStat
    q1: ConstancyStat
    q2: ConstancyStat
    lambda_stat: ConstancyStat
    masked: np.ndarray
    _images: tuple = field(default=None, init=False, repr=False, compare=False)

    def _per_point(self, rows):
        return _points_at(rows, self.valid_indices(), len(self.ts))

    ri_base = cached_property(lambda self: self._per_point(self.base_rows))
    ri_mate = cached_property(lambda self: self._per_point(self.mate_rows))

    @property
    def masked_fraction(self):
        return float(self.masked.mean())

    def valid_indices(self):
        return np.nonzero(~self.masked)[0]

    def _image_jets(self):
        """The T, N and B jets of base and then mate at ``ts[~masked]``:
        the ones detection holds, of order 2 or 4, else of order 4 from
        one order-6 request and one ``_frames`` pass per curve."""
        if self._images is not None:
            return self._images
        ts = self.ts[~self.masked]
        return _image_frames(c.jet(ts, _FRENET_ORDER + 2) for c in (self.base, self.mate))


def _grid(curve: Curve, k: int):
    """k evenly spaced parameter values over the curve's domain, both ends
    included: a mate's nodes and ``linear_relation_fit``'s samples."""
    return np.linspace(*curve.domain, k)


def _pair_order(images: bool) -> int:
    """The order of the one request ``_pair_columns`` makes of a base on
    its shared path: 6, whose mate frame reaches order 2, or 8 with
    ``images``, whose mate frame reaches order 4."""
    return _FRENET_ORDER + (4 if images else 2)


def _overlap_grid(base: Curve, mate: Curve, n: int, inset: float = 1e-6):
    lo = max(base.domain[0], mate.domain[0])
    hi = min(base.domain[1], mate.domain[1])
    if not lo < hi:
        raise GridMismatchError(
            f"domains {base.domain} and {mate.domain} do not overlap"
        )
    pad = inset * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


def _offset_along(D, axis):
    """Each row of D's signed offset along the unit row of ``axis``, and its
    transverse norm; ``axis`` may stack several sets of rows, (k, N, 3),
    which give (k, N) offsets and norms, each row with the bits it gets
    alone."""
    lam = (D * axis).sum(axis=-1)
    return lam, np.linalg.norm(D - lam[..., None] * axis, axis=-1)


def _read_only(jet):
    jet.coeffs.setflags(write=False)
    jet.basepoint.setflags(write=False)
    return jet


def _pair_columns(base: Curve, mate: Curve, ts, images: bool):
    """Both curves' Frenet rows at the shared parameter ``ts``, at the
    points ``ts[both]`` where both are regular, the mate evaluated only
    where the base is: ``(base_rows, mate_rows, both, errors, jets)``.
    ``errors`` holds the base's SingularPointErrors and then the mate's.
    On the shared path ``jets`` is ``(frame, mate_ok, mate_core)``: the
    base's T, N and B jets at its regular points, the mask of those where
    the mate is regular too, and the mate's ``_columns`` core jets (g',
    |g'|, g' x g'', |g' x g''|) there, from which ``detect_bertrand`` cuts
    and takes the six image jets it holds; else None.  Nothing here
    copies or builds a frame that the caller may drop.

    Every pair takes one path: the base is asked once for its grid jet P,
    one Frenet pass (``_columns``) over P gives its rows, and one over the
    mate's position jet at the base's regular points gives the mate's.
    A mate that ``construct_mate`` built on this very base (its
    ``_offset_of``) is asked for nothing: its jet is P + lam N with the N
    of the base's pass, and P is of order ``_pair_order(images)``, with
    the same bits in the rows and in the frames' low orders.  Any other
    pair asks each curve at ``_FRENET_ORDER``, as a stencil's width and a
    normal offset's bits depend on the order asked.  Neither curve's node
    table is read here.
    """
    shared = mate._offset_of is not None and mate._offset_of[0] is base
    P = base.jet(ts, _pair_order(images) if shared else _FRENET_ORDER)
    base_rows, ok, errors, core = _columns(P, ts)
    if shared:
        frame = _frame(*core)
        # the mate only where the base is regular, where its N is defined
        P_mate = P.take(ok) + mate._offset_of[1] * frame[1]
    else:
        P_mate = mate.jet(ts[ok], _FRENET_ORDER)
    mate_rows, mate_ok, mate_errors, mate_core = _columns(P_mate, ts[ok])
    base_rows = _take_rows(base_rows, mate_ok)
    ok[ok] = mate_ok
    jets = (frame, mate_ok, mate_core) if shared else None
    return base_rows, mate_rows, ok, errors + mate_errors, jets


def detect_bertrand(
    base: Curve,
    mate: Curve,
    n: int = 128,
    tol_align: float = TOL_ALIGN,
    tol_const: float = TOL_CONST,
    inset: float = 1e-6,
    images: bool = False,
) -> BertrandPairModel:
    """Check the Bertrand-pair definition and assemble the pair model.

    ``inset`` trims a fraction of the overlap interval at each end; useful
    for sampled curves whose end stencils are one-sided; one outside
    [0, 0.5) raises ParameterError.  Raises TooFewSamplesError for a grid
    of fewer than 8 points and NotAPairError with a reason of
    'offset-not-normal' (also for curves that coincide, whose offset is
    below ``_EPS_COINCIDE`` at every point), 'lambda-varies' or
    'normals-not-aligned'.  The pair keeps the rows that
    ``_pair_columns`` evaluates on the grid and, on its shared path, the
    six image jets, which detection cuts, takes at the pair's regular
    points and freezes once the pair is accepted: the base's frame jets
    that ``_pair_columns`` hands back and the mate's frame, built from the
    mate's core jets.  By default they are cut to order 2,
    from an order-6 run of the base: the point and frame of each image,
    all that the suite's ``negative-result`` reads.  ``images`` asks for
    the order-8 run whose frames, cut to order 4, give each image's full
    Frenet rows, as the CLI ``indicatrix`` reads one of them.
    """
    if n < 8:
        raise TooFewSamplesError(f"detection grid of {n} points; need at least 8")
    if not 0.0 <= inset < 0.5:
        raise ParameterError(f"inset must lie in [0, 0.5), got {inset}")
    ts = _overlap_grid(base, mate, n, inset=inset)
    base_rows, mate_rows, ok, _, jets = _pair_columns(base, mate, ts, images)
    if np.count_nonzero(ok) < max(8, n // 4):
        raise NotAPairError("offset-not-normal", "too few regular points")

    offsets = mate_rows.point - base_rows.point
    scale = float(np.linalg.norm(offsets, axis=1).max())
    if scale < _EPS_COINCIDE:
        raise NotAPairError(
            "offset-not-normal", f"the curves coincide (max offset {scale:.3e})")

    # offset must lie along the principal normal
    lam_signed, resid = _offset_along(offsets, base_rows.N)
    if resid.max() > math.sqrt(tol_align) * scale:
        raise NotAPairError(
            "offset-not-normal", f"max transverse component {resid.max():.3e}"
        )
    lam_stat = ConstancyStat.of(lam_signed)
    if lam_stat.max_deviation > tol_const * (1.0 + abs(lam_stat.mean)):
        raise NotAPairError("lambda-varies", f"max deviation {lam_stat.max_deviation:.3e}")

    dots = (base_rows.N * mate_rows.N).sum(axis=1)
    if np.abs(dots).min() < 1.0 - tol_align:
        raise NotAPairError(
            "normals-not-aligned", f"min |<N, N_mate>| = {np.abs(dots).min():.6f}"
        )
    signs = np.sign(dots)
    eps = int(signs[len(signs) // 2])
    # a permissive tolerance (diagnostic use) also waives sign consistency
    if tol_align < 0.5 and (signs != eps).any():
        raise NotAPairError("normals-not-aligned", "sign of <N, N_mate> flips")

    p1, p2 = map(ConstancyStat.of, projection_constants(mate_rows.g[mate_rows.g_defined]))
    q1, q2 = map(ConstancyStat.of, projection_constants(base_rows.g[base_rows.g_defined]))
    pair = BertrandPairModel(
        base=base, mate=mate, lam=lam_stat.mean, epsilon=eps, ts=ts,
        base_rows=base_rows, mate_rows=mate_rows,
        p1=p1, p2=p2, q1=q1, q2=q2, lambda_stat=lam_stat, masked=~ok,
    )
    if jets is not None:
        frame, mate_ok, mate_core = jets
        # the order the image passes read: 2 for the poses, 4 for full rows
        cut = _FRENET_ORDER if images else 2
        pair._images = tuple(map(_read_only, (
            *(v.truncate(cut).take(mate_ok) for v in frame),
            *(v.truncate(cut) for v in _frame(*mate_core)))))
    return pair


def pair_constraint_residual(pair: BertrandPairModel, t: float) -> float:
    """The constraint residual (``paper._constraint_residuals``) at t, from
    a fresh evaluation of both curves there (``_pair_columns``); raises
    the SingularPointError of the base at t, else of the mate."""
    fd, fdm, _, errors, _ = _pair_columns(pair.base, pair.mate, np.array([t], float), False)
    if errors:
        raise errors[0]
    return float(_constraint_residuals(fd, fdm, pair.epsilon)[0])


def linear_relation_fit(curve: Curve, n: int = 64):
    """Least-squares (a, b) with a*kappa + b*tau = 1 over the n samples
    ``_grid(curve, n)``, from one order-4 request of the curve there,
    which a ``curves.held`` curve may serve."""
    if n < 8:
        raise ValueError("n must be >= 8")
    rows, _, _ = _frenet_columns(curve, _grid(curve, n))
    A = np.stack([rows.kappa, rows.tau], axis=1)
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


def _sphere_checks(seed_jet, omega):
    """Raise unless the seed, at the columns of its jet (order 2 or more),
    is on the unit sphere, regular and of non-constant geodesic curvature
    kg, and the output at angle ``omega`` has no inflection there; return
    the sign s of sin(omega) - kg cos(omega), the same at every probe.
    """
    probes = seed_jet.basepoint
    p, d1, half_d2 = seed_jet.coeffs[:3].transpose(0, 2, 1)
    r = np.linalg.norm(p, axis=1)
    v = np.linalg.norm(d1, axis=1)
    # the first failing probe raises, off the sphere before irregular
    off = np.abs(r - 1.0) > 1e-8
    bad = off | (v < 1e-9)
    if bad.any():
        i = np.argmax(bad)
        if off[i]:
            raise NotSphericalError(f"|c({probes[i]})| = {r[i]}, not on the unit sphere")
        raise DegenerateSphereCurveError(f"sphere curve irregular at u={probes[i]}")
    kg = np.sum(_cross_rows(p, d1) * (2.0 * half_d2), axis=1) / v**3
    spread = np.max(kg) - np.min(kg)
    if spread < 1e-8 * (1.0 + np.max(np.abs(kg))):
        raise DegenerateSphereCurveError(
            "geodesic curvature of the sphere curve is constant: output is a helix"
        )
    # the output's dT/dt is a multiple of (sin(omega) - kg cos(omega)) c',
    # so its curvature vanishes where kg = tan(omega), and its N is s c'
    bend = math.sin(omega) - kg * math.cos(omega)
    if np.min(bend) <= 0.0 <= np.max(bend):
        raise ParameterError(
            f"omega = {omega} gives the output an inflection: tan(omega) = {math.tan(omega):.6g} "
            f"lies in the seed's geodesic curvature range [{np.min(kg):.6g}, {np.max(kg):.6g}]")
    return 1.0 if bend[0] > 0.0 else -1.0


def _velocity(Cj, a, cot):
    """dgamma/du = a (V c + cot(omega) c x dc/du), with V = |dc/du|, as a
    jet in the seed's u from the seed's jet Cj, one order below Cj's: the
    walk's rate and the derivative of a generated curve's jet."""
    Dj = Cj.deriv()
    V = jsqrt(jdot(Dj, Dj))
    return a * (V * Cj + cot * jcross(Cj, Dj))


def generate_bertrand_curve(
    sphere_curve: Curve, a: float, omega: float, n: int = 2048
) -> JetBackedCurve:
    """Bertrand test curve from a spherical seed, in the seed's parameter.

    With c(u) the seed and V = |dc/du| its speed, the output is the
    integral of a*(V c + cot(omega) * c x dc/du) du (``_velocity``), which
    is a*(c + cot(omega) * c x c') in the seed's arc length.  Its
    curvature and torsion satisfy s*a*kappa + a*cot(omega)*tau = 1, with s
    the sign of sin(omega) - kg cos(omega) (kg the seed's geodesic
    curvature), so the normal offset by lambda = s*a, the metadata's
    ``nominal_lambda``, produces a Bertrand mate.  The curve's params are
    the n+1 walk nodes, ``linspace(*sphere_curve.domain, n + 1)``, and its
    domain is the seed's.  Jets of the output are exact: a request at u
    integrates ``_velocity`` of the seed's jet at u from the walk's
    position series of the segment that holds u.  The speed is
    a*V/|sin(omega)|, not constant, so the output's arc length is not its
    parameter.  An n below 2, a walk of one segment, raises
    ParameterError before the seed is evaluated; so does an omega whose
    output has an inflection at any walk midpoint or at either end node.
    """
    if not 0.0 < a < math.inf:
        raise ParameterError(f"a must be finite and positive, got {a}")
    if not 0.0 < omega < math.pi or abs(omega - math.pi / 2) < 1e-12:
        raise ParameterError(f"omega must lie in (0, pi), omega != pi/2, got {omega}")
    if n < 2:
        raise ParameterError(f"the generator needs n >= 2, got {n}")
    cot = 1.0 / math.tan(omega)
    lo, hi = sphere_curve.domain
    us = np.linspace(lo, hi, n + 1)

    # node walk: accumulate the position by series steps, the series of
    # every step from one batch at the midpoints; the sphere checks read
    # every midpoint, first, and both end nodes
    probes = sphere_curve.jet(np.concatenate((0.5 * (us[:-1] + us[1:]), us[[0, n]])), 10)
    s = _sphere_checks(probes, omega)
    # segment k's position P_nodes[k] + AG_k(u) - AG_k(us[k])
    P_nodes, AG, AG_left = _integrate(_velocity(probes.take(slice(0, n)), a, cot), us)
    P_nodes = np.ascontiguousarray(P_nodes.T)

    def jet_fn(u, order):
        # truncated Taylor arithmetic gives the low coefficients the same
        # bits at every order, so each request runs at its own order and
        # an order-8 run cut to order k has the bits of an order-k
        # request; order 0 runs at 1, since the rate reads dc/du
        G = _velocity(sphere_curve.jet(u, max(order, 1)), a, cot)
        # the position from the walk's series, so that it has the same
        # bits at every order
        k = np.clip(np.searchsorted(us, u) - 1, 0, n - 1)
        x0 = P_nodes[k].T + AG.take(k)(u) - AG_left[:, k]
        return G.antideriv(x0).truncate(order)

    meta = {
        "generator": "bertrand",
        "a": a,
        "omega": omega,
        "nominal_lambda": a if s > 0.0 else -a,
        "n": n,
        "seed_label": sphere_curve.label,
    }
    return JetBackedCurve(
        jet_fn, us, P_nodes, label=f"bertrand({sphere_curve.label or 'seed'})",
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# spherical seed presets


def _normalized_analytic(x, y, z, domain, label):
    """Build (x,y,z)/|(x,y,z)| as an analytic unit-sphere curve, whose
    trees hold one copy of each component and of the normaliser."""
    xyz = [ex.parse_expression(c) for c in (x, y, z)]
    sq = [ex.PowConst(c, 2.0) for c in xyz]
    norm = ex.Unary("sqrt", ex.Binary("add", ex.Binary("add", sq[0], sq[1]), sq[2]))
    return AnalyticCurve(*(ex.Binary("div", c, norm) for c in xyz), domain, label=label)


SPHERE_PRESETS = {}
# each factory of SPHERE_PRESETS -> its curve, built at the first request
_PRESET_BUILDS = {}


def sphere_preset(name: str) -> Curve:
    """Named spherical seed curves for the generator.

    Every preset is an ``AnalyticCurve``; ``slant`` is the spherical
    helix whose generated curve is a slant helix.  Each preset is built
    once per process, at its first request (0.02-0.2 ms to parse), and
    every call returns a shallow copy of that build; a caller that asks
    again, such as ``load_curve`` rebuilding a generated file, gains.
    Setting ``jet`` or ``label`` on one copy leaves the others unchanged;
    the copies share the build's expressions, which nothing writes.
    """
    if name not in SPHERE_PRESETS:
        raise KeyError(f"unknown sphere preset {name!r}; have {sorted(SPHERE_PRESETS)}")
    factory = SPHERE_PRESETS[name]
    if factory not in _PRESET_BUILDS:
        _PRESET_BUILDS[factory] = factory()
    return copy.copy(_PRESET_BUILDS[factory])


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
            # a spherical helix, <T, e3> = m = 0.45, in the angle
            # psi = asin(m s / sqrt(1 - m^2)) of its arc length s in [0.25, 1.05]
            "slant": lambda: AnalyticCurve(
                "cos(t)*cos(t/0.45) + 0.45*sin(t)*sin(t/0.45)",
                "cos(t)*sin(t/0.45) - 0.45*sin(t)*cos(t/0.45)",
                "sqrt(1 - 0.45^2)*sin(t)",
                (0.1263114213076532, 0.5575377345920126),
                "slant",
            ),
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
    its ``nominal_lambda``, and run detection."""
    if omega is None:
        omega = DEFAULT_OMEGA.get(preset, math.pi / 3.0)
    base = generate_bertrand_curve(sphere_preset(preset), a=a, omega=omega, n=n)
    mate = construct_mate(base, base.metadata["nominal_lambda"], n=n)
    return detect_bertrand(base, mate, n=grid)
