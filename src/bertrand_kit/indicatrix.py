"""Spherical indicatrices of a Bertrand pair and their closed-form apparatus.

Six indicatrices: the tangent, principal-normal and binormal images of
the base curve and of its mate.  Closed forms for the base-side
indicatrices are expressed in mate-side quantities and vice versa; the
data side is always the *other* curve of the pair.

Sign conventions: curvature/torsion closed forms are stored in signed form,
which makes some of them negative where the direct numerical
curvature (always positive) is not.  Comparisons against direct
numerics are therefore made on magnitudes, with the sign pattern
reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bertrand import (
    EPS_DEN,
    BertrandPairModel,
    ConstancyStat,
    _image_frames,
    _require_g,
    geodesic_indicator_closed_form,
)
from .curves import (
    _FRENET_ORDER,
    FrenetData,
    SampledCurve,
    _columns,
    _frenet_columns,
    _frenet_rows,
    _points_at,
    _take_rows,
    cumulative_trapezoid,
)
from .jets import Jet

AXES = ("tangent", "normal", "binormal")
SIDES = ("base", "mate")


class IndicatrixSample(NamedTuple):
    """Closed-form apparatus of one indicatrix at each row of a grid, as a
    named tuple of (N,) arrays and (N, 3) vectors.  ``apparatus_grid``
    returns its one-point views (floats and (3,) vectors)."""

    t: np.ndarray
    point: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray  # signed closed form (may disagree with |.| below)
    tau: np.ndarray
    kappa_image: np.ndarray  # corrected values matching the imaged curve itself
    tau_image: np.ndarray
    Gamma: np.ndarray  # NaN for the normal axis


def indicatrix_curve(curve, axis, n) -> SampledCurve:
    """Sampled spherical image of the Frenet vector of ``axis``, from one
    Frenet grid of n points over the domain; singular points dropped."""
    vec = dict(zip(AXES, "TNB"))[axis]
    lo, hi = curve.domain
    rows, _, _ = _frenet_columns(curve, np.linspace(lo, hi, n))
    return SampledCurve(rows.t, getattr(rows, vec),
                        label=f"{curve.label or 'curve'}:{axis}-image")


def image_rows(curve, ts):
    """The exact Frenet columns of the T, N and B images of a curve at
    ``ts``, as ``_frenet_columns`` gives them, from one request of the
    curve's order-6 jet, one frame pass and one Frenet pass over 3 len(ts)
    columns, the T image's first: the T image is the curve whose position
    jet is T's jet, and likewise N and B."""
    ts = np.asarray(ts, dtype=float)
    return _image_columns(_image_frames((curve.jet(ts, _FRENET_ORDER + 2),)), ts)


def _image_columns(images, ts):
    """The ``_frenet_columns`` of each image curve whose order-4 position
    jet about ``ts`` is one of ``images``, concatenated image by image,
    from one ``_columns`` pass over their stacked columns.  Every step
    works column by column, so each image's rows have the bits of its own
    pass."""
    ts_all = np.tile(ts, len(images))
    P = Jet(ts_all, np.concatenate([v.coeffs for v in images], axis=-1))
    return _columns(P, ts_all)[:3]


def _other_side(side: str) -> str:
    return "mate" if side == "base" else "base"


def _curve(pair: BertrandPairModel, side: str):
    return pair.base if side == "base" else pair.mate


def _failures(side: str, fd: FrenetData) -> dict:
    """The rows of the data-side Frenet rows where each condition of the
    closed forms of ``side``'s images fails, as one mask per condition
    keyed by the failure: g = f, 1 + f*g = 0, and on the mate side, whose
    geodesic indicator divides by f, f = 0."""
    f, g = fd.f, fd.g
    fails = {"g = f": ~(np.abs(f - g) > EPS_DEN), "1 + f g = 0": ~(np.abs(1.0 + f * g) >= 1e-12)}
    if side == "mate":
        fails["f = 0"] = ~(np.abs(f) > EPS_DEN)
    return fails


def _applies(side: str, fd: FrenetData) -> np.ndarray:
    """Rows of the data-side Frenet rows where the closed forms of
    ``side``'s images apply: g is defined and no condition of
    ``_failures`` fails."""
    return fd.g_defined & ~np.any(tuple(_failures(side, fd).values()), axis=0)


def _col(a):
    return a[:, None]


def _gamma_big(fd: FrenetData, ds_x_dsrc):
    """Shared geodesic-indicator expression of the tangent/binormal images.

    ``ds_x_dsrc`` is the derivative of the indicatrix arc length with
    respect to the data-side arc length.
    """
    k, kp, kpp = fd.kappa, fd.dkappa_ds, fd.d2kappa_ds2
    f, g = fd.f, fd.g
    wf2 = 1.0 + f * f
    num = -(k**3) * wf2**1.5 * (g - f) ** 2 * (kpp * k * wf2 - 3.0 * kp * kp * (1.0 + f * g))
    den = np.sqrt(1.0 + g * g) * (k**4 * wf2**3 + kp * kp * (f - g) ** 2) ** 1.5
    return num / den / ds_x_dsrc


def _images(side: str, fd: FrenetData, eps: int) -> dict:
    """Closed-form apparatus of ``side``'s three images, keyed by axis, at
    each row of the data-side Frenet rows ``fd`` (rows where the closed
    forms apply, ``_applies``), from one pass over the data-side
    quantities."""
    f, g = fd.f, fd.g
    k, kp, kpp = fd.kappa, fd.dkappa_ds, fd.d2kappa_ds2
    wf = np.sqrt(1.0 + f * f)
    wg = np.sqrt(1.0 + g * g)
    T, N, B = fd.T, fd.N, fd.B
    # unit vectors of the data side's rectifying plane
    U = (T - _col(f) * B) / _col(wf)
    V = (_col(f) * T + B) / _col(wf)

    # ratio tau/kappa of the *imaged* curve and its slant indicator, both
    # written in data-side quantities; these drive the corrected scalar
    # values of the tangent and binormal images that track the imaged
    # curve's own apparatus
    f_img = -eps * (g - f) / (1.0 + f * g)
    wfi = np.sqrt(1.0 + f_img * f_img)
    G_img = geodesic_indicator_closed_form(fd, side=side)
    # the tangent and binormal images share B, |kappa|, |tau| and Gamma
    kx = wf * wg / (f - g)
    tx = kp * wg / (k * k * (1.0 + f * f))
    Gx = _gamma_big(fd, k * (f - g) / wg)
    if side == "mate":
        Gx = -Gx
    # the imaged tangent vector written in data-side frame vectors; its
    # corrected pair is kappa = sqrt(1+f_img^2), tau = Gamma*kappa
    tangent = IndicatrixSample(fd.t, (T - _col(g) * B) / _col(wg), -N, U, V, kx,
                               tx if side == "mate" else -tx, wfi, G_img * wfi, Gx)
    binormal = IndicatrixSample(fd.t, eps * (_col(g) * T + B) / _col(wg), eps * N, -eps * U,
                                V, kx, -eps * tx, wfi / np.abs(f_img), -G_img * wfi / f_img,
                                Gx)

    rho = np.sqrt(kp * kp * (g - f) ** 2 + k**4 * (1.0 + f * f) ** 3)
    Nx = _col(eps / (rho * wf)) * (
        _col(f * kp * (g - f)) * T - _col(k * k * (1.0 + f * f) ** 2) * N
        + _col(kp * (g - f)) * B
    )
    Bx = _col(1.0 / rho) * (
        _col(k * k * f * (1.0 + f * f)) * T + _col(kp * (g - f)) * N
        + _col(k * k * (1.0 + f * f)) * B
    )
    kn = rho / (k * k * (1.0 + f * f) ** 1.5)
    tn = -eps * (g - f) / rho**2 * (
        (3.0 * kp * kp - k * kpp) * (1.0 + f * f) + 3.0 * f * kp * kp * (g - f))
    normal = IndicatrixSample(fd.t, eps * N, -eps * U, Nx, Bx, kn, tn, kn, tn,
                              np.full(len(k), np.nan))
    return {"tangent": tangent, "normal": normal, "binormal": binormal}


def _data_rows(pair: BertrandPairModel, side: str, ts):
    """The data-side Frenet rows at the points of ``ts`` where the closed
    forms of ``side``'s images apply, from one evaluation of the data-side
    curve, and the grid index of each row."""
    rows, regular, _ = _frenet_columns(_curve(pair, _other_side(side)), ts)
    ok = _applies(side, rows)
    return _take_rows(rows, ok), np.flatnonzero(regular)[ok]


def apparatus_grid(pair: BertrandPairModel, side: str, axis: str, ts):
    """Closed-form samples over a grid, from one evaluation of the
    data-side curve, as the one-point views of the closed-form rows;
    degenerate points become None.  Raises ValueError for a side or axis
    that names no image."""
    if side not in SIDES or axis not in AXES:
        raise ValueError(f"bad indicatrix kind {side}/{axis}")
    fd, idx = _data_rows(pair, side, ts)
    return _points_at(_images(side, fd, pair.epsilon)[axis], idx, len(ts))


def _frame_relations(side: str, images: dict, eps: int) -> dict:
    """Max deviation of the four frame relations among ``side``'s image
    frames, over their rows.

    Base side: T_t = -eps T_b, T_n = -eps N_t = N_b, B_t = B_b; mate side:
    the tilde counterparts with N_t = -eps T_n = -eps N_b.
    """
    st, sn, sb = (images[axis] for axis in AXES)
    if side == "base":
        n_t, n_b = sn.T - (-eps) * st.N, sn.T - sb.N
    else:
        n_t, n_b = st.N - (-eps) * sn.T, st.N - (-eps) * sb.N
    rel = {"Tt_vs_Tb": st.T - (-eps) * sb.T, "Tn_vs_Nt": n_t, "Tn_vs_Nb": n_b,
           "Bt_vs_Bb": st.B - sb.B}
    return {f"{side}:{key}": float(np.max(np.linalg.norm(v, axis=1), initial=0.0))
            for key, v in rel.items()}


def frame_relations_check(pair: BertrandPairModel, n: int = 64) -> dict:
    """Max deviation of the frame relations among indicatrix frames, both
    sides, on n points spanning the detection grid, with the number of
    points masked on either side."""
    ts = np.linspace(pair.ts[0], pair.ts[-1], n)
    report = {}
    masked = 0
    for side in SIDES:
        fd, idx = _data_rows(pair, side, ts)
        masked += n - len(idx)
        report.update(_frame_relations(side, _images(side, fd, pair.epsilon), pair.epsilon))
    report["masked_points"] = masked
    return report


@dataclass(frozen=True)
class AffineFit:
    slope: float
    intercept: float
    rms_residual: float


def _affine_fit(x, y) -> AffineFit:
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return AffineFit(slope=float(coef[0]), intercept=float(coef[1]), rms_residual=resid)


@dataclass
class ArcLengthRelations:
    ts: np.ndarray
    s_src: np.ndarray  # arc length of the data-side curve (s* for base side)
    s_n: np.ndarray
    s_b: np.ndarray  # also the closed-form tangent-image arc length
    s_t_direct: np.ndarray  # integral of |T'| along the imaged curve
    s_n_direct: np.ndarray  # integral of |N'|
    s_b_direct: np.ndarray  # integral of |B'|
    affine_fit: AffineFit  # s_b against s_src
    c1: float
    c1_deviation: float  # max deviation of the defining expression from its mean
    c2: float
    predicted_slope: float  # |ds_b/ds_src| implied by the constancy argument


def _arclength_relations(side: str, src: FrenetData, img: FrenetData, lam: float,
                         eps: int) -> ArcLengthRelations:
    """Cumulative indicatrix arc lengths and the affine law for s_b over
    rows: ``src`` are the data-side Frenet rows (g defined), ``img`` the
    imaged curve's rows at the same t.

    The tangent/binormal integrand is kappa(f-g)/sqrt(1+g^2) in data-side
    quantities; the normal integrand is kappa*sqrt(1+f^2).  The affine
    constant c1 is measured from the constancy of the same expression,
    following the displayed identity kappa^2 f' / (kappa' sqrt(1+g^2)).
    """
    ts = src.t
    f, g, k = src.f, src.g, src.kappa
    wg = np.sqrt(1.0 + g * g)
    # c1 candidate via f' = kappa'(g - f)/kappa (arc-length primes)
    fprime = src.dkappa_ds * (g - f) / k
    expr_vals = k * k * fprime / (src.dkappa_ds * wg)
    # the six rates as stacked rows of one quadrature
    s_src, s_tb, s_n, s_t_direct, s_n_direct, s_b_direct = cumulative_trapezoid(ts, np.stack((
        src.speed,  # d s_src / dt
        k * (f - g) / wg * src.speed,  # d s_t/dt = d s_b/dt
        k * np.sqrt(1.0 + f * f) * src.speed,  # d s_n/dt
        img.kappa * img.speed,  # |T'| of the imaged curve
        np.hypot(img.kappa, img.tau) * img.speed,  # |N'|
        np.abs(img.tau) * img.speed,  # |B'|
    )))
    fit = _affine_fit(s_src, s_tb)
    expr = ConstancyStat.of(expr_vals)
    # base side: expr = -eps c1 / lambda; mate side: expr = c1 / lambda.
    # Either way the implied |slope| of s_b against s_src is |expr|.
    if side == "base":
        c1 = -eps * lam * expr.mean
    else:
        c1 = lam * expr.mean
    return ArcLengthRelations(
        ts=ts,
        s_src=s_src,
        s_n=s_n,
        s_b=s_tb,
        s_t_direct=s_t_direct,
        s_n_direct=s_n_direct,
        s_b_direct=s_b_direct,
        affine_fit=fit,
        c1=c1,
        c1_deviation=expr.max_deviation,
        c2=fit.intercept,
        predicted_slope=abs(expr.mean),
    )


def indicatrix_arclength_relations(pair: BertrandPairModel, side: str,
                                   n: int = 256) -> ArcLengthRelations:
    """Cumulative indicatrix arc lengths and the affine law for s_b on
    n + 1 points spanning the detection grid, from one evaluation of each
    curve.  Raises SingularPointError where either curve is singular and
    DegenerateRatioError where g of the data side is undefined."""
    ts = np.linspace(pair.ts[0], pair.ts[-1], n + 1)
    src = _frenet_rows(_curve(pair, _other_side(side)), ts)
    img = _frenet_rows(_curve(pair, side), ts)
    _require_g(src)
    return _arclength_relations(side, src, img, pair.lam, pair.epsilon)
