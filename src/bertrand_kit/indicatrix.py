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

import math
from dataclasses import dataclass

import numpy as np

from .bertrand import (
    BertrandPairModel,
    RatioInvariants,
    geodesic_indicator_closed_form,
    ratio_invariants,
)
from .curves import FrenetData, SampledCurve, cumulative_trapezoid, frenet_grid
from .errors import DegenerateRatioError, SingularPointError

AXES = ("tangent", "normal", "binormal")
SIDES = ("base", "mate")


@dataclass(frozen=True)
class IndicatrixKind:
    side: str  # 'base' | 'mate'
    axis: str  # 'tangent' | 'normal' | 'binormal'

    def __post_init__(self):
        if self.side not in SIDES or self.axis not in AXES:
            raise ValueError(f"bad indicatrix kind {self.side}/{self.axis}")


@dataclass(frozen=True)
class IndicatrixSample:
    kind: IndicatrixKind
    t: float
    point: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float  # signed closed form (may disagree with |.| below)
    tau: float
    kappa_image: float  # corrected values matching the imaged curve itself
    tau_image: float
    Gamma: float  # NaN for the normal axis
    rho_or_sigma: float  # NaN except for the normal axis
    ds_x_dt: float  # speed of the indicatrix in the shared parameter


def indicatrix_images(curve, n) -> dict:
    """The sampled spherical images of T, N and B, keyed by axis, from one
    Frenet grid of n points over the domain; singular points dropped."""
    lo, hi = curve.domain
    fds = [fd for fd in frenet_grid(curve, np.linspace(lo, hi, n)) if fd is not None]
    ts = np.array([fd.t for fd in fds])
    return {
        axis: SampledCurve(ts, np.array([getattr(fd, vec) for fd in fds]),
                           label=f"{curve.label or 'curve'}:{axis}-image")
        for axis, vec in zip(AXES, "TNB")
    }


def indicatrix_curve(curve, axis, n) -> SampledCurve:
    """Sampled spherical image of a Frenet vector; singular points dropped."""
    return indicatrix_images(curve, n)[axis]


def _other_side(side: str) -> str:
    return "mate" if side == "base" else "base"


def _data_side(pair: BertrandPairModel, side: str, t: float):
    """Frenet data and ratio invariants of the curve the closed forms read.

    Base-side indicatrix formulas consume mate quantities; mate-side
    formulas consume base quantities.
    """
    fd = pair.frenet(_other_side(side), t)
    ri = ratio_invariants(fd)
    if not ri.g_defined:
        raise DegenerateRatioError(f"g undefined at t={t}")
    return fd, ri


def _gamma_big(fd: FrenetData, ri: RatioInvariants, ds_x_dsrc: float) -> float:
    """Shared geodesic-indicator expression of the tangent/binormal images.

    ``ds_x_dsrc`` is the derivative of the indicatrix arc length with
    respect to the data-side arc length.
    """
    k, kp, kpp = fd.kappa, fd.dkappa_ds, fd.d2kappa_ds2
    f, g = ri.f, ri.g
    wf2 = 1.0 + f * f
    num = -(k**3) * wf2**1.5 * (g - f) ** 2 * (kpp * k * wf2 - 3.0 * kp * kp * (1.0 + f * g))
    den = math.sqrt(1.0 + g * g) * (k**4 * wf2**3 + kp * kp * (f - g) ** 2) ** 1.5
    return num / den / ds_x_dsrc


def _closed_form(kind: IndicatrixKind, fd: FrenetData, ri: RatioInvariants, eps: int,
                 t: float, speed_src: float) -> IndicatrixSample:
    f, g = ri.f, ri.g
    k, kp, kpp = fd.kappa, fd.dkappa_ds, fd.d2kappa_ds2
    wf = math.sqrt(1.0 + f * f)
    wg = math.sqrt(1.0 + g * g)
    if abs(f - g) < 1e-12:
        raise DegenerateRatioError(f"f = g at t={t}")
    T, N, B = fd.T, fd.N, fd.B
    mate_side = kind.side == "mate"

    # ratio tau/kappa of the *imaged* curve and its slant indicator, both
    # written in data-side quantities; these drive the corrected scalar
    # values that track the imaged curve's own apparatus
    if abs(1.0 + f * g) < 1e-12:
        raise DegenerateRatioError(f"1 + f*g = 0 at t={t}")
    f_img = -eps * (g - f) / (1.0 + f * g)
    wfi = math.sqrt(1.0 + f_img * f_img)
    G_img = geodesic_indicator_closed_form(fd, ri, side=kind.side)

    if kind.axis == "tangent":
        # the imaged tangent vector written in data-side frame vectors
        point = (T - g * B) / wg
        Tx = -N
        Nx = (T - f * B) / wf
        Bx = (f * T + B) / wf
        kx = wg * wf / (f - g)
        tx = kp * wg / (k * k * (1.0 + f * f))
        if not mate_side:
            tx = -tx
        # the signed scalars coincide with the binormal-image values; the
        # corrected pair follows the tangent image: kappa = sqrt(1+f_img^2),
        # tau = Gamma*kappa
        kxi = wfi
        txi = G_img * wfi
        ds_x_dsrc = k * (f - g) / wg
        Gx = _gamma_big(fd, ri, ds_x_dsrc)
        if mate_side:
            Gx = -Gx
        return IndicatrixSample(kind, t, point, Tx, Nx, Bx, kx, tx, kxi, txi,
                                Gx, math.nan, abs(ds_x_dsrc) * speed_src)

    if kind.axis == "binormal":
        point = eps * (g * T + B) / wg
        Tx = eps * N
        Nx = -eps * (T - f * B) / wf
        Bx = (f * T + B) / wf
        kx = wf * wg / (f - g)
        tx = -eps * kp * wg / (k * k * (1.0 + f * f))
        kxi = wfi / abs(f_img)
        txi = -G_img * wfi / f_img
        ds_x_dsrc = k * (f - g) / wg
        Gx = _gamma_big(fd, ri, ds_x_dsrc)
        if mate_side:
            Gx = -Gx
        return IndicatrixSample(kind, t, point, Tx, Nx, Bx, kx, tx, kxi, txi,
                                Gx, math.nan, abs(ds_x_dsrc) * speed_src)

    # normal axis
    rho = math.sqrt(kp * kp * (g - f) ** 2 + k**4 * (1.0 + f * f) ** 3)
    point = eps * N
    Tx = -eps * (T - f * B) / wf
    Nx = (eps / (rho * wf)) * (
        f * kp * (g - f) * T - k * k * (1.0 + f * f) ** 2 * N + kp * (g - f) * B
    )
    Bx = (1.0 / rho) * (
        k * k * f * (1.0 + f * f) * T + kp * (g - f) * N + k * k * (1.0 + f * f) * B
    )
    kx = rho / (k * k * (1.0 + f * f) ** 1.5)
    tx = (
        -eps
        * (g - f)
        / rho**2
        * ((3.0 * kp * kp - k * kpp) * (1.0 + f * f) + 3.0 * f * kp * kp * (g - f))
    )
    ds_x_dsrc = k * wf
    return IndicatrixSample(kind, t, point, Tx, Nx, Bx, kx, tx, kx, tx,
                            math.nan, rho, abs(ds_x_dsrc) * speed_src)


def indicatrix_apparatus(pair: BertrandPairModel, side: str, axis: str,
                         t: float) -> IndicatrixSample:
    """Closed-form apparatus sample of one indicatrix at parameter t."""
    kind = IndicatrixKind(side, axis)
    fd, ri = _data_side(pair, side, t)
    return _closed_form(kind, fd, ri, pair.epsilon, t, fd.speed)


def tangent_indicatrix_apparatus(pair, side, t):
    return indicatrix_apparatus(pair, side, "tangent", t)


def normal_indicatrix_apparatus(pair, side, t):
    return indicatrix_apparatus(pair, side, "normal", t)


def binormal_indicatrix_apparatus(pair, side, t):
    return indicatrix_apparatus(pair, side, "binormal", t)


def apparatus_grid(pair: BertrandPairModel, side: str, axis: str, ts):
    """Closed-form samples over a grid; degenerate points become None."""
    pair.frenet_grid(_other_side(side), ts)
    out = []
    for t in ts:
        try:
            out.append(indicatrix_apparatus(pair, side, axis, t))
        except (SingularPointError, DegenerateRatioError):
            out.append(None)
    return out


def frame_relations_check(pair: BertrandPairModel, n: int = 64) -> dict:
    """Max deviation of the six frame relations among indicatrix frames.

    Base side: T_t = -eps T_b, T_n = -eps N_t = N_b, B_t = B_b; mate side:
    the tilde counterparts with N_t = -eps T_n = -eps N_b.
    """
    lo = pair.ts[0]
    hi = pair.ts[-1]
    ts = np.linspace(lo, hi, n)
    pair.frenet_grid("base", ts)
    pair.frenet_grid("mate", ts)
    eps = pair.epsilon
    report = {}
    masked = 0
    for side in SIDES:
        devs = {key: 0.0 for key in ("Tt_vs_Tb", "Tn_vs_Nt", "Tn_vs_Nb", "Bt_vs_Bb")}
        for t in ts:
            try:
                st = indicatrix_apparatus(pair, side, "tangent", t)
                sn = indicatrix_apparatus(pair, side, "normal", t)
                sb = indicatrix_apparatus(pair, side, "binormal", t)
            except (SingularPointError, DegenerateRatioError):
                masked += 1
                continue
            if side == "base":
                rel = {
                    "Tt_vs_Tb": st.T - (-eps) * sb.T,
                    "Tn_vs_Nt": sn.T - (-eps) * st.N,
                    "Tn_vs_Nb": sn.T - sb.N,
                    "Bt_vs_Bb": st.B - sb.B,
                }
            else:
                rel = {
                    "Tt_vs_Tb": st.T - (-eps) * sb.T,
                    "Tn_vs_Nt": st.N - (-eps) * sn.T,
                    "Tn_vs_Nb": st.N - (-eps) * sb.N,
                    "Bt_vs_Bb": st.B - sb.B,
                }
            for key, v in rel.items():
                devs[key] = max(devs[key], float(np.linalg.norm(v)))
        for key, v in devs.items():
            report[f"{side}:{key}"] = v
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


def indicatrix_arclength_relations(pair: BertrandPairModel, side: str,
                                   n: int = 256) -> ArcLengthRelations:
    """Cumulative indicatrix arc lengths and the affine law for s_b.

    The tangent/binormal integrand is kappa(f-g)/sqrt(1+g^2) in data-side
    quantities; the normal integrand is kappa*sqrt(1+f^2).  The affine
    constant c1 is measured from the constancy of the same expression,
    following the displayed identity kappa^2 f' / (kappa' sqrt(1+g^2)).
    """
    ts = np.linspace(pair.ts[0], pair.ts[-1], n + 1)
    pair.frenet_grid("base", ts)
    pair.frenet_grid("mate", ts)

    rows = []
    for t in ts:
        fd = pair.frenet(_other_side(side), t)
        ri = ratio_invariants(fd)
        if not ri.g_defined:
            raise DegenerateRatioError(f"g undefined at t={t}")
        f, g, k = ri.f, ri.g, fd.kappa
        wg = math.sqrt(1.0 + g * g)
        # c1 candidate via f' = kappa'(g - f)/kappa (arc-length primes)
        fprime = fd.dkappa_ds * (g - f) / k
        expr_c1 = k * k * fprime / (fd.dkappa_ds * wg)
        fdi = pair.frenet(side, t)
        rows.append(
            (
                fd.speed,  # d s_src / dt
                k * (f - g) / wg * fd.speed,  # d s_t/dt = d s_b/dt
                k * math.sqrt(1.0 + f * f) * fd.speed,  # d s_n/dt
                expr_c1,
                fdi.kappa * fdi.speed,  # |T'| of the imaged curve
                math.hypot(fdi.kappa, fdi.tau) * fdi.speed,  # |N'|
                abs(fdi.tau) * fdi.speed,  # |B'|
            )
        )
    r = np.array(rows)
    s_src, s_tb, s_n, _, s_t_direct, s_n_direct, s_b_direct = (
        cumulative_trapezoid(ts, col) for col in r.T
    )
    fit = _affine_fit(s_src, s_tb)
    expr_vals = r[:, 3]
    expr_mean = float(np.mean(expr_vals))
    expr_dev = float(np.max(np.abs(expr_vals - expr_mean)))
    # base side: expr = -eps c1 / lambda; mate side: expr = c1 / lambda.
    # Either way the implied |slope| of s_b against s_src is |expr|.
    if side == "base":
        c1 = -pair.epsilon * pair.lam * expr_mean
    else:
        c1 = pair.lam * expr_mean
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
        c1_deviation=expr_dev,
        c2=fit.intercept,
        predicted_slope=abs(expr_mean),
    )
