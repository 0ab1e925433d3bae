"""The closed forms of arXiv 1110.4269 and their hypotheses, each one array
expression over ``curves.FrenetData`` rows; a docstring names the
``theorem_suite`` entry that checks its form, where one does.  The closed
forms of one side's images read the *other* curve's rows, the data side;
the imaged curve's slant indicator is eps times the data rows' Gamma at
either eps (th2), so no closed form of its own is kept for it.  Curvature
and torsion closed forms are signed: numerics compare magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateRatioError
from .jets import _first

# |g - f| and |f| at or below EPS_DEN, |1 + f g| below EPS_ONE_PLUS_FG count as 0
EPS_DEN = 1e-10
EPS_ONE_PLUS_FG = 1e-12


def _col(a):
    return a[:, None]


def _raise_at(flags, fd, what):
    """Raise DegenerateRatioError naming the first row of ``fd`` flagged."""
    if np.any(flags):
        raise DegenerateRatioError(f"{what} at t={_first(flags, fd.t)}")


def _require_g(fd):
    """Raise where g is undefined at any row."""
    _raise_at(np.logical_not(fd.g_defined), fd, "g undefined")


def _failures(fd) -> dict:
    """The rows of the data-side Frenet rows where each condition of the
    closed forms of the images fails, as one mask per condition keyed by
    the failure: g = f and 1 + f*g = 0."""
    f, g = fd.f, fd.g
    return {"g = f": ~(np.abs(f - g) > EPS_DEN),
            "1 + f g = 0": ~(np.abs(1.0 + f * g) >= EPS_ONE_PLUS_FG)}


def _applies(fd) -> np.ndarray:
    """Rows of the data-side Frenet rows where the closed forms of the
    images apply: g is defined and no condition of ``_failures`` fails."""
    return fd.g_defined & ~np.any(tuple(_failures(fd).values()), axis=0)


def bertrand_lambda(fd) -> np.ndarray:
    """The mate's offset g / (kappa (g - f)) at each row, constant as g is
    on a Bertrand curve (th3, th22).  Needs g defined and g != f."""
    _require_g(fd)
    _raise_at(_failures(fd)["g = f"], fd, "g = f degeneracy")
    return fd.g / (fd.kappa * (fd.g - fd.f))


def projection_constants(g):
    """(1, g) / sqrt(1 + g^2) at each row: p1, p2 of the mate's g and q1, q2
    of the base's, constant on a Bertrand pair (p1p2-constancy)."""
    root = np.sqrt(1.0 + g * g)
    return 1.0 / root, g / root


def _tb_images(fd, wg, eps):
    """(T - g B) / wg and eps (g T + B) / wg, wg = sqrt(1 + g^2): the points
    of the other curve's T and B images."""
    return (fd.T - _col(fd.g) * fd.B) / _col(wg), eps * (_col(fd.g) * fd.T + fd.B) / _col(wg)


def _tangent_image_rate(fd, wg):
    """kappa (f - g) / wg: d s_t / d s = d s_b / d s of the other curve's
    images against the rows' arc length (cr14, cr33)."""
    return fd.kappa * (fd.f - fd.g) / wg


@dataclass(frozen=True)
class MateApparatus:
    """The mate's apparatus at each base row: (N, 3) vectors, (N,) arrays."""

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    ds_mate_ds: np.ndarray


def mate_apparatus_from_base(fd, eps: int) -> MateApparatus:
    """Frame, curvature, torsion and ds_m/ds of the mate in base quantities,
    at each row of the base's Frenet rows: T_m and B_m are the negated T
    and B image points, N_m = eps N.  Needs f != 0, as kappa_m and tau_m
    divide by f and ds_m/ds vanishes there (a cusp of the mate), and g != f."""
    _require_g(fd)
    _raise_at(~(np.abs(fd.f) > EPS_DEN) | _failures(fd)["g = f"], fd, "f = 0 or g = f")
    f, g, k = fd.f, fd.g, fd.kappa
    root = np.sqrt(1.0 + g * g)
    T_img, B_img = _tb_images(fd, root, eps)
    kappa_m = -eps * k * (g - f) * (1.0 + f * g) / (f * (1.0 + g * g))
    tau_m = k * (g - f) ** 2 / (f * (1.0 + g * g))
    return MateApparatus(T=-T_img, N=eps * fd.N, B=-B_img, kappa=kappa_m, tau=tau_m,
                         ds_mate_ds=f * root / (g - f))


def _constraint_residuals(fd, fdm, eps):
    """(kappa_m + eps*kappa) g g_m - eps f g_m kappa - f_m g kappa_m from
    base (fd) and mate (fdm) rows, at each row: 0 on a Bertrand pair
    (constraint-eq).  Needs g defined on both."""
    _require_g(fd)
    _require_g(fdm)
    return ((fdm.kappa + eps * fd.kappa) * fd.g * fdm.g
            - eps * fd.f * fdm.g * fd.kappa
            - fdm.f * fd.g * fdm.kappa)


def condition_residual(fd_tilde):
    """Normalized residual of kappa'' kappa f^2 - 3 kappa'^2 g f + kappa'' kappa - 3 kappa'^2,
    at each row.

    Vanishing marks the tangent (equivalently binormal) indicatrix as a
    spherical helix, and equally the principal-normal indicatrix as
    planar: both conditions are this one polynomial (th8, th17, th11 and
    cr18).  Quantities belong to the side opposite the imaged curve,
    matching the closed-form convention.
    """
    _require_g(fd_tilde)
    k, kp, kpp = fd_tilde.kappa, fd_tilde.dkappa_ds, fd_tilde.d2kappa_ds2
    f, g = fd_tilde.f, fd_tilde.g
    lhs = kpp * k * f * f - 3.0 * kp * kp * g * f + kpp * k - 3.0 * kp * kp
    scale = np.maximum(np.abs(kpp * k * (1.0 + f * f)), np.abs(3.0 * kp * kp * (1.0 + f * g)))
    return lhs / np.maximum(scale, 1e-30)


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


def _gamma_big(fd, ds_x_dsrc):
    """Gamma of the tangent image over eps (elf-corollaries): Gamma_T = eps G.

    The tangent and binormal images share |Gamma|, not its sign: on the
    exact image rows Gamma_B = -sgn(f_X) Gamma_T, X the imaged curve.

    ``ds_x_dsrc`` is the derivative of the indicatrix arc length with
    respect to the data-side arc length.
    """
    k, kp, kpp = fd.kappa, fd.dkappa_ds, fd.d2kappa_ds2
    f, g = fd.f, fd.g
    wf2 = 1.0 + f * f
    num = -(k**3) * wf2**1.5 * (g - f) ** 2 * (kpp * k * wf2 - 3.0 * kp * kp * (1.0 + f * g))
    den = np.sqrt(1.0 + g * g) * (k**4 * wf2**3 + kp * kp * (f - g) ** 2) ** 1.5
    return num / den / ds_x_dsrc


def images(side: str, fd, eps: int) -> dict:
    """Frame, curvature, torsion and Gamma of ``side``'s T, N and B images
    (frame-relations, elf-corollaries, the helix flags), keyed by axis, at each
    data-side row of ``fd`` (where ``_applies``), from one pass over its quantities.

    The T and B images' corrected torsions are those of t -> T_X(t) and
    t -> B_X(t), X the imaged curve: Gamma_X w and -Gamma_X w / f_X, w =
    sqrt(1 + f_X^2), with Gamma_X = eps Gamma of the data rows at either
    eps (th2)."""
    f, g = fd.f, fd.g
    k, kp, kpp = fd.kappa, fd.dkappa_ds, fd.d2kappa_ds2
    wf = np.sqrt(1.0 + f * f)
    wg = np.sqrt(1.0 + g * g)
    T, N, B = fd.T, fd.N, fd.B
    # unit vectors of the data side's rectifying plane
    U = (T - _col(f) * B) / _col(wf)
    V = (_col(f) * T + B) / _col(wf)

    # ratio tau/kappa of the *imaged* curve and its slant indicator, both
    # in data-side quantities; these drive the corrected scalar values of
    # the tangent and binormal images that track the imaged curve's own
    # apparatus
    f_img = -eps * (g - f) / (1.0 + f * g)
    wfi = np.sqrt(1.0 + f_img * f_img)
    G_img = eps * fd.Gamma
    # the tangent and binormal images share B, |kappa|, |tau| and |Gamma|;
    # Gamma_B = -sgn(f_img) Gamma_T, so one Gx is the sign of one image only
    kx = wf * wg / (f - g)
    tx = kp * wg / (k * k * (1.0 + f * f))
    Gx = _gamma_big(fd, _tangent_image_rate(fd, wg))
    if side == "mate":
        Gx = -Gx
    # the imaged tangent vector written in data-side frame vectors; its
    # corrected pair is kappa = sqrt(1+f_img^2), tau = Gamma*kappa
    T_img, B_img = _tb_images(fd, wg, eps)
    tangent = IndicatrixSample(fd.t, T_img, -N, U, V, kx,
                               tx if side == "mate" else -tx, wfi, G_img * wfi, Gx)
    binormal = IndicatrixSample(fd.t, B_img, eps * N, -eps * U, V, kx, -eps * tx,
                                wfi / np.abs(f_img), -G_img * wfi / f_img, Gx)

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


def _frame_relations(side: str, imgs: dict, eps: int) -> dict:
    """Max deviation of the four frame relations among ``side``'s image
    frames, over their rows (frame-relations).

    Base side: T_t = -eps T_b, T_n = -eps N_t = N_b, B_t = B_b; mate side:
    the tilde counterparts with N_t = -eps T_n = -eps N_b.
    """
    st, sn, sb = imgs["tangent"], imgs["normal"], imgs["binormal"]
    if side == "base":
        n_t, n_b = sn.T - (-eps) * st.N, sn.T - sb.N
    else:
        n_t, n_b = st.N - (-eps) * sn.T, st.N - (-eps) * sb.N
    rel = {"Tt_vs_Tb": st.T - (-eps) * sb.T, "Tn_vs_Nt": n_t, "Tn_vs_Nb": n_b,
           "Bt_vs_Bb": st.B - sb.B}
    return {f"{side}:{key}": float(np.max(np.linalg.norm(v, axis=1), initial=0.0))
            for key, v in rel.items()}


def arclength_rates(src, img):
    """d/dt of six arc lengths, stacked: the data side's (``src``), the
    closed forms of its T-and-B and N images, and the imaged curve's
    (``img``) |T'|, |N'|, |B'| (cr14, cr33); and kappa^2 f' / (kappa'
    sqrt(1 + g^2)), f' = kappa'(g - f)/kappa, whose mean gives c1.  Needs
    g defined."""
    _require_g(src)
    f, g, k = src.f, src.g, src.kappa
    wg = np.sqrt(1.0 + g * g)
    fprime = src.dkappa_ds * (g - f) / k
    rates = np.stack((
        src.speed,
        _tangent_image_rate(src, wg) * src.speed,
        k * np.sqrt(1.0 + f * f) * src.speed,
        img.kappa * img.speed,
        np.hypot(img.kappa, img.tau) * img.speed,
        np.abs(img.tau) * img.speed,
    ))
    return rates, k * k * fprime / (src.dkappa_ds * wg)


def arclength_c1(side: str, mean, lam, eps):
    """c1 from ``mean``, which is -eps c1 / lam (base side) or c1 / lam (mate)."""
    return -eps * lam * mean if side == "base" else lam * mean
