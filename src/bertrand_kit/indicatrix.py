"""Spherical indicatrices of a Bertrand pair: image curves and grids.

Six indicatrices: the tangent, principal-normal and binormal images of
the base curve and of its mate.  This module evaluates the curves and
integrates; the closed forms of the images, which read the *other*
curve of the pair (the data side), are ``paper``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bertrand import BertrandPairModel, ConstancyStat, _image_frames, _pair_columns
from .curves import (
    _FRENET_ORDER,
    MIN_CLASSIFY_SAMPLES,
    FrenetData,
    SampledCurve,
    _columns,
    _frenet_columns,
    _points_at,
    _pose_columns,
    _take_rows,
    cumulative_trapezoid,
)
from .errors import TooFewSamplesError
from .jets import Jet
from .paper import _applies, _failures, _frame_relations, arclength_c1, arclength_rates, images

AXES = ("tangent", "normal", "binormal")
SIDES = ("base", "mate")


def indicatrix_curve(curve, axis, n) -> SampledCurve:
    """Sampled spherical image of the Frenet vector of ``axis``, from one
    Frenet grid of n points over the domain; singular points dropped.
    Raises ValueError for an axis that names no image."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {', '.join(AXES)}, got {axis!r}")
    rows, _, _ = _frenet_columns(curve, np.linspace(*curve.domain, n))
    return SampledCurve(rows.t, getattr(rows, "TNB"[AXES.index(axis)]),
                        label=f"{curve.label or 'curve'}:{axis}-image")


def image_rows(curve, ts):
    """The exact Frenet columns of the T, N and B images of a curve at
    ``ts``, as ``_frenet_columns`` gives them, from one request of the
    curve's order-6 jet, one frame pass and one Frenet pass over 3 len(ts)
    columns, the T image's first: the T image is the curve whose position
    jet is T's jet, and likewise N and B.  Every step works column by
    column, so each image's rows have the bits of its own pass."""
    ts = np.asarray(ts, dtype=float)
    P = _stacked(_image_frames((curve.jet(ts, _FRENET_ORDER + 2),)), ts, _FRENET_ORDER)
    return _columns(P, P.basepoint)[:3]


def _stacked(images, ts, order):
    """The jets ``images`` about ``ts``, cut to ``order``, as one jet of
    their columns, image by image."""
    return Jet(np.tile(ts, len(images)),
               np.concatenate([v.coeffs[: order + 1] for v in images], axis=-1))


def _image_poses(images, ts):
    """The ``_pose_columns`` of each image curve whose position jet about
    ``ts``, of order 2 or more, is one of ``images``: the point, T, N and
    B rows concatenated image by image, and the regular mask and errors,
    from one pass over their stacked columns.  Each image's share has the
    bits of the pose of its own ``_columns``."""
    P = _stacked(images, ts, 2)
    return _pose_columns(P, P.basepoint)


def _sides(side: str, base_rows, mate_rows):
    """(data, imaged) rows of ``side``'s images, whose closed forms read the
    other curve's rows.  Raises ValueError for a side that names no image."""
    if side not in SIDES:
        raise ValueError(f"side must be 'base' or 'mate', got {side!r}")
    return (mate_rows, base_rows) if side == "base" else (base_rows, mate_rows)


def _closed_forms(side: str, base_rows, mate_rows, eps: int, least: int = 0):
    """The mask of ``side``'s data rows where the closed forms of its images
    apply (``paper._applies``), and the images there.  Below ``least`` such
    rows, raises TooFewSamplesError that counts the rows where g is
    undefined, if any, and where each ``paper._failures`` condition fails."""
    data, _ = _sides(side, base_rows, mate_rows)
    applies = _applies(data)
    count = np.count_nonzero(applies)
    if count < least:
        fails = {name: mask & data.g_defined for name, mask in _failures(data).items()}
        if not data.g_defined.all():
            fails = {"g undefined": ~data.g_defined, **fails}
        failed = ", ".join(f"{name}: {np.count_nonzero(mask)}" for name, mask in fails.items())
        raise TooFewSamplesError(
            f"the closed forms of the {side}'s images apply at {count} of {len(applies)} "
            f"usable grid rows, need {least}; rows with {failed}")
    return applies, images(side, _take_rows(data, applies), eps)


def apparatus_grid(pair: BertrandPairModel, side: str, axis: str, ts):
    """Closed-form samples over a grid, from one evaluation of the pair
    there (``_pair_columns``), as one-point views of the closed-form rows;
    degenerate points, either curve's singular points included, become
    None.  Raises ValueError for a side or axis that names no image."""
    if side not in SIDES or axis not in AXES:
        raise ValueError(f"bad indicatrix kind {side}/{axis}")
    ts = np.asarray(ts, dtype=float)
    base_rows, mate_rows, both, _, _ = _pair_columns(pair.base, pair.mate, ts, images=False)
    applies, closed = _closed_forms(side, base_rows, mate_rows, pair.epsilon)
    return _points_at(closed[axis], np.flatnonzero(both)[applies], len(ts))


def frame_relations_check(pair: BertrandPairModel, n: int = 64) -> dict:
    """Max deviation of the frame relations among indicatrix frames, both
    sides, on n points spanning the detection grid (one ``_pair_columns``),
    with the number of points masked on either side; TooFewSamplesError
    where a side's closed forms apply at fewer than MIN_CLASSIFY_SAMPLES."""
    ts = np.linspace(pair.ts[0], pair.ts[-1], n)
    fb, fm, _, _, _ = _pair_columns(pair.base, pair.mate, ts, images=False)
    report = {}
    masked = 0
    for side in SIDES:
        applies, imgs = _closed_forms(side, fb, fm, pair.epsilon, MIN_CLASSIFY_SAMPLES)
        masked += n - int(np.count_nonzero(applies))
        report.update(_frame_relations(side, imgs, pair.epsilon))
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


def _arclength_relations(side: str, base_rows: FrenetData, mate_rows: FrenetData,
                         lam: float, eps: int) -> ArcLengthRelations:
    """Cumulative indicatrix arc lengths and the affine law for s_b of
    ``side``'s images over the rows of both curves at the same t, read
    from the data side's rows (``src``) and the imaged curve's (``img``).

    The rates and the constant that gives c1 are ``paper.arclength_rates``;
    the six arc lengths are one quadrature of the stacked rates.
    """
    src, img = _sides(side, base_rows, mate_rows)
    rates, expr_vals = arclength_rates(src, img)
    s_src, s_tb, s_n, s_t_direct, s_n_direct, s_b_direct = cumulative_trapezoid(src.t, rates)
    fit = _affine_fit(s_src, s_tb)
    expr = ConstancyStat.of(expr_vals)
    return ArcLengthRelations(
        ts=src.t,
        s_src=s_src,
        s_n=s_n,
        s_b=s_tb,
        s_t_direct=s_t_direct,
        s_n_direct=s_n_direct,
        s_b_direct=s_b_direct,
        affine_fit=fit,
        c1=arclength_c1(side, expr.mean, lam, eps),
        c1_deviation=expr.max_deviation,
        c2=fit.intercept,
        predicted_slope=abs(expr.mean),
    )


def indicatrix_arclength_relations(pair: BertrandPairModel, side: str,
                                   n: int = 256) -> ArcLengthRelations:
    """Cumulative indicatrix arc lengths and the affine law for s_b on
    n + 1 points spanning the detection grid, from one evaluation of the
    pair there (``_pair_columns``).  Raises the first SingularPointError of
    the base, else of the mate, and DegenerateRatioError where g of the
    data side is undefined; ValueError for a side that names no image."""
    ts = np.linspace(pair.ts[0], pair.ts[-1], n + 1)
    base_rows, mate_rows, _, errors, _ = _pair_columns(pair.base, pair.mate, ts, images=False)
    if errors:
        raise errors[0]
    return _arclength_relations(side, base_rows, mate_rows, pair.lam, pair.epsilon)
