"""Curve and curve-pair classification plus the identity-verification suite.

Classification is threshold-based over masked grids: planar, general
helix (constant tau/kappa), slant helix (constant geodesic indicator),
spherical (least-squares sphere fit).  Pair classification tests the
Bertrand, Mannheim and involute-evolute definitions in that fixed order
with all evidence retained.  ``theorem_suite`` evaluates the catalog of
Bertrand-pair identities as residuals with tolerances, over the closed
forms of ``paper``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bertrand import (
    BertrandPairModel,
    ConstancyStat,
    _EPS_COINCIDE,
    _offset_along,
    _overlap_grid,
    _pair_columns,
)
from .curves import (
    _FRENET_ORDER,
    EPS_G,
    MIN_CLASSIFY_SAMPLES,
    Curve,
    _columns,
    _frenet_columns,
    _take_rows,
    cumulative_trapezoid,
)
from .errors import TooFewSamplesError
from .indicatrix import AXES, SIDES, _arclength_relations, _closed_forms, _image_poses
from .paper import (
    IndicatrixSample,
    _constraint_residuals,
    _frame_relations,
    _raise_at,
    condition_residual,
)

TOL_PLANAR = 1e-8
TOL_HELIX = 1e-6
TOL_SLANT = 1e-5
TOL_SPHERICAL = 1e-8


# ---------------------------------------------------------------------------
# single-curve classification


@dataclass(frozen=True)
class CurveClass:
    planar: bool
    general_helix: bool
    slant_helix: bool
    spherical: bool
    metrics: dict


def _relative_deviation(values):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    scale = max(1.0, float(np.abs(values).max()))
    return float(np.abs(values - mean).max()) / scale


def sphere_fit(points):
    """Least-squares sphere through the points: center, radius, residual.

    Linear formulation |p|^2 = 2 c.p + (r^2 - |c|^2); residual is the max
    absolute distance error relative to the radius.
    """
    pts = np.asarray(points, dtype=float)
    A = np.concatenate([2.0 * pts, np.ones((len(pts), 1))], axis=1)
    b = np.sum(pts * pts, axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:3]
    r2 = sol[3] + float(center @ center)
    if r2 <= 0.0:
        return center, 0.0, math.inf
    radius = math.sqrt(r2)
    dist = np.linalg.norm(pts - center, axis=1)
    return center, radius, float(np.max(np.abs(dist - radius))) / radius


def classify_curve(curve: Curve, n: int = 128) -> CurveClass:
    if n < 64:
        raise TooFewSamplesError("classification needs n >= 64")
    lo, hi = curve.domain
    rows, _, _ = _frenet_columns(curve, np.linspace(lo, hi, n))
    count = len(rows.t)
    if count < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(
            f"{count} regular samples of {n}; need {MIN_CLASSIFY_SAMPLES}"
        )
    kappa_max = float(np.max(rows.kappa))
    tau_max = float(np.max(np.abs(rows.tau)))
    f_dev = _relative_deviation(rows.f)
    gamma_dev = _relative_deviation(rows.Gamma)
    _, radius, sph_resid = sphere_fit(rows.point)
    metrics = {
        "tau_max": tau_max,
        "kappa_max": kappa_max,
        "f_deviation": f_dev,
        "Gamma_deviation": gamma_dev,
        "sphere_fit_residual": sph_resid,
        "sphere_fit_radius": radius,
        "masked_fraction": 1.0 - count / n,
    }
    return CurveClass(
        planar=tau_max < TOL_PLANAR * kappa_max,
        general_helix=f_dev < TOL_HELIX,
        slant_helix=gamma_dev < TOL_SLANT,
        spherical=sph_resid < TOL_SPHERICAL,
        metrics=metrics,
    )


def spherical_helix_check(image: IndicatrixSample) -> float:
    """Constancy of tau_x/kappa_x over the closed-form rows of one image,
    MIN_CLASSIFY_SAMPLES or more: the relative deviation of the ratio.

    A spherical curve with constant torsion-to-curvature ratio is a
    spherical helix; this is the indicatrix-level helix criterion.
    """
    _raise_at(np.abs(image.kappa) < 1e-12, image, "kappa_x = 0")
    return _relative_deviation(image.tau / image.kappa)


# ---------------------------------------------------------------------------
# pair classification


@dataclass(frozen=True)
class PairClass:
    # 'bertrand' | 'mannheim' | 'involute_evolute' | 'none', and for an
    # image pair of the suite's negative-result entry also 'untestable'
    verdict: str
    evidence: dict


def _aligned_grid(ts_a, speed_a, grid_b, speed_b):
    """The nodes of ``grid_b`` interpolated to the cumulative arc-length
    fractions (trapezoid rule) of the nodes of ``ts_a``."""
    s_a = cumulative_trapezoid(ts_a, speed_a)
    s_b = cumulative_trapezoid(grid_b, speed_b)
    return np.interp(s_a / s_a[-1], s_b / s_b[-1], grid_b)


def pair_classify(
    curveA: Curve,
    curveB: Curve,
    n: int = 128,
    tol: float = 1e-6,
    align: str = "param",
) -> PairClass:
    """Ordered Bertrand / Mannheim / involute-evolute test with evidence.

    align='param' reads both curves at the shared parameter on their
    overlap grid from one ``bertrand._pair_columns``: curveB only where
    curveA is regular, and a mate built on curveA from curveA's run.
    align='arclength' resamples curveB so that corresponding points carry
    equal arc-length fractions, for pairs without a shared parameter.
    Raises ValueError for any other ``align`` and TooFewSamplesError for
    n < MIN_CLASSIFY_SAMPLES, before any grid is built.
    """
    if align not in ("param", "arclength"):
        raise ValueError(f"align must be 'param' or 'arclength', got {align!r}")
    if n < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(f"classification grid of {n} points; "
                                 f"need at least {MIN_CLASSIFY_SAMPLES}")
    if align == "param":
        rows_a, rows_b, both, _, _ = _pair_columns(
            curveA, curveB, _overlap_grid(curveA, curveB, n), images=False)
        ok_a = ok_b = both
    else:
        # each curve on its own domain, inset as for the overlap grid
        ts_a = _overlap_grid(curveA, curveA, n)
        # curveA's one grid jet gives its rows and its speeds
        P_a = curveA.jet(ts_a, _FRENET_ORDER)
        rows_a, ok_a, _, _ = _columns(P_a, ts_a)
        grid_b = _overlap_grid(curveB, curveB, 4 * n)
        speed_a = np.linalg.norm(P_a.coeffs[1], axis=0)
        speed_b = np.linalg.norm(curveB.jet(grid_b, 1).coeffs[1], axis=0)
        rows_b, ok_b, _ = _frenet_columns(curveB, _aligned_grid(ts_a, speed_a, grid_b, speed_b))
        both = ok_a & ok_b
    (pc,) = _classify_rows(_pose(rows_a), ok_a, _pose(rows_b), ok_b, [both], tol)
    if pc.verdict == "untestable":
        raise TooFewSamplesError(f"{np.count_nonzero(both)} regular sample pairs of {n}")
    return pc


def _pose(rows):
    """The four row arrays of Frenet rows that ``_classify_rows`` reads:
    point, T, N and B."""
    return rows.point, rows.T, rows.N, rows.B


def _classify_image_rows(images, ts):
    """The ``pair_classify`` verdict and evidence of the T, N and B images
    of two curves, keyed by axis, from their exact image poses at ``ts``:
    the shared parameter is the correspondence, as with align='param',
    and the tolerance is ``pair_classify``'s default.  An axis with too
    few regular pairs gets the verdict 'untestable'.

    ``images`` are the T, N and B jets of A and then B about ``ts``
    (the ones ``BertrandPairModel`` holds), the position jets of the six
    images, of order 2 or more.  ``_classify_rows`` reads each image's
    point, T, N and B only, so one pose pass over their 6 len(ts) stacked
    columns (``indicatrix._image_poses``), which reads coefficients 0-2,
    gives them, and the regular masks, with the bits of each curve's own
    ``image_rows``; one ``_classify_rows`` call then tests the three axes,
    one column group each."""
    pose, ok, _ = _image_poses(images, ts)
    half = len(AXES) * len(ts)
    ok_a, ok_b = ok[:half], ok[half:]
    split = np.count_nonzero(ok_a)
    rows_a = tuple(v[:split] for v in pose)
    rows_b = tuple(v[split:] for v in pose)
    # axis k's group: its regular pairs, columns k len(ts) to (k + 1) len(ts)
    groups = np.eye(len(AXES), dtype=bool).repeat(len(ts), axis=1) & (ok_a & ok_b)
    return dict(zip(AXES, _classify_rows(rows_a, ok_a, rows_b, ok_b, groups, 1e-6)))


def _classify_rows(rows_a, ok_a, rows_b, ok_b, groups, tol):
    """The verdict and evidence of ``pair_classify`` for each column group
    of ``groups``, a sequence of masks of the columns where both curves
    are regular, from the point, T, N and B rows (``_pose``) of the two
    curves' regular columns ``ok_a`` and ``ok_b``: one PairClass per
    group, 'untestable' for a group of fewer than MIN_CLASSIFY_SAMPLES
    columns.  Curves whose largest offset is below
    ``bertrand._EPS_COINCIDE`` coincide: no pair, 'none'.

    The rows of every group are gathered at once, and every row's offset,
    alignment and distance is computed in one pass over them; each group
    then takes the maxima of its rows and the ``ConstancyStat`` of its
    own offsets, so its evidence has the bits of a one-group call.  The
    offset magnitude is tested unsigned: the axis vector's sign can flip
    along the curve (e.g. across torsion zeros) without breaking the
    geometric coincidence the definitions ask for."""
    union = np.logical_or.reduce(groups)
    pa, Ta, Na, Ba = (v[union[ok_a]] for v in rows_a)
    pb, Tb, Nb = (v[union[ok_b]] for v in rows_b[:3])
    D = pb - pa
    distance = np.linalg.norm(D, axis=1)
    # offsets along N, B and T of A; B's N against A's N and B, B's T against A's T
    axes = np.array((Na, Ba, Ta))
    lam, transverse = _offset_along(D, axes)
    dots = np.abs((np.array((Nb, Nb, Tb)) * axes).sum(axis=-1))
    misalignment = 1.0 - dots[:2]
    magnitude = np.abs(lam[:2])
    out = []
    for group in groups:
        own = group[union]
        if np.count_nonzero(own) < MIN_CLASSIFY_SAMPLES:
            out.append(PairClass(verdict="untestable", evidence={}))
            continue
        scale = max(float(distance[own].max()), 1e-30)
        off_n, off_b, off_t = (transverse[:, own].max(axis=1) / scale).tolist()
        align_n, align_b = misalignment[:, own].max(axis=1).tolist()
        tangent_dev = float(dots[2, own].max())
        stat_n, stat_b = (ConstancyStat.of(m[own]) for m in magnitude)
        ev = {
            "bertrand": {"offset_normal_dev": off_n, "normal_alignment_dev": align_n,
                         "lambda_mean": stat_n.mean, "lambda_dev": stat_n.max_deviation},
            "mannheim": {"offset_binormal_dev": off_b, "normal_vs_binormal_dev": align_b,
                         "lambda_mean": stat_b.mean, "lambda_dev": stat_b.max_deviation},
            "involute_evolute": {"offset_tangent_dev": off_t,
                                 "tangent_orthogonality_dev": tangent_dev},
        }
        if scale < _EPS_COINCIDE:
            verdict = "none"
        elif (off_n < math.sqrt(tol) and align_n < tol
              and stat_n.max_deviation < tol * (1.0 + abs(stat_n.mean))):
            verdict = "bertrand"
        elif (off_b < math.sqrt(tol) and align_b < tol
              and stat_b.max_deviation < tol * (1.0 + abs(stat_b.mean))):
            verdict = "mannheim"
        elif off_t < math.sqrt(tol) and tangent_dev < math.sqrt(tol):
            verdict = "involute_evolute"
        else:
            verdict = "none"
        out.append(PairClass(verdict=verdict, evidence=ev))
    return out


# ---------------------------------------------------------------------------
# identity suite


class _Key(NamedTuple):
    # 'identity' (must hold on any accepted pair, so a failure is an error
    # exit), 'threshold' (of the suite's flags) or 'check' (no key of its own)
    kind: str
    # the default of an identity or threshold key; a check's fixed
    # tolerance, or the threshold key whose value it reports
    tolerance: float | str
    why: str = ""  # a check's: what sets its tolerance


# every entry ``theorem_suite`` reports, and the thresholds of its flags
_SUITE_KEYS = {
    "th2": _Key("identity", 1e-5),
    "th3": _Key("identity", 1e-6),
    "th22": _Key("identity", 1e-6),
    "eps-g-relation": _Key("identity", 1e-8),
    "constraint-eq": _Key("identity", 1e-8),
    "frame-relations": _Key("identity", 1e-8),
    "elf-corollaries": _Key("identity", 1e-10),
    "cr14": _Key("identity", 1e-5),
    "cr33": _Key("identity", 1e-5),
    **dict.fromkeys(("th6", "th25", "teo15", "teo33"), _Key(
        "check", math.inf, "tol_slant and tol_indicatrix_helix set its flags")),
    **dict.fromkeys(("th8", "th17", "th11"), _Key(
        "check", "tol_condition", "tol_condition sets its tolerance")),
    **dict.fromkeys(("cr18", "negative-result"), _Key(
        "check", 0.5, "a verdict count against a fixed tolerance of 0.5")),
    "p1p2-constancy": _Key("identity", 1e-6),
    "tol_slant": _Key("threshold", TOL_SLANT),
    "tol_indicatrix_helix": _Key("threshold", 1e-4),
    "tol_condition": _Key("threshold", 1e-3),
    "tol_normal_planar": _Key("threshold", 1e-4),
}
IDENTITY_ENTRIES = tuple(k for k, row in _SUITE_KEYS.items() if row.kind == "identity")
# the keys of ``theorem_suite``'s tols
TOLERANCE_KEYS = IDENTITY_ENTRIES + tuple(
    k for k, row in _SUITE_KEYS.items() if row.kind == "threshold")
_KEYLESS_ENTRIES = {k: row.why for k, row in _SUITE_KEYS.items() if row.kind == "check"}


def _check_tolerance(key, value):
    """Raise ValueError, naming ``key``, unless ``theorem_suite`` reads a
    tolerance under it and ``value`` is above 0 (inf included): no
    residual is below 0, and a threshold of 0 or less turns its flags
    off."""
    if key in _KEYLESS_ENTRIES:
        raise ValueError(f"{key!r} has no tolerance key: {_KEYLESS_ENTRIES[key]}")
    if key not in TOLERANCE_KEYS:
        raise ValueError(f"unknown tolerance key {key!r}")
    if not value > 0.0:
        raise ValueError(f"tolerance of {key!r} must be above 0, got {value!r}")


def _tolerance(tols, key):
    """The tolerance of entry or threshold ``key`` under the checked
    ``tols``: its own value there, else its table default."""
    tol = _SUITE_KEYS[key].tolerance
    return _tolerance(tols, tol) if isinstance(tol, str) else tols.get(key, tol)


@dataclass
class TheoremEntry:
    max_residual: float
    tolerance: float
    passed: bool
    masked_fraction: float = 0.0
    note: str = ""


@dataclass
class TheoremReport:
    entries: dict = field(default_factory=dict)

    def add(self, key, residual, tolerance, masked_fraction=0.0, note="",
            passed=None):
        if passed is None:
            passed = residual < tolerance
        self.entries[key] = TheoremEntry(
            max_residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(passed),
            masked_fraction=float(masked_fraction),
            note=note,
        )

    @property
    def all_passed(self):
        return all(e.passed for e in self.entries.values())


def theorem_suite(pair: BertrandPairModel, n: int = 256, tols: dict = None) -> TheoremReport:
    """Residual-and-tolerance report over the full catalog of pair identities.

    Every entry reads the detection grid ``pair.ts`` (``verify --n`` sets
    it, capped at 256).  All but ``negative-result`` read the Frenet data
    detection evaluated, on the rows where both curves are regular and g
    is defined on both.  ``negative-result`` classifies the T, N and B
    image pairs of base and mate (``_classify_image_rows``) on the exact
    image poses at the regular detection points: the image curves'
    position jets are the frame jets that detection built and the pair
    holds, so the suite asks neither curve for anything: one pose pass
    covers all six images and one ``_classify_rows`` call the three axes,
    an axis with too few regular pairs counting as untestable.
    ``n`` reads nothing; the keyword stays for callers that pass it.
    ``tols`` takes the keys of ``TOLERANCE_KEYS`` with values above 0;
    any other key or value raises ValueError.  Equivalence entries (helix/planar criteria) pass
    when the two sides of the iff agree.
    """
    tols = dict(tols or {})
    for key, value in tols.items():
        _check_tolerance(key, value)

    report = TheoremReport()
    usable = pair.base_rows.g_defined & pair.mate_rows.g_defined
    if np.count_nonzero(usable) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(
            f"{np.count_nonzero(usable)} usable grid rows of {len(usable)}, "
            f"need {MIN_CLASSIFY_SAMPLES}; rows with g undefined (|kappa'| < {EPS_G:g}): "
            f"base {np.count_nonzero(~pair.base_rows.g_defined)}, "
            f"mate {np.count_nonzero(~pair.mate_rows.g_defined)}")
    rows = {"base": _take_rows(pair.base_rows, usable),
            "mate": _take_rows(pair.mate_rows, usable)}
    fb, fm = rows["base"], rows["mate"]
    mf = pair.masked_fraction
    eps = pair.epsilon

    def add(key, residual, note="", passed=None):
        report.add(key, residual, _tolerance(tols, key), mf, note=note, passed=passed)

    # th2: Gamma_mate = eps Gamma.  Gamma is the geodesic curvature
    # det(c, c', c'')/|c'|^3 of the principal-normal image c = N, which is
    # odd under c -> -c; N_mate = eps N at corresponding points, and both
    # curves run in the direction of t, so the mate's image is eps times
    # the base's, traversed the same way.  At eps = -1, x - (-y) is x + y.
    add("th2", np.abs(fm.Gamma - eps * fb.Gamma).max())

    # th3 / th22: g constant on each side
    for key, side in (("th3", "mate"), ("th22", "base")):
        g = ConstancyStat.of(rows[side].g)
        add(key, g.max_deviation / max(1.0, abs(g.mean)), note=f"constancy of g on the {side}")

    # eps-g relation: eps*g + g_mate = 0
    add("eps-g-relation", np.abs(eps * fb.g + fm.g).max())

    # cross-side constraint equation
    add("constraint-eq", np.abs(_constraint_residuals(fb, fm, eps)).max())

    # closed forms of each side's images, on enough rows for the helix flags
    side_images = {side: _closed_forms(side, fb, fm, eps, MIN_CLASSIFY_SAMPLES)[1]
                   for side in SIDES}

    # frame relations among indicatrix frames
    add("frame-relations",
        max(max(_frame_relations(side, side_images[side], eps).values()) for side in SIDES))

    # tangent and binormal images share |kappa|, |tau| and |Gamma|; the signed
    # |Gamma_t - Gamma_b| term reads one closed form for both images, while the
    # exact images have Gamma_b = -sgn(f_X) Gamma_t, X the imaged curve
    elf = 0.0
    for side in SIDES:
        st, sb = side_images[side]["tangent"], side_images[side]["binormal"]
        for gap in (st.kappa - sb.kappa, np.abs(st.tau) - np.abs(sb.tau), st.Gamma - sb.Gamma):
            elf = max(elf, float(np.abs(gap).max(initial=0.0)))
    add("elf-corollaries", elf,
        note="|kappa_t - kappa_b|, ||tau_t| - |tau_b||, |Gamma_t - Gamma_b|")

    # cr14 / cr33: binormal arc length against the direct |B'| quadrature,
    # and the affine law s_b = slope * s_src + c2
    for key, side in (("cr14", "base"), ("cr33", "mate")):
        rel = _arclength_relations(side, fb, fm, pair.lam, eps)
        rng = max(abs(rel.s_b[-1] - rel.s_b[0]), 1e-30)
        direct_gap = float(np.abs(np.abs(rel.s_b) - rel.s_b_direct).max()) / rng
        affine_gap = rel.affine_fit.rms_residual / rng
        slope_gap = abs(abs(rel.affine_fit.slope) - rel.predicted_slope)
        add(key, max(direct_gap, affine_gap, slope_gap),
            note=f"c1={rel.c1:.6g}, c2={rel.c2:.6g}")

    # slant-helix flags on the curves and helix flags on the indicatrices
    gamma_dev = {side: _relative_deviation(rows[side].Gamma) for side in SIDES}
    tol_slant = _tolerance(tols, "tol_slant")
    tol_ih = _tolerance(tols, "tol_indicatrix_helix")
    helix = {
        (side, axis): spherical_helix_check(side_images[side][axis]) < tol_ih
        for side in SIDES
        for axis in ("tangent", "binormal")
    }

    def agree(axis):
        # each curve's slant flag against the helix flag of each side's image
        return all((gamma_dev[s1] < tol_slant) == helix[(s2, axis)]
                   for s1 in SIDES for s2 in SIDES)

    # one condition residual, checked for agreement with the indicatrix-level flags
    cond_res = float(np.abs(condition_residual(fm)).max())
    cond_true = cond_res < _tolerance(tols, "tol_condition")

    # alias pairs, one check under two keys: th6/th25 (teo15/teo33), curve
    # slant helix iff tangent (binormal) image spherical helix, on both sides
    # in all stated combinations; th8/th17, the condition vs the tangent image
    for keys, residual, passed, notes in (
            (("th6", "th25"), max(gamma_dev.values()), agree("tangent"),
             ("boolean co-occurrence, all four combinations",
              "same co-occurrence via the mate tangent image")),
            (("teo15", "teo33"), max(gamma_dev.values()), agree("binormal"),
             ("boolean co-occurrence with binormal images", "mate-side mirror of teo15")),
            (("th8", "th17"), cond_res, cond_true == helix[("base", "tangent")],
             ("residual attached to the iff against the tangent image",
              "same expression, binormal image"))):
        for key, note in zip(keys, notes):
            add(key, residual, note=note, passed=passed)

    sn = side_images["base"]["normal"]
    tau_n_rel = float((np.abs(sn.tau) / np.maximum(np.abs(sn.kappa), 1e-30)).max())
    normal_planar = tau_n_rel < _tolerance(tols, "tol_normal_planar")
    add("th11", cond_res, passed=cond_true == normal_planar,
        note="algebraically identical to th8; planar-normal-image reading")

    # cr18: equivalence matrix of the three booleans
    flags = [helix[("base", "tangent")], normal_planar, helix[("base", "binormal")]]
    add("cr18", float(len(set(flags)) - 1), passed=len(set(flags)) == 1,
        note=f"flags={flags}")

    # closing negative result: no indicatrix pair classifies as a named pair
    image_pairs = _classify_image_rows(pair._images, pair.ts[~pair.masked])
    verdicts = [pc.verdict for pc in image_pairs.values()]
    bad = sum(v not in ("none", "untestable") for v in verdicts)
    add("negative-result", float(bad), passed=bad == 0, note=f"verdicts={verdicts}")

    add("p1p2-constancy",
        max(pair.p1.max_deviation, pair.p2.max_deviation,
            pair.q1.max_deviation, pair.q2.max_deviation),
        note="p1, p2, q1, q2 projection constants")
    return report
