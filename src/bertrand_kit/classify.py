"""Curve and curve-pair classification plus the identity-verification suite.

Classification is threshold-based over masked grids: planar, general
helix (constant tau/kappa), slant helix (constant geodesic indicator),
spherical (least-squares sphere fit).  Pair classification tests the
Bertrand, Mannheim and involute-evolute definitions in that fixed order
with all evidence retained.  ``theorem_suite`` evaluates the catalog of
Bertrand-pair identities as residuals with tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bertrand import (
    BertrandPairModel,
    ConstancyStat,
    _constraint_residuals,
    _offset_along,
    _overlap_grid,
    _require_g,
)
from .curves import (
    Curve,
    FrenetData,
    _frenet_columns,
    _take_rows,
    cumulative_trapezoid,
)
from .errors import (
    DegenerateRatioError,
    TooFewSamplesError,
)
from .indicatrix import (
    AXES,
    SIDES,
    IndicatrixSample,
    _applies,
    _arclength_relations,
    _failures,
    _frame_relations,
    _images,
    _image_columns,
    _other_side,
)
from .jets import _first

TOL_PLANAR = 1e-8
TOL_HELIX = 1e-6
TOL_SLANT = 1e-5
TOL_SPHERICAL = 1e-8

MIN_CLASSIFY_SAMPLES = 16


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
    mean = float(np.mean(values))
    scale = max(1.0, float(np.max(np.abs(values))))
    return float(np.max(np.abs(values - mean))) / scale


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
    f_dev = _relative_deviation(rows.tau / rows.kappa)
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
    """Constancy of tau_x/kappa_x over the closed-form rows of one image:
    the relative deviation of the ratio.

    A spherical curve with constant torsion-to-curvature ratio is a
    spherical helix; this is the indicatrix-level helix criterion.
    """
    flat = np.abs(image.kappa) < 1e-12
    if np.any(flat):
        raise DegenerateRatioError(f"kappa_x = 0 at t={_first(flat, image.t)}")
    if len(image.kappa) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(
            f"{len(image.kappa)} samples; need {MIN_CLASSIFY_SAMPLES}"
        )
    return _relative_deviation(image.tau / image.kappa)


# ---------------------------------------------------------------------------
# condition residuals


def condition_residual(fd_tilde: FrenetData):
    """Normalized residual of kappa'' kappa f^2 - 3 kappa'^2 g f + kappa'' kappa - 3 kappa'^2,
    at each row.

    Vanishing marks the tangent (equivalently binormal) indicatrix as a
    spherical helix, and equally the principal-normal indicatrix as
    planar: both conditions are this one polynomial.  Quantities belong
    to the side opposite the imaged curve, matching the closed-form
    convention.
    """
    _require_g(fd_tilde)
    k, kp, kpp = fd_tilde.kappa, fd_tilde.dkappa_ds, fd_tilde.d2kappa_ds2
    f, g = fd_tilde.f, fd_tilde.g
    lhs = kpp * k * f * f - 3.0 * kp * kp * g * f + kpp * k - 3.0 * kp * kp
    scale = np.maximum(np.abs(kpp * k * (1.0 + f * f)), np.abs(3.0 * kp * kp * (1.0 + f * g)))
    return lhs / np.maximum(scale, 1e-30)


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
    # arc-length alignment puts each curve on its own domain, inset as for
    # the overlap grid
    ts_a = _overlap_grid(curveA, curveA if align == "arclength" else curveB, n)
    # A's rows and speeds before any request to B: a mate rebuilt on its
    # loaded base asks the base's generator, whose jet held from A's rows
    # serves A's speeds, or B's frame on the shared grid
    rows_a, ok_a, _ = _frenet_columns(curveA, ts_a)
    ts_b = ts_a
    if align == "arclength":
        grid_b = _overlap_grid(curveB, curveB, 4 * n)
        speed_a = np.linalg.norm(curveA.jet(ts_a, 1).coeffs[1], axis=0)
        speed_b = np.linalg.norm(curveB.jet(grid_b, 1).coeffs[1], axis=0)
        ts_b = _aligned_grid(ts_a, speed_a, grid_b, speed_b)
    rows_b, ok_b, _ = _frenet_columns(curveB, ts_b)
    return _classify_rows(_pose(rows_a), ok_a, _pose(rows_b), ok_b, ok_a & ok_b, n, tol)


def _pose(rows):
    """The four row arrays of Frenet rows that ``_classify_rows`` reads:
    point, T, N and B."""
    return rows.point, rows.T, rows.N, rows.B


def _classify_image_rows(images, ts):
    """The ``pair_classify`` verdict and evidence of the T, N and B images
    of two curves, keyed by axis, from their exact ``image_rows`` at
    ``ts``: the shared parameter is the correspondence, as with
    align='param', and the tolerance is ``pair_classify``'s default.  An
    axis with too few regular pairs gets the verdict 'untestable'.

    ``images`` are the order-4 T, N and B jets of A and then B about
    ``ts`` (``BertrandPairModel._image_jets``), the position jets of the
    six images, which take one Frenet pass over 6 len(ts) columns
    (``_image_columns``), with the bits of each curve's own
    ``image_rows``."""
    rows, ok, _ = _image_columns(images, ts)
    ok_a, ok_b = np.split(ok, 2)
    split = np.count_nonzero(ok_a)
    rows_a = tuple(v[:split] for v in _pose(rows))
    rows_b = tuple(v[split:] for v in _pose(rows))
    pairs = ok_a & ok_b
    axis_of = np.repeat(np.arange(len(AXES)), len(ts))
    out = {}
    for k, axis in enumerate(AXES):
        try:
            out[axis] = _classify_rows(rows_a, ok_a, rows_b, ok_b, pairs & (axis_of == k),
                                       len(ts), 1e-6)
        except TooFewSamplesError:
            out[axis] = PairClass(verdict="untestable", evidence={})
    return out


def _classify_rows(rows_a, ok_a, rows_b, ok_b, both, n, tol):
    """The verdict and evidence of ``pair_classify`` from the point, T, N
    and B rows (``_pose``) of two curves' Frenet columns, read on the
    columns ``both`` where both are regular."""
    if np.count_nonzero(both) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(f"{np.count_nonzero(both)} regular sample pairs of {n}")
    pa, Ta, Na, Ba = (v[both[ok_a]] for v in rows_a)
    pb, Tb, Nb = (v[both[ok_b]] for v in rows_b[:3])
    D = pb - pa
    scale = max(float(np.max(np.linalg.norm(D, axis=1))), 1e-30)

    def direction_test(axis_vecs, partner_vecs, offset_key, alignment_key):
        """The evidence of an offset along ``axis_vecs`` with the partner's
        ``partner_vecs`` along it too, and whether the definition holds.

        The offset magnitude is tested unsigned: the axis vector's sign can
        flip along the curve (e.g. across torsion zeros) without breaking
        the geometric coincidence the definitions ask for.
        """
        lam, transverse = _offset_along(D, axis_vecs)
        off_dev = float(np.max(transverse)) / scale
        dots = np.abs(np.sum(partner_vecs * axis_vecs, axis=1))
        axis_dev = float(np.max(1.0 - dots))
        stat = ConstancyStat.of(np.abs(lam))
        holds = (off_dev < math.sqrt(tol) and axis_dev < tol
                 and stat.max_deviation < tol * (1.0 + abs(stat.mean)))
        return {offset_key: off_dev, alignment_key: axis_dev, "lambda_mean": stat.mean,
                "lambda_dev": stat.max_deviation}, holds

    ev = {}
    ev["bertrand"], holds_b = direction_test(Na, Nb, "offset_normal_dev",
                                             "normal_alignment_dev")
    ev["mannheim"], holds_m = direction_test(Ba, Nb, "offset_binormal_dev",
                                             "normal_vs_binormal_dev")

    offset_dev = float(np.max(_offset_along(D, Ta)[1])) / scale
    tangent_dev = float(np.max(np.abs(np.sum(Ta * Tb, axis=1))))
    ev["involute_evolute"] = {"offset_tangent_dev": offset_dev,
                              "tangent_orthogonality_dev": tangent_dev}
    holds_i = offset_dev < math.sqrt(tol) and tangent_dev < math.sqrt(tol)

    if holds_b:
        verdict = "bertrand"
    elif holds_m:
        verdict = "mannheim"
    elif holds_i:
        verdict = "involute_evolute"
    else:
        verdict = "none"
    return PairClass(verdict=verdict, evidence=ev)


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


def _check_tolerance_key(key):
    """Raise ValueError, naming ``key``, unless ``theorem_suite`` reads a
    tolerance under it."""
    if key in _KEYLESS_ENTRIES:
        raise ValueError(f"{key!r} has no tolerance key: {_KEYLESS_ENTRIES[key]}")
    if key not in TOLERANCE_KEYS:
        raise ValueError(f"unknown tolerance key {key!r}")


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
    image rows at the regular detection points: the image curves'
    position jets are the order-4 frame jets that detection built and the
    pair holds (on a pair that holds none, one order-6 request per curve
    and one ``_frames`` pass over both), and one Frenet pass covers all
    six images, an axis with too few regular pairs counting as
    untestable.
    ``n`` reads nothing; the keyword stays for callers that pass it.
    ``tols`` takes the keys of ``TOLERANCE_KEYS``, and any other key
    raises ValueError.  Equivalence entries (helix/planar criteria) pass
    when the two sides of the iff agree.
    """
    tols = dict(tols or {})
    for key in tols:
        _check_tolerance_key(key)

    report = TheoremReport()
    usable = pair.base_rows.g_defined & pair.mate_rows.g_defined
    if np.count_nonzero(usable) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(f"{np.count_nonzero(usable)} usable grid rows")
    rows = {"base": _take_rows(pair.base_rows, usable),
            "mate": _take_rows(pair.mate_rows, usable)}
    fb, fm = rows["base"], rows["mate"]
    mf = pair.masked_fraction
    eps = pair.epsilon

    def add(key, residual, note="", passed=None):
        report.add(key, residual, _tolerance(tols, key), mf, note=note, passed=passed)

    # th2: Gamma + Gamma_mate = 0 (slant indicators are negatives)
    add("th2", np.max(np.abs(fb.Gamma + fm.Gamma)))

    # th3 / th22: g constant on each side
    for key, side in (("th3", "mate"), ("th22", "base")):
        g = ConstancyStat.of(rows[side].g)
        add(key, g.max_deviation / max(1.0, abs(g.mean)), note=f"constancy of g on the {side}")

    # eps-g relation: eps*g + g_mate = 0
    add("eps-g-relation", np.max(np.abs(eps * fb.g + fm.g)))

    # cross-side constraint equation
    add("constraint-eq", np.max(np.abs(_constraint_residuals(fb, fm, eps))))

    # closed forms of each side's images, which read the other curve's
    # rows where they apply
    images = {}
    for side in SIDES:
        fd = rows[_other_side(side)]
        applies = _applies(side, fd)
        count = np.count_nonzero(applies)
        if count < MIN_CLASSIFY_SAMPLES:
            failed = ", ".join(f"{name}: {np.count_nonzero(mask)}"
                               for name, mask in _failures(side, fd).items())
            raise TooFewSamplesError(
                f"the closed forms of the {side}'s images apply at "
                f"{count} of {len(applies)} usable grid rows, "
                f"need {MIN_CLASSIFY_SAMPLES}; rows with {failed}")
        images[side] = _images(side, _take_rows(fd, applies), eps)

    # frame relations among indicatrix frames
    add("frame-relations",
        max(max(_frame_relations(side, images[side], eps).values()) for side in SIDES))

    # tangent and binormal images share |kappa| and |tau|; Gamma_t = Gamma_b
    elf = 0.0
    for side in SIDES:
        st, sb = images[side]["tangent"], images[side]["binormal"]
        for gap in (st.kappa - sb.kappa, np.abs(st.tau) - np.abs(sb.tau), st.Gamma - sb.Gamma):
            elf = max(elf, float(np.max(np.abs(gap), initial=0.0)))
    add("elf-corollaries", elf,
        note="|kappa_t - kappa_b|, ||tau_t| - |tau_b||, |Gamma_t - Gamma_b|")

    # cr14 / cr33: binormal arc length against the direct |B'| quadrature,
    # and the affine law s_b = slope * s_src + c2
    for key, side in (("cr14", "base"), ("cr33", "mate")):
        rel = _arclength_relations(side, rows[_other_side(side)], rows[side], pair.lam, eps)
        rng = max(abs(rel.s_b[-1] - rel.s_b[0]), 1e-30)
        direct_gap = float(np.max(np.abs(np.abs(rel.s_b) - rel.s_b_direct))) / rng
        affine_gap = rel.affine_fit.rms_residual / rng
        slope_gap = abs(abs(rel.affine_fit.slope) - rel.predicted_slope)
        add(key, max(direct_gap, affine_gap, slope_gap),
            note=f"c1={rel.c1:.6g}, c2={rel.c2:.6g}")

    # slant-helix flags on the curves and helix flags on the indicatrices
    gamma_dev = {side: _relative_deviation(rows[side].Gamma) for side in SIDES}
    tol_slant = _tolerance(tols, "tol_slant")
    tol_ih = _tolerance(tols, "tol_indicatrix_helix")
    helix = {
        (side, axis): spherical_helix_check(images[side][axis]) < tol_ih
        for side in SIDES
        for axis in ("tangent", "binormal")
    }

    def agree(axis):
        # each curve's slant flag against the helix flag of each side's image
        return all((gamma_dev[s1] < tol_slant) == helix[(s2, axis)]
                   for s1 in SIDES for s2 in SIDES)

    # one condition residual, checked for agreement with the indicatrix-level flags
    cond_res = float(np.max(np.abs(condition_residual(fm))))
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

    sn = images["base"]["normal"]
    tau_n_rel = float(np.max(np.abs(sn.tau) / np.maximum(np.abs(sn.kappa), 1e-30)))
    normal_planar = tau_n_rel < _tolerance(tols, "tol_normal_planar")
    add("th11", cond_res, passed=cond_true == normal_planar,
        note="algebraically identical to th8; planar-normal-image reading")

    # cr18: equivalence matrix of the three booleans
    flags = [helix[("base", "tangent")], normal_planar, helix[("base", "binormal")]]
    add("cr18", float(len(set(flags)) - 1), passed=len(set(flags)) == 1,
        note=f"flags={flags}")

    # closing negative result: no indicatrix pair classifies as a named pair
    image_pairs = _classify_image_rows(pair._image_jets(), pair.ts[~pair.masked])
    verdicts = [pc.verdict for pc in image_pairs.values()]
    bad = sum(v not in ("none", "untestable") for v in verdicts)
    add("negative-result", float(bad), passed=bad == 0, note=f"verdicts={verdicts}")

    add("p1p2-constancy",
        max(pair.p1.max_deviation, pair.p2.max_deviation,
            pair.q1.max_deviation, pair.q2.max_deviation),
        note="p1, p2, q1, q2 projection constants")
    return report
