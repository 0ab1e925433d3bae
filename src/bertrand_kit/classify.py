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

import numpy as np

from .bertrand import (
    BertrandPairModel,
    ConstancyStat,
    _overlap_grid,
    pair_constraint_residual,
)
from .curves import (
    Curve,
    FrenetData,
    cumulative_trapezoid,
    frenet_grid,
    slant_geodesic_indicator,
)
from .errors import (
    DegenerateRatioError,
    GridMismatchError,
    TooFewSamplesError,
)
from .indicatrix import (
    AXES,
    SIDES,
    apparatus_grid,
    frame_relations_check,
    indicatrix_arclength_relations,
    indicatrix_images,
)

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


def classify_curve(
    curve: Curve,
    n: int = 128,
    tol_planar: float = TOL_PLANAR,
    tol_helix: float = TOL_HELIX,
    tol_slant: float = TOL_SLANT,
    tol_sph: float = TOL_SPHERICAL,
) -> CurveClass:
    if n < 64:
        raise TooFewSamplesError("classification needs n >= 64")
    lo, hi = curve.domain
    ts = np.linspace(lo, hi, n)
    fds = frenet_grid(curve, ts)
    valid = [fd for fd in fds if fd is not None]
    if len(valid) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(
            f"{len(valid)} regular samples of {n}; need {MIN_CLASSIFY_SAMPLES}"
        )
    kappa_max = max(fd.kappa for fd in valid)
    tau_max = max(abs(fd.tau) for fd in valid)
    f_dev = _relative_deviation([fd.tau / fd.kappa for fd in valid])
    gamma_dev = _relative_deviation([slant_geodesic_indicator(fd) for fd in valid])
    pts = np.array([curve.point(fd.t) for fd in valid])
    _, radius, sph_resid = sphere_fit(pts)
    metrics = {
        "tau_max": tau_max,
        "kappa_max": kappa_max,
        "f_deviation": f_dev,
        "Gamma_deviation": gamma_dev,
        "sphere_fit_residual": sph_resid,
        "sphere_fit_radius": radius,
        "masked_fraction": 1.0 - len(valid) / n,
    }
    return CurveClass(
        planar=tau_max < tol_planar * kappa_max,
        general_helix=f_dev < tol_helix,
        slant_helix=gamma_dev < tol_slant,
        spherical=sph_resid < tol_sph,
        metrics=metrics,
    )


def spherical_helix_check(samples, tol_helix: float = TOL_HELIX) -> dict:
    """Constancy of tau_x/kappa_x over closed-form indicatrix samples.

    A spherical curve with constant torsion-to-curvature ratio is a
    spherical helix; this is the indicatrix-level helix criterion.
    """
    ratios = []
    for s in samples:
        if s is None:
            continue
        if abs(s.kappa) < 1e-12:
            raise DegenerateRatioError(f"kappa_x = 0 at t={s.t}")
        ratios.append(s.tau / s.kappa)
    if len(ratios) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(f"{len(ratios)} samples; need {MIN_CLASSIFY_SAMPLES}")
    dev = _relative_deviation(ratios)
    return {"is_spherical_helix": dev < tol_helix, "deviation": dev}


# ---------------------------------------------------------------------------
# condition residuals


def _condition_scale(fd: FrenetData, ri) -> float:
    k, kp, kpp = fd.kappa, fd.dkappa_ds, fd.d2kappa_ds2
    f, g = ri.f, ri.g
    return max(
        abs(kpp * k * (1.0 + f * f)),
        abs(3.0 * kp * kp * (1.0 + f * g)),
        1e-30,
    )


def helix_condition_residual(fd_tilde: FrenetData, ri_tilde) -> float:
    """Normalized residual of kappa'' kappa f^2 - 3 kappa'^2 g f + kappa'' kappa - 3 kappa'^2.

    Vanishing marks the tangent (equivalently binormal) indicatrix as a
    spherical helix.  Quantities belong to the side opposite the imaged
    curve, matching the closed-form convention.
    """
    if not ri_tilde.g_defined:
        raise DegenerateRatioError(f"g undefined at t={ri_tilde.t}")
    k, kp, kpp = fd_tilde.kappa, fd_tilde.dkappa_ds, fd_tilde.d2kappa_ds2
    f, g = ri_tilde.f, ri_tilde.g
    lhs = kpp * k * f * f - 3.0 * kp * kp * g * f + kpp * k - 3.0 * kp * kp
    return float(lhs / _condition_scale(fd_tilde, ri_tilde))


def planar_condition_residual(fd_tilde: FrenetData, ri_tilde) -> float:
    """Normalized residual of kappa kappa'' f^2 - 3 kappa'^2 g f - (3 kappa'^2 - kappa kappa'').

    Vanishing marks the principal-normal indicatrix as planar; the
    expression is algebraically identical to the helix condition.
    """
    if not ri_tilde.g_defined:
        raise DegenerateRatioError(f"g undefined at t={ri_tilde.t}")
    k, kp, kpp = fd_tilde.kappa, fd_tilde.dkappa_ds, fd_tilde.d2kappa_ds2
    f, g = ri_tilde.f, ri_tilde.g
    lhs = k * kpp * f * f - 3.0 * kp * kp * g * f - (3.0 * kp * kp - k * kpp)
    return float(lhs / _condition_scale(fd_tilde, ri_tilde))


# ---------------------------------------------------------------------------
# pair classification


@dataclass(frozen=True)
class PairClass:
    verdict: str  # 'bertrand' | 'mannheim' | 'involute_evolute' | 'none'
    evidence: dict


def _arclength_fractions(curve: Curve, ts):
    """Cumulative arc-length fraction of each grid node (trapezoid rule)."""
    s = cumulative_trapezoid(ts, [curve.speed(t) for t in ts])
    return s / s[-1]


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
    """
    if align == "arclength":
        # each curve on its own domain, inset as for the overlap grid
        ts_a = _overlap_grid(curveA, curveA, n)
        frac = _arclength_fractions(curveA, ts_a)
        grid_b = _overlap_grid(curveB, curveB, 4 * n)
        frac_b = _arclength_fractions(curveB, grid_b)
        ts_b = np.interp(frac, frac_b, grid_b)
    else:
        ts_a = _overlap_grid(curveA, curveB, n)
        ts_b = ts_a

    rows = []
    for ta, tb in zip(ts_a, ts_b):
        fa = frenet_grid(curveA, [ta])[0]
        fb = frenet_grid(curveB, [tb])[0]
        if fa is None or fb is None:
            continue
        rows.append((fa, fb, curveB.point(tb) - curveA.point(ta)))
    if len(rows) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(f"{len(rows)} regular sample pairs of {n}")

    D = np.array([r[2] for r in rows])
    scale = max(float(np.max(np.linalg.norm(D, axis=1))), 1e-30)

    def direction_test(axis_vecs, partner_vecs):
        """(offset-alignment dev, partner-axis alignment dev, |lambda| stat).

        The offset magnitude is tested unsigned: the axis vector's sign can
        flip along the curve (e.g. across torsion zeros) without breaking
        the geometric coincidence the definitions ask for.
        """
        lam = np.array([float(d @ a) for d, a in zip(D, axis_vecs)])
        transverse = np.linalg.norm(D - lam[:, None] * np.array(axis_vecs), axis=1)
        off_dev = float(np.max(transverse)) / scale
        dots = [abs(float(p @ a)) for p, a in zip(partner_vecs, axis_vecs)]
        axis_dev = float(np.max(1.0 - np.array(dots)))
        return off_dev, axis_dev, ConstancyStat.of(np.abs(lam))

    NA = [r[0].N for r in rows]
    BA = [r[0].B for r in rows]
    TA = [r[0].T for r in rows]
    NB = [r[1].N for r in rows]
    TB = [r[1].T for r in rows]

    ev = {}
    off, ax, lam = direction_test(NA, NB)
    ev["bertrand"] = {
        "offset_normal_dev": off,
        "normal_alignment_dev": ax,
        "lambda_mean": lam.mean,
        "lambda_dev": lam.max_deviation,
    }
    ok_b = (
        off < math.sqrt(tol)
        and ax < tol
        and lam.max_deviation < tol * (1.0 + abs(lam.mean))
    )

    off, ax, lam = direction_test(BA, NB)
    ev["mannheim"] = {
        "offset_binormal_dev": off,
        "normal_vs_binormal_dev": ax,
        "lambda_mean": lam.mean,
        "lambda_dev": lam.max_deviation,
    }
    ok_m = (
        off < math.sqrt(tol)
        and ax < tol
        and lam.max_deviation < tol * (1.0 + abs(lam.mean))
    )

    lamT = np.array([float(d @ a) for d, a in zip(D, TA)])
    transverse = np.linalg.norm(D - lamT[:, None] * np.array(TA), axis=1)
    tdots = np.array([abs(float(ta @ tb)) for ta, tb in zip(TA, TB)])
    ev["involute_evolute"] = {
        "offset_tangent_dev": float(np.max(transverse)) / scale,
        "tangent_orthogonality_dev": float(np.max(tdots)),
    }
    ok_i = ev["involute_evolute"]["offset_tangent_dev"] < math.sqrt(tol) and float(
        np.max(tdots)
    ) < math.sqrt(tol)

    if ok_b:
        verdict = "bertrand"
    elif ok_m:
        verdict = "mannheim"
    elif ok_i:
        verdict = "involute_evolute"
    else:
        verdict = "none"
    return PairClass(verdict=verdict, evidence=ev)


# ---------------------------------------------------------------------------
# identity suite


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


def _pair_rows(pair: BertrandPairModel):
    rows = []
    for i in pair.valid_indices():
        rb, rm = pair.ri_base[i], pair.ri_mate[i]
        if rb is None or rm is None or not (rb.g_defined and rm.g_defined):
            continue
        rows.append((pair.fd_base[i], pair.fd_mate[i], rb, rm))
    return rows


def theorem_suite(pair: BertrandPairModel, n: int = 256, tols: dict = None) -> TheoremReport:
    """Residual-and-tolerance report over the full catalog of pair identities.

    Identity entries must pass on any accepted pair; equivalence entries
    (helix/planar criteria) pass when the two sides of the iff agree.
    """
    tols = dict(tols or {})

    def tol(key, default):
        return tols.get(key, default)

    report = TheoremReport()
    rows = _pair_rows(pair)
    if len(rows) < MIN_CLASSIFY_SAMPLES:
        raise TooFewSamplesError(f"{len(rows)} usable grid rows")
    mf = pair.masked_fraction
    eps = pair.epsilon

    # th2: Gamma + Gamma_mate = 0 (slant indicators are negatives)
    g_sum = max(abs(rb.Gamma + rm.Gamma) for _, _, rb, rm in rows)
    report.add("th2", g_sum, tol("th2", 1e-5), mf)

    # th3 / th22: g constant on each side
    g_base = ConstancyStat.of([rb.g for _, _, rb, _ in rows])
    g_mate = ConstancyStat.of([rm.g for _, _, _, rm in rows])
    report.add("th3", g_mate.max_deviation / max(1.0, abs(g_mate.mean)),
               tol("th3", 1e-6), mf, note="constancy of g on the mate")
    report.add("th22", g_base.max_deviation / max(1.0, abs(g_base.mean)),
               tol("th22", 1e-6), mf, note="constancy of g on the base")

    # eps-g relation: eps*g + g_mate = 0
    eg = max(abs(eps * rb.g + rm.g) for _, _, rb, rm in rows)
    report.add("eps-g-relation", eg, tol("eps-g-relation", 1e-8), mf)

    # cross-side constraint equation
    ts_c = pair.ts[pair.valid_indices()][:: max(1, len(rows) // 64)]
    cres = max(abs(pair_constraint_residual(pair, t)) for t in ts_c)
    report.add("constraint-eq", cres, tol("constraint-eq", 1e-8), mf)

    # frame relations among indicatrix frames
    frames = frame_relations_check(pair, n=min(n, 64))
    fr = max(v for k, v in frames.items() if k != "masked_points")
    report.add("frame-relations", fr, tol("frame-relations", 1e-8), mf)

    # indicatrix closed-form sample grids, both sides
    ts_i = np.linspace(pair.ts[0], pair.ts[-1], min(n, 128))
    apps = {
        (side, axis): apparatus_grid(pair, side, axis, ts_i)
        for side in SIDES
        for axis in AXES
    }

    # tangent and binormal images share |kappa| and |tau|; Gamma_t = Gamma_b
    elf = 0.0
    for side in SIDES:
        for st, sb in zip(apps[(side, "tangent")], apps[(side, "binormal")]):
            if st is None or sb is None:
                continue
            elf = max(
                elf,
                abs(st.kappa - sb.kappa),
                abs(abs(st.tau) - abs(sb.tau)),
                abs(st.Gamma - sb.Gamma),
            )
    report.add("elf-corollaries", elf, tol("elf-corollaries", 1e-10), mf,
               note="|kappa_t - kappa_b|, ||tau_t| - |tau_b||, |Gamma_t - Gamma_b|")

    # cr14 / cr33: binormal arc length against the direct |B'| quadrature,
    # and the affine law s_b = slope * s_src + c2
    for key, side in (("cr14", "base"), ("cr33", "mate")):
        rel = indicatrix_arclength_relations(pair, side, n=min(n, 128))
        rng = max(abs(rel.s_b[-1] - rel.s_b[0]), 1e-30)
        direct_gap = float(np.max(np.abs(np.abs(rel.s_b) - rel.s_b_direct))) / rng
        affine_gap = rel.affine_fit.rms_residual / rng
        slope_gap = abs(abs(rel.affine_fit.slope) - rel.predicted_slope)
        report.add(key, max(direct_gap, affine_gap, slope_gap),
                   tol(key, 1e-5), mf,
                   note=f"c1={rel.c1:.6g}, c2={rel.c2:.6g}")

    # slant-helix flags on the curves and helix flags on the indicatrices
    gamma_dev = {
        "base": _relative_deviation([rb.Gamma for _, _, rb, _ in rows]),
        "mate": _relative_deviation([rm.Gamma for _, _, _, rm in rows]),
    }
    sph_helix = {}
    for side in SIDES:
        for axis in ("tangent", "binormal"):
            chk = spherical_helix_check(apps[(side, axis)])
            sph_helix[(side, axis)] = chk
    tau_n_rel = {}
    for side in SIDES:
        vals = [
            abs(s.tau) / max(abs(s.kappa), 1e-30)
            for s in apps[(side, "normal")]
            if s is not None
        ]
        tau_n_rel[side] = float(np.max(vals))

    tol_slant = tol("tol_slant", TOL_SLANT)
    tol_ih = tol("tol_indicatrix_helix", 1e-4)
    base_slant = gamma_dev["base"] < tol_slant
    mate_slant = gamma_dev["mate"] < tol_slant

    # th6/th25: curve slant-helix iff tangent indicatrix spherical helix
    # (both sides of the pair, all stated combinations)
    agree6 = all(
        (gamma_dev[s1] < tol_slant)
        == (sph_helix[(s2, "tangent")]["deviation"] < tol_ih)
        for s1 in SIDES
        for s2 in SIDES
    )
    report.add("th6", max(gamma_dev.values()), tol("th6", math.inf), mf,
               passed=agree6, note="boolean co-occurrence, all four combinations")
    report.add("th25", max(gamma_dev.values()), tol("th25", math.inf), mf,
               passed=agree6, note="same co-occurrence via the mate tangent image")

    # teo15 / teo33: slant helix iff binormal indicatrix spherical helix
    agree15 = all(
        (gamma_dev[s1] < tol_slant)
        == (sph_helix[(s2, "binormal")]["deviation"] < tol_ih)
        for s1 in SIDES
        for s2 in SIDES
    )
    report.add("teo15", max(gamma_dev.values()), tol("teo15", math.inf), mf,
               passed=agree15, note="boolean co-occurrence with binormal images")
    report.add("teo33", max(gamma_dev.values()), tol("teo33", math.inf), mf,
               passed=agree15, note="mate-side mirror of teo15")

    # th8/th17 and th11: shared condition residual, checked for agreement
    # with the indicatrix-level flags
    helix_res = max(
        abs(helix_condition_residual(fdm, rm)) for _, fdm, _, rm in rows
    )
    planar_res = max(
        abs(planar_condition_residual(fdm, rm)) for _, fdm, _, rm in rows
    )
    tol_cond = tol("tol_condition", 1e-3)
    cond_true = helix_res < tol_cond
    ind_true = sph_helix[("base", "tangent")]["deviation"] < tol_ih
    report.add("th8", helix_res, tol_cond, mf, passed=cond_true == ind_true,
               note="residual attached to the iff against the tangent image")
    report.add("th17", helix_res, tol_cond, mf, passed=cond_true == ind_true,
               note="same expression, binormal image")
    normal_planar = tau_n_rel["base"] < tol("tol_normal_planar", 1e-4)
    report.add("th11", planar_res, tol_cond, mf,
               passed=(planar_res < tol_cond) == normal_planar,
               note="algebraically identical to th8; planar-normal-image reading")

    # cr18: equivalence matrix of the three booleans
    flags = [
        sph_helix[("base", "tangent")]["deviation"] < tol_ih,
        normal_planar,
        sph_helix[("base", "binormal")]["deviation"] < tol_ih,
    ]
    report.add("cr18", float(len(set(flags)) - 1), 0.5, mf,
               passed=len(set(flags)) == 1,
               note=f"flags={flags}")

    # closing negative result: no indicatrix pair classifies as a named pair
    images_b = indicatrix_images(pair.base, max(64, n // 2))
    images_m = indicatrix_images(pair.mate, max(64, n // 2))
    verdicts = []
    for axis_a in AXES:
        try:
            pc = pair_classify(images_b[axis_a], images_m[axis_a], n=64, align="arclength")
            verdicts.append(pc.verdict)
        except (TooFewSamplesError, GridMismatchError):
            verdicts.append("untestable")
    bad = sum(v not in ("none", "untestable") for v in verdicts)
    report.add("negative-result", float(bad), 0.5, mf,
               passed=bad == 0, note=f"verdicts={verdicts}")

    report.add("p1p2-constancy",
               max(pair.p1.max_deviation, pair.p2.max_deviation,
                   pair.q1.max_deviation, pair.q2.max_deviation),
               tol("p1p2-constancy", 1e-6), mf,
               note="p1, p2, q1, q2 projection constants")
    return report
