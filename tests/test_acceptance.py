"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with -s to see the lines for passing criteria as well.
"""

import math

import numpy as np

from bertrand_kit import expr as ex
from bertrand_kit.bertrand import (
    construct_mate,
    detect_bertrand,
    pair_constraint_residual,
)
from bertrand_kit.classify import pair_classify, theorem_suite
from bertrand_kit.cli import main
from bertrand_kit.curves import (
    SampledCurve,
    frenet_apparatus,
    frenet_grid,
)
from bertrand_kit.errors import DomainError
from bertrand_kit.indicatrix import (
    apparatus_grid,
    frame_relations_check,
    indicatrix_arclength_relations,
    indicatrix_curve,
)
from bertrand_kit.jets import evaluate_jet


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def pair_sides(pair):
    for side in ("base", "mate"):
        yield side, (pair.base if side == "base" else pair.mate)


def test_criterion_01_helix_closed_form(helix):
    worst = 0.0
    for t in np.linspace(0.1, 5.9, 25):
        fd = frenet_apparatus(helix, t)
        worst = max(
            worst,
            abs(fd.kappa - 0.12),
            abs(fd.tau - 0.16),
            abs(fd.Gamma),
        )
    report(1, worst < 1e-9, f"helix kappa/tau/indicator max error {worst:.3e}")


def test_criterion_02_slant_indicators_cancel(three_pairs):
    worst = 0.0
    for p in three_pairs:
        for i in p.valid_indices():
            rb, rm = p.ri_base[i], p.ri_mate[i]
            scale = max(1.0, abs(rb.Gamma))
            worst = max(worst, abs(rb.Gamma + rm.Gamma) / scale)
    report(2, worst < 1e-5,
           f"max |G + G~| {worst:.3e} over 3 pairs, 256-point grids")


def test_criterion_03_derivative_ratio_invariants(three_pairs):
    worst_dev, worst_rel = 0.0, 0.0
    for p in three_pairs:
        for ri_list in (p.ri_base, p.ri_mate):
            g = np.array([r.g for r in ri_list if r is not None and r.g_defined])
            dev = np.max(np.abs(g - g.mean())) / max(1.0, np.max(np.abs(g)))
            worst_dev = max(worst_dev, dev)
        for i in p.valid_indices():
            rb, rm = p.ri_base[i], p.ri_mate[i]
            if rb.g_defined and rm.g_defined:
                worst_rel = max(worst_rel, abs(p.epsilon * rb.g + rm.g))
    ok = worst_dev < 1e-6 and worst_rel < 1e-8
    report(3, ok, f"g constancy {worst_dev:.3e}, eps*g + g~ {worst_rel:.3e}")


def test_criterion_04_constraint_and_sensitivity(pair_wobble):
    p = pair_wobble
    idx = p.valid_indices()[4:-4:8]
    worst = max(pair_constraint_residual(p, p.ts[i]) for i in idx)

    ts = np.linspace(p.ts[0], p.ts[-1], 300)
    pts = np.stack([p.mate.point(t) for t in ts])
    rng = np.random.default_rng(3)
    pts += 1e-3 * rng.standard_normal(pts.shape)
    # force acceptance so the residual itself shows the damage
    bad = detect_bertrand(p.base, SampledCurve(ts, pts), n=64,
                          tol_align=10.0, tol_const=10.0, inset=0.02)
    bad_res = max(
        pair_constraint_residual(bad, bad.ts[i])
        for i in bad.valid_indices()[4:-4:8]
    )
    ok = worst < 1e-6 and bad_res > 1e-3
    report(4, ok, f"residual {worst:.3e}, perturbed {bad_res:.3e}")


def test_criterion_05_closed_vs_direct_apparatus(pair_wobble):
    p = pair_wobble
    lo, hi = p.ts[0], p.ts[-1]
    ts = np.linspace(lo + 0.07 * (hi - lo), hi - 0.07 * (hi - lo), 6)

    def max_gap(n):
        worst = 0.0
        for side, src in pair_sides(p):
            for axis in ("tangent", "normal", "binormal"):
                img = indicatrix_curve(src, axis, n)
                for s, fdi in zip(apparatus_grid(p, side, axis, ts), frenet_grid(img, ts)):
                    gk = abs(abs(s.kappa_image) - fdi.kappa) / max(
                        abs(fdi.kappa), 1e-30)
                    gt = abs(abs(s.tau_image) - abs(fdi.tau)) / max(
                        abs(fdi.tau), 1e-30)
                    worst = max(worst, gk, gt)
        return worst

    gap512 = max_gap(512)
    # stencil noise dominates past ~50 samples, so convergence is
    # demonstrated where truncation still dominates
    g16, g32 = max_gap(16), max_gap(32)
    ok = gap512 < 1e-3 and g32 < g16 / 3.0
    report(5, ok,
           f"gap@512 {gap512:.3e}, doubling 16->32 shrink {g16 / g32:.1f}x")


def test_criterion_06_torsion_curvature_ratios(pair_wobble):
    p = pair_wobble
    lo, hi = p.ts[0], p.ts[-1]
    ts = np.linspace(lo + 0.07 * (hi - lo), hi - 0.07 * (hi - lo), 9)
    worst_mag, worst_split = 0.0, 0.0
    for side, src in pair_sides(p):
        for fd, st, sb in zip(frenet_grid(src, ts), apparatus_grid(p, side, "tangent", ts),
                              apparatus_grid(p, side, "binormal", ts)):
            G = fd.Gamma
            scale = max(1.0, abs(G))
            # the tangent ratio carries an orientation sign on the base
            # side; magnitudes agree everywhere
            worst_mag = max(
                worst_mag,
                abs(abs(st.tau / st.kappa) - abs(G)) / scale,
                abs(abs(sb.tau / sb.kappa) - abs(G)) / scale,
            )
            worst_split = max(
                worst_split,
                abs(st.Gamma - sb.Gamma) / scale,
            )
    ok = worst_mag < 1e-5 and worst_split < 1e-5
    report(6, ok,
           f"|tau/kappa| vs |G| {worst_mag:.3e}, G_t vs G_b {worst_split:.3e}")


def test_criterion_07_frame_relations(pair_wobble):
    rel = frame_relations_check(pair_wobble, n=64)
    worst = max(v for k, v in rel.items() if k != "masked_points")
    report(7, worst < 1e-8, f"six frame identities, max deviation {worst:.3e}")


def test_criterion_08_affine_arclength_law(pair_wobble):
    ok = True
    details = []
    for side in ("base", "mate"):
        rel = indicatrix_arclength_relations(pair_wobble, side, n=192)
        rng_s = abs(rel.s_b[-1] - rel.s_b[0])
        slope_gap = abs(abs(rel.affine_fit.slope) - rel.predicted_slope) / max(
            1.0, rel.predicted_slope)
        ok = ok and rel.affine_fit.rms_residual < 1e-6 * max(1.0, rng_s)
        ok = ok and slope_gap < 1e-5 and rel.c1_deviation < 1e-6
        details.append(f"{side}: rms {rel.affine_fit.rms_residual:.1e} "
                       f"slope gap {slope_gap:.1e} c1 dev {rel.c1_deviation:.1e}")
    report(8, ok, "; ".join(details))


def test_criterion_09_slant_helix_equivalence(pair_slant, three_pairs):
    ok = True
    for p in [pair_slant] + list(three_pairs):
        rep = theorem_suite(p)
        ok = ok and rep.entries["cr18"].passed and rep.entries["th6"].passed
    rep = theorem_suite(pair_slant)
    res = max(rep.entries["th8"].max_residual, rep.entries["th17"].max_residual)
    ok = ok and res < 1e-3 and "flags=[True, True, True]" in rep.entries["cr18"].note
    report(9, ok, f"booleans agree on 4 pairs; tuned residual {res:.3e}")


def test_criterion_10_indicatrix_pairs_not_special(pair_wobble):
    p = pair_wobble
    verdicts = []
    for axis in ("tangent", "normal", "binormal"):
        a = indicatrix_curve(p.base, axis, 400)
        b = indicatrix_curve(p.mate, axis, 400)
        verdicts.append(pair_classify(a, b, n=48, align="arclength").verdict)
    mate = construct_mate(p.base, p.lam, n=400)
    direct = pair_classify(p.base, mate, n=48).verdict
    ok = all(v == "none" for v in verdicts) and direct == "bertrand"
    report(10, ok, f"indicatrix verdicts {verdicts}, offset verdict {direct!r}")


def richardson_table(f, t, k, h0, levels=5):
    def fd(h):
        if k == 1:
            return (f(t + h) - f(t - h)) / (2 * h)
        if k == 2:
            return (f(t + h) - 2 * f(t) + f(t - h)) / h**2
        if k == 3:
            return (f(t + 2 * h) - 2 * f(t + h) + 2 * f(t - h)
                    - f(t - 2 * h)) / (2 * h**3)
        return (f(t + 2 * h) - 4 * f(t + h) + 6 * f(t) - 4 * f(t - h)
                + f(t - 2 * h)) / h**4

    T = [[fd(h0 / 2**i)] for i in range(levels)]
    for j in range(1, levels):
        for i in range(levels - j):
            fac = 4.0**j
            T[i].append((fac * T[i + 1][j - 1] - T[i][j - 1]) / (fac - 1))
    return T[0][levels - 1]


def test_criterion_11_jet_probes():
    rng = np.random.default_rng(42)
    pool = ["sin({c}*t)", "cos({c}*t)", "exp({c}*t)", "t^2", "t^3",
            "sqrt(4+t^2)", "log(4+t^2)", "1/(3+t)"]

    def rand_expr():
        a = pool[rng.integers(len(pool))].format(
            c=round(float(rng.uniform(0.3, 2.0)), 3))
        b = pool[rng.integers(len(pool))].format(
            c=round(float(rng.uniform(0.3, 2.0)), 3))
        return f"({a}){rng.choice(['+', '-', '*'])}({b})"

    worst, n = 0.0, 0
    while n < 1000:
        node = ex.parse_expression(rand_expr())
        t0 = float(rng.uniform(-1.5, 1.5))
        k = int(rng.integers(1, 5))
        try:
            exact = evaluate_jet(node, t0, k).coeffs[k] * math.factorial(k)

            def f(t):
                return evaluate_jet(node, t, 0).coeffs[0]

            h0 = {1: 0.1, 2: 0.1, 3: 0.25, 4: 0.3}[k]
            approx = richardson_table(f, t0, k, h0)
        except DomainError:
            continue
        worst = max(worst, abs(exact - approx) / max(1.0, abs(exact)))
        n += 1
    report(11, worst < 1e-6, f"1000 probes, worst relative gap {worst:.3e}")


def test_criterion_12_deterministic_reports(tmp_path, capsys, fresh_python):
    rc = main(["generate", "--sphere-curve", "tilt", "--n", "256",
               "--out", str(tmp_path / "b.json")])
    assert rc == 0
    rc = main(["mate", str(tmp_path / "b.json"), "--auto", "--n", "256",
               "--out", str(tmp_path / "m.json")])
    assert rc == 0
    capsys.readouterr()
    outs = []
    for seed in ("0", "1"):
        proc = fresh_python(["-m", "bertrand_kit.cli", "verify", str(tmp_path / "b.json"),
                             str(tmp_path / "m.json"), "--n", "48"], PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    with capsys.disabled():
        report(12, outs[0] == outs[1] and len(outs[0]) > 0,
               f"verify reports byte-identical in two processes with "
               f"PYTHONHASHSEED 0 and 1 ({len(outs[0])} bytes)")
