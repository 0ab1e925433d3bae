"""Curve and pair classification, plus the identity suite."""

import ast
import inspect
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bertrand_kit import classify
from bertrand_kit.bertrand import construct_mate, generated_pair
from bertrand_kit.classify import (
    _KEYLESS_ENTRIES,
    _SUITE_KEYS,
    IDENTITY_ENTRIES,
    _classify_image_rows,
    TOLERANCE_KEYS,
    classify_curve,
    pair_classify,
    theorem_suite,
)
from bertrand_kit.curves import _FRENET_ORDER, AnalyticCurve, SampledCurve, _take_rows
from bertrand_kit.errors import TooFewSamplesError
from bertrand_kit.indicatrix import indicatrix_curve
from bertrand_kit.paper import condition_residual


def test_helix_classification(helix):
    cc = classify_curve(helix, n=64)
    assert cc.general_helix
    assert cc.slant_helix  # Gamma = 0 is constant
    assert not cc.planar
    assert not cc.spherical


def test_circle_classification():
    circle = AnalyticCurve("cos(t)", "sin(t)", "0*t", (0.0, 6.0))
    cc = classify_curve(circle, n=64)
    assert cc.planar
    assert cc.spherical
    assert cc.metrics["sphere_fit_radius"] == pytest.approx(1.0, abs=1e-8)


def test_generic_base_classification(pair_wobble):
    cc = classify_curve(pair_wobble.base, n=64)
    assert not cc.planar
    assert not cc.general_helix
    assert not cc.slant_helix
    assert not cc.spherical


def test_slant_base_classification(pair_slant):
    cc = classify_curve(pair_slant.base, n=64)
    assert cc.slant_helix
    assert not cc.general_helix


def test_too_few_samples():
    c = AnalyticCurve("t", "t^2", "t^3", (0.0, 1.0))
    with pytest.raises(TooFewSamplesError):
        classify_curve(c, n=8)
    line = AnalyticCurve("t", "2*t", "3*t", (0.0, 1.0))
    with pytest.raises(TooFewSamplesError, match="0 regular samples of 64; need 16"):
        classify_curve(line, n=64)


@pytest.mark.parametrize("align", ["param", "arclength"])
def test_pair_classify_needs_16_regular_pairs(align):
    """(t, t^12, t^13) has kappa below its floor for t < 0.076 on [0, 0.1]:
    its pair with its normal offset has 15 regular pairs at n = 66, which
    raises, and 16 at n = 67, which classifies."""
    c = AnalyticCurve("t", "t^12", "t^13", (0.0, 0.1))
    mate = construct_mate(c, 0.1)
    with pytest.raises(TooFewSamplesError, match="^15 regular sample pairs of 66$"):
        pair_classify(c, mate, n=66, align=align)
    assert pair_classify(c, mate, n=67, align=align).verdict == "none"


def test_pair_classify_bertrand(pair_wobble):
    pc = pair_classify(pair_wobble.base, pair_wobble.mate, n=64)
    assert pc.verdict == "bertrand"
    assert pc.evidence["bertrand"]["lambda_dev"] < 1e-9


def test_pair_classify_rejects_an_unknown_align(pair_wobble, monkeypatch):
    """An align other than 'param' or 'arclength' raises ValueError naming
    it before any grid is built (it ran 'param': wobble's pair said
    'bertrand')."""
    def no_grid(*args, **kwargs):
        pytest.fail("grid built")

    monkeypatch.setattr(classify, "_overlap_grid", no_grid)
    with pytest.raises(ValueError, match="'nonsense'"):
        pair_classify(pair_wobble.base, pair_wobble.mate, n=64, align="nonsense")


def mannheim_fixture():
    """Integrate a Frenet system with kappa = kappa^2 + tau^2 (lambda = 1),
    then offset along the principal normal."""

    def kap(s):
        return 0.5 + 0.2 * np.sin(s)

    def tor(s):
        k = kap(s)
        return np.sqrt(k - k * k)

    def rhs(s, y):
        T, N, B = y[3:6], y[6:9], y[9:12]
        k, tau = kap(s), tor(s)
        return np.concatenate([T, k * N, -k * T + tau * B, -tau * N])

    y0 = np.concatenate([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
    ss = np.linspace(0.0, 6.0, 1200)
    sol = solve_ivp(rhs, (0, 6), y0, t_eval=ss, rtol=1e-12, atol=1e-12,
                    method="DOP853")
    P = sol.y[:3].T
    N = sol.y[6:9].T
    return SampledCurve(ss, P), SampledCurve(ss, P + N)


def test_pair_classify_mannheim():
    gamma, partner = mannheim_fixture()
    pc = pair_classify(partner, gamma, n=64, tol=1e-4)
    assert pc.verdict == "mannheim"
    assert pc.evidence["mannheim"]["lambda_dev"] < 1e-6


def test_pair_classify_involute(helix):
    # involute: i(t) = g(t) + (c - s(t)) T(t) meets the tangents at right
    # angles, so the evolute/involute branch must fire
    from bertrand_kit.curves import frenet_apparatus

    ts = np.linspace(0.2, 5.8, 400)
    pts = []
    for t in ts:
        fd = frenet_apparatus(helix, t)
        s = 5.0 * t
        pts.append(helix.point(t) + (40.0 - s) * fd.T)
    pc = pair_classify(helix, SampledCurve(ts, np.array(pts)), n=64, tol=1e-4)
    assert pc.verdict == "involute_evolute"


def test_pair_classify_none_for_unrelated(helix):
    other = AnalyticCurve("t", "t^2/3", "sin(t)", (0.2, 5.8))
    pc = pair_classify(helix, other, n=64)
    assert pc.verdict == "none"


def test_indicatrix_pairs_are_not_special(pair_wobble):
    p = pair_wobble
    for axis in ("tangent", "binormal"):
        a = indicatrix_curve(p.base, axis, 400)
        b = indicatrix_curve(p.mate, axis, 400)
        pc = pair_classify(a, b, n=48, align="arclength")
        assert pc.verdict == "none"


def test_arclength_alignment_speeds_keep_their_bits(pair_wobble, helix):
    """The arc-length alignment reads the first curve's speeds from the
    grid jet its rows read: on an analytic, a generated and a
    normal-offset curve that jet's first coefficient has the bits of an
    order-1 request, so those speeds are the curve's own."""
    for curve in (helix, pair_wobble.base, pair_wobble.mate):
        ts = np.linspace(*curve.domain, 97)
        grid_jet = curve.jet(ts, _FRENET_ORDER).coeffs[1]
        assert np.array_equal(grid_jet.view(np.uint64), curve.jet(ts, 1).coeffs[1].view(np.uint64))


def test_theorem_suite_all_pass(pair_wobble):
    rep = theorem_suite(pair_wobble)
    failing = [k for k, e in rep.entries.items() if not e.passed]
    assert rep.all_passed, failing


def test_theorem_suite_slant_pair(pair_slant):
    rep = theorem_suite(pair_slant)
    assert rep.all_passed
    assert rep.entries["th8"].max_residual < 1e-3
    assert rep.entries["th17"].max_residual < 1e-3
    assert "flags=[True, True, True]" in rep.entries["cr18"].note


@pytest.mark.parametrize("a", [0.7, 1.0, 1.37])
@pytest.mark.parametrize("preset, omega", [("wobble", 0.5), ("tilt", 2.6), ("bean", 2.0),
                                           ("slant", 2.5)])
def test_theorem_suite_passes_on_an_eps_plus_one_pair(preset, omega, a):
    """At these angles the mate's normal is the base's (epsilon = +1), so
    th2 reads Gamma_mate = +Gamma: the whole suite passes, where th2 once
    read |Gamma + Gamma_mate| = 2 max|Gamma| and failed."""
    pair = generated_pair(preset, a=a, omega=omega, n=64, grid=24)
    assert pair.epsilon == 1
    rep = theorem_suite(pair)
    assert rep.all_passed, [k for k, e in rep.entries.items() if not e.passed]


@pytest.mark.parametrize("preset, omega", [("wobble", 0.5), ("tilt", 2.6), ("bean", 2.0),
                                           ("slant", 2.5)])
def test_coincident_curves_classify_as_no_pair(preset, omega):
    """Curves whose points lie within detection's coincidence floor are no
    pair of any kind: a curve beside itself classifies as 'none' (it
    classified as 'bertrand' with lambda_mean 0), and so does the
    normal-axis image pair of an epsilon = +1 pair, whose two images
    coincide (N_mate = N), so that its verdict no longer rests on a
    roundoff-sized transverse offset over a roundoff-sized scale."""
    pair = generated_pair(preset, omega=omega, n=64, grid=24)
    assert pair.epsilon == 1
    assert pair_classify(pair.base, pair.base, n=24).verdict == "none"
    normal = _classify_image_rows(pair._images, pair.ts[~pair.masked])["normal"]
    assert normal.verdict == "none"
    assert abs(normal.evidence["bertrand"]["lambda_mean"]) < 1e-12


def test_suite_classifies_the_three_image_pairs_in_one_call(monkeypatch):
    """One ``theorem_suite`` makes one ``_classify_rows`` call, with one
    column group per axis (three calls of one group each before)."""
    pair = generated_pair("wobble", n=64, grid=24)
    real = classify._classify_rows
    groups = []

    def counting(rows_a, ok_a, rows_b, ok_b, column_groups, tol):
        groups.append(len(column_groups))
        return real(rows_a, ok_a, rows_b, ok_b, column_groups, tol)

    monkeypatch.setattr(classify, "_classify_rows", counting)
    theorem_suite(pair)
    assert groups == [3]


@pytest.mark.parametrize("key, value", [("th2", -1.0), ("th2", 0.0), ("th2", -math.inf),
                                        ("th2", math.nan), ("tol_slant", -5.0)])
def test_theorem_suite_rejects_a_tolerance_no_residual_meets(pair_wobble, key, value):
    """A tolerance of 0 or less (or NaN) is an error that names the key,
    where it used to fail an identity on a valid pair or turn every flag
    of a threshold off; inf stays a tolerance."""
    with pytest.raises(ValueError, match=f"tolerance of {key!r} must be above 0"):
        theorem_suite(pair_wobble, tols={key: value})
    assert theorem_suite(pair_wobble, tols={key: math.inf}).entries["th2"].passed


def test_theorem_tolerance_override(pair_wobble):
    rep = theorem_suite(pair_wobble, tols={"th2": 1e-20})
    assert not rep.entries["th2"].passed
    assert rep.entries["th2"].tolerance == 1e-20


# what sets the tolerance of an entry that has no key of its own
KEYLESS_WHY = {
    **dict.fromkeys(("th6", "th25", "teo15", "teo33"),
                    "tol_slant and tol_indicatrix_helix set its flags"),
    **dict.fromkeys(("th8", "th17", "th11"), "tol_condition sets its tolerance"),
    **dict.fromkeys(("cr18", "negative-result"),
                    "a verdict count against a fixed tolerance of 0.5"),
}


@pytest.mark.parametrize("tols", [{"thx": 1.0}, {"th8": 1e-30}, {"cr18": 0.0}, {"th6": 0.0},
                                  {"th25": 0.0}, {"teo15": 0.0}, {"teo33": -1.0},
                                  {"th17": 1.0}, {"th11": 1.0}, {"negative-result": 1.0}])
def test_theorem_suite_rejects_a_key_it_does_not_read(pair_wobble, tols):
    """A tolerance under a key the suite reads nothing from is an error
    that names the key, where it used to be ignored; for an entry with no
    key of its own it says what sets that entry's tolerance, as
    ``verify --tol`` does."""
    (key,) = tols
    with pytest.raises(ValueError, match=repr(key)) as err:
        theorem_suite(pair_wobble, tols={"th2": 1e-5, **tols})
    assert str(err.value) == (f"{key!r} has no tolerance key: {KEYLESS_WHY[key]}"
                              if key in KEYLESS_WHY else f"unknown tolerance key {key!r}")


# the tolerance each entry reports at the defaults
DEFAULT_TOLERANCE = {
    "th2": 1e-5, "th3": 1e-6, "th22": 1e-6, "eps-g-relation": 1e-8, "constraint-eq": 1e-8,
    "frame-relations": 1e-8, "elf-corollaries": 1e-10, "cr14": 1e-5, "cr33": 1e-5,
    "th6": math.inf, "th25": math.inf, "teo15": math.inf, "teo33": math.inf,
    "th8": 1e-3, "th17": 1e-3, "th11": 1e-3, "cr18": 0.5, "negative-result": 0.5,
    "p1p2-constancy": 1e-6,
}


def test_suite_table_has_one_row_per_key(pair_wobble):
    """Every entry the suite reports has one row of the suite table, and
    the table's other rows are the four flag thresholds; no key is
    written twice in the table's source, where the later row would hide
    the earlier."""
    rep = theorem_suite(pair_wobble)
    thresholds = ("tol_slant", "tol_indicatrix_helix", "tol_condition", "tol_normal_planar")
    assert sorted(_SUITE_KEYS) == sorted([*rep.entries, *thresholds])
    assert [k for k, row in _SUITE_KEYS.items() if row.kind == "threshold"] == list(thresholds)
    table = next(node.value for node in ast.walk(ast.parse(inspect.getsource(classify)))
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_SUITE_KEYS"])
    # a key row, or a dict.fromkeys group of keys
    written = [name.value for key, value in zip(table.keys, table.values)
               for name in ([key] if key else value.args[0].elts)]
    assert sorted(written) == sorted(_SUITE_KEYS)
    assert {k: e.tolerance for k, e in rep.entries.items()} == DEFAULT_TOLERANCE


def test_alias_entries_share_one_check_and_keep_their_notes(pair_wobble):
    """th25, teo33 and th17 report the residual and verdict of th6, teo15
    and th8, each under its own note."""
    rep = theorem_suite(pair_wobble)
    for key, alias in (("th6", "th25"), ("teo15", "teo33"), ("th8", "th17")):
        a, b = rep.entries[key], rep.entries[alias]
        assert (a.max_residual, a.tolerance, a.passed) == (b.max_residual, b.tolerance, b.passed)
    assert {k: e.note for k, e in rep.entries.items()
            if k not in ("cr14", "cr33", "cr18", "negative-result") and e.note} == {
        "th3": "constancy of g on the mate",
        "th22": "constancy of g on the base",
        "elf-corollaries": "|kappa_t - kappa_b|, ||tau_t| - |tau_b||, |Gamma_t - Gamma_b|",
        "th6": "boolean co-occurrence, all four combinations",
        "th25": "same co-occurrence via the mate tangent image",
        "teo15": "boolean co-occurrence with binormal images",
        "teo33": "mate-side mirror of teo15",
        "th8": "residual attached to the iff against the tangent image",
        "th17": "same expression, binormal image",
        "th11": "algebraically identical to th8; planar-normal-image reading",
        "p1p2-constancy": "p1, p2, q1, q2 projection constants",
    }


def test_derived_key_lists_are_the_old_literals():
    """The key lists read from the table equal the tuples they replace."""
    assert IDENTITY_ENTRIES == ("th2", "th3", "th22", "eps-g-relation", "constraint-eq",
                                "frame-relations", "elf-corollaries", "cr14", "cr33",
                                "p1p2-constancy")
    assert TOLERANCE_KEYS == IDENTITY_ENTRIES + (
        "tol_slant", "tol_indicatrix_helix", "tol_condition", "tol_normal_planar")
    assert list(_KEYLESS_ENTRIES.items()) == list(KEYLESS_WHY.items())


def test_threshold_key_sets_the_tolerance_of_its_entries(pair_wobble):
    """tol_condition is the reported tolerance of th8, th17 and th11, and
    an identity key moves its own entry only."""
    rep = theorem_suite(pair_wobble, tols={"tol_condition": 2e-3, "th22": 3e-6})
    got = {k: e.tolerance for k, e in rep.entries.items()}
    assert got == {**DEFAULT_TOLERANCE, "th8": 2e-3, "th17": 2e-3, "th11": 2e-3,
                   "th22": 3e-6}


@pytest.mark.parametrize("preset", ["wobble", "tilt", "bean", "slant"])
def test_condition_residual_is_scale_invariant(preset):
    """Scaling a generated pair by 2 scales kappa by 1/2, kappa' by 1/4 and
    kappa'' by 1/8, all exactly: the normalized condition residual of the
    usable rows of either curve keeps its bits at a = 0.5, 1 and 2.  A
    scale that dropped a kappa or kappa' factor would move by powers of
    two."""
    residuals = []
    for a in (0.5, 1.0, 2.0):
        pair = generated_pair(preset, a=a, n=64, grid=24)
        usable = pair.base_rows.g_defined & pair.mate_rows.g_defined
        residuals.append([condition_residual(_take_rows(rows, usable)).view(np.uint64)
                          for rows in (pair.base_rows, pair.mate_rows)])
    for other in residuals[1:]:
        for got, want in zip(other, residuals[0]):
            assert np.array_equal(got, want)
