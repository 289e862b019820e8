"""Unit tests for norms and contraction estimation."""

import math

import numpy as np
import pytest

from letd.analysis import ErrorReport, estimate_contraction, linf_norms
from oracles import relative_spacetime


# ---------------------------------------------------------------------------
# estimate_contraction
# ---------------------------------------------------------------------------


def test_contraction_of_exact_geometric_curve_is_r_squared():
    for r in (0.9, 0.5, 0.123):
        curve = r ** np.arange(12, dtype=float)
        est = estimate_contraction(curve)
        assert abs(est - r * r) < 1e-12


def test_contraction_ignores_warmup_and_final_entries():
    r = 0.7
    curve = r ** np.arange(12, dtype=float)
    curve[0] = 40.0       # arbitrary guess magnitude
    curve[1] = 3.5        # still warm-up
    curve[-1] = 1e-300    # floored by a stopping tolerance
    est = estimate_contraction(curve)
    assert abs(est - r * r) < 1e-12


def test_contraction_matches_explicit_two_step_geometric_mean():
    rng = np.random.default_rng(7)
    curve = (0.8 ** np.arange(15)) * np.exp(0.05 * rng.standard_normal(15))
    est = estimate_contraction(curve)
    # independent re-computation: geometric mean of e_{k+2}/e_k over the
    # trimmed index range [skip_head, len - skip_tail)
    kept = curve[2 : len(curve) - 1]
    ratios = [kept[i + 2] / kept[i] for i in range(len(kept) - 2)]
    expected = math.exp(sum(math.log(x) for x in ratios) / len(ratios))
    assert abs(est - expected) < 1e-13


def test_contraction_rejects_bad_curves():
    good = 0.5 ** np.arange(8, dtype=float)
    with pytest.raises(ValueError):
        estimate_contraction(good[:5])  # too short: needs >= 6
    with pytest.raises(ValueError):
        estimate_contraction(np.where(np.arange(8) == 3, 0.0, good))
    with pytest.raises(ValueError):
        estimate_contraction(np.where(np.arange(8) == 3, -1.0, good))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="NaN"):
            estimate_contraction(np.where(np.arange(8) == 3, bad, good))
    # an infinity past the warm-up entries, where it would enter a ratio
    with pytest.raises(ValueError, match="NaN"):
        estimate_contraction([1, 1, 1, 1, np.inf, 1, 1, 1])
    with pytest.raises(ValueError):
        estimate_contraction(good.reshape(2, 4))


def test_contraction_custom_trim_windows():
    r = 0.6
    curve = r ** np.arange(9, dtype=float)
    est = estimate_contraction(curve, skip_head=0, skip_tail=0)
    assert abs(est - r * r) < 1e-12
    three = estimate_contraction(curve[:3], skip_head=0, skip_tail=0)
    assert abs(three - r * r) < 1e-12  # single usable ratio
    with pytest.raises(ValueError):
        estimate_contraction(curve[:2], skip_head=0, skip_tail=0)


# ---------------------------------------------------------------------------
# linf_norms / ErrorReport
# ---------------------------------------------------------------------------


def test_linf_norms_per_level_and_spacetime():
    hist = np.array([[0.0, 1.0, 0.5], [2.0, -1.0, 0.0]])
    ref = np.array([[0.0, 0.5, 0.5], [0.0, -1.0, 3.0]])
    rep = linf_norms(hist, ref)
    assert np.allclose(rep.linf_space, [0.5, 3.0])
    assert rep.linf_spacetime == 3.0
    assert rep.reference_scale == 3.0
    assert abs(relative_spacetime(rep) - 1.0) < 1e-15


def test_linf_norms_flattens_higher_node_layouts():
    rng = np.random.default_rng(0)
    hist = rng.standard_normal((4, 3, 5))
    ref = rng.standard_normal((4, 3, 5))
    rep = linf_norms(hist, ref)
    expect = np.abs(hist - ref).max(axis=(1, 2))
    assert np.allclose(rep.linf_space, expect)
    assert rep.linf_spacetime == expect.max()


def test_linf_norms_rejects_mismatch_and_nan():
    a = np.zeros((2, 3))
    with pytest.raises(ValueError):
        linf_norms(a, np.zeros((2, 4)))
    for bad in (np.nan, np.inf, -np.inf):
        b = a.copy()
        b[1, 2] = bad
        with pytest.raises(ValueError, match="NaN"):
            linf_norms(b, a)
        with pytest.raises(ValueError, match="NaN"):
            linf_norms(a, b)


def test_relative_error_undefined_for_zero_reference():
    rep = ErrorReport(linf_space=np.array([1.0]), linf_spacetime=1.0, reference_scale=0.0)
    with pytest.raises(ValueError):
        _ = relative_spacetime(rep)
