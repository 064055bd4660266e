import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzmap import (
    FclParseError,
    FuzzyRule,
    FuzzySystem,
    MembershipFunction,
    default_system,
    evaluate,
    evaluate_many,
)
from fuzzmap.fuzzy import _CHUNK

from oracles import mamdani_centroid_oracle

# frozen from the 1e6-sample midpoint-integration oracle (cross-checked
# against a hand evaluation of the piecewise integrals)
ORACLE_VALUES = {
    0.1: 0.3426666666684634,
    0.25: 0.3854166666667436,
    0.75: 0.6145833333332542,
    0.9: 0.6573333333301162,
}


def test_membership_interpolation():
    mf = MembershipFunction(((0.2, 0.0), (0.5, 1.0), (0.8, 0.0)))
    assert mf.at(0.2) == 0.0
    assert mf.at(0.5) == 1.0
    assert mf.at(0.35) == pytest.approx(0.5)
    assert mf.at(0.1) == 0.0  # outside the span
    assert mf.at(0.9) == 0.0
    np.testing.assert_allclose(mf.at(np.array([0.2, 0.35, 0.5])), [0.0, 0.5, 1.0])


def test_membership_validation():
    with pytest.raises(FclParseError, match="non-increasing x"):
        MembershipFunction(((0.2, 0.0), (0.1, 1.0)))
    with pytest.raises(FclParseError):
        MembershipFunction(((0.0, 0.0), (1.2, 1.0)))
    with pytest.raises(FclParseError):
        MembershipFunction(((0.0, 1.5),))
    with pytest.raises(FclParseError):
        MembershipFunction(())


def test_system_validation():
    ramp = MembershipFunction(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(FclParseError, match="at least one rule"):
        FuzzySystem("x", "y", {"a": ramp}, {"b": ramp}, rules=())
    with pytest.raises(FclParseError, match="unresolved"):
        FuzzySystem("x", "y", {"a": ramp}, {"b": ramp}, rules=(FuzzyRule("near", "b"),))
    with pytest.raises(FclParseError, match="unresolved output term 'far'"):
        FuzzySystem("x", "y", {"a": ramp}, {"b": ramp}, rules=(FuzzyRule("a", "far"),))
    for bad in (7.5, -0.25, float("inf"), float("nan")):
        with pytest.raises(FclParseError, match=r"DEFAULT must be in \[0, 1\]"):
            FuzzySystem("x", "y", {"a": ramp}, {"b": ramp}, rules=(FuzzyRule("a", "b"),),
                        default_output=bad)


def test_default_system_shape():
    sys = default_system()
    assert len(sys.rules) == 2
    assert set(sys.input_terms) == {"close_to_r", "close_to_R"}
    assert set(sys.output_terms) == {"adjacent", "non_adjacent"}


def test_evaluate_midpoint_fixed_point():
    assert evaluate(default_system(), 0.5) == pytest.approx(0.5, abs=1e-9)


def test_evaluate_leans_with_input():
    sys = default_system()
    assert evaluate(sys, 0.9) > 0.5  # close to r: likely adjacent
    assert evaluate(sys, 0.1) < 0.5


@pytest.mark.parametrize("x", sorted(ORACLE_VALUES))
def test_evaluate_matches_integration_oracle(x):
    assert evaluate(default_system(), x) == pytest.approx(ORACLE_VALUES[x], abs=1e-4)


@pytest.mark.slow
def test_oracle_values_are_current():
    for x, frozen in ORACLE_VALUES.items():
        assert mamdani_centroid_oracle(x) == pytest.approx(frozen, abs=1e-12)


def test_monotone_non_decreasing_on_grid():
    sys = default_system()
    grid = np.round(np.arange(0.0, 1.0005, 0.001), 9)
    values = evaluate_many(sys, grid)
    assert np.all(np.diff(values) >= 0.0)


def test_symmetry_on_grid():
    sys = default_system()
    grid = np.linspace(0.0, 1.0, 1001)
    values = evaluate_many(sys, grid)
    np.testing.assert_allclose(values + values[::-1], 1.0, atol=1e-6)


def test_range_bounds():
    sys = default_system()
    values = evaluate_many(sys, np.linspace(0.0, 1.0, 2001))
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_scalar_equals_vectorized():
    sys = default_system()
    xs = np.linspace(0.0, 1.0, 97)
    many = evaluate_many(sys, xs)
    for x, expected in zip(xs, many):
        assert evaluate(sys, float(x)) == expected


def test_evaluate_many_across_chunk_boundaries():
    sys = default_system()
    xs = np.random.default_rng(5).random(2 * _CHUNK + 3)
    many = evaluate_many(sys, xs)
    assert many.shape == xs.shape
    edges = (0, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 2)
    for i in edges:
        assert evaluate(sys, float(xs[i])) == many[i]


def test_no_rule_fires_returns_default():
    spike = MembershipFunction(((0.4, 0.0), (0.5, 1.0), (0.6, 0.0)))
    ramp = MembershipFunction(((0.0, 0.0), (1.0, 1.0)))
    sys = FuzzySystem("x", "y", {"near_half": spike}, {"out": ramp},
                      rules=(FuzzyRule("near_half", "out"),))
    assert evaluate(sys, 0.9) == 0.5
    custom = FuzzySystem("x", "y", {"near_half": spike}, {"out": ramp},
                         rules=(FuzzyRule("near_half", "out"),), default_output=0.25)
    assert evaluate(custom, 0.9) == 0.25
    assert evaluate(custom, 0.5) != 0.25  # the rule fires at its peak


def test_input_domain_enforced():
    sys = default_system()
    for bad in (-0.1, 1.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            evaluate(sys, bad)
    with pytest.raises(ValueError, match="scalar or 1-d"):
        evaluate_many(sys, [[0.5, 0.5]])


@settings(max_examples=120, deadline=None)
@given(x=st.floats(0.0, 1.0))
def test_range_and_symmetry_property(x):
    sys = default_system()
    val = evaluate(sys, x)
    assert 0.0 <= val <= 1.0
    assert val + evaluate(sys, 1.0 - x) == pytest.approx(1.0, abs=1e-6)
