"""Distribution algebra: exponential biasing, JSD, KLD."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajmark.equivalence import (
    Distribution,
    derive_target_distribution,
    js_divergence,
    kl_divergence,
)
from trajmark.errors import (
    ArityMismatch,
    IndexOutOfRange,
    InvalidDistribution,
    InvalidRange,
    SupportMismatch,
)


def weights_strategy(min_size=2, max_size=5):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=min_size, max_size=max_size)
        .map(lambda ws: tuple(w / math.fsum(ws) for w in ws))
    )


# --- target-distribution derivation ----------------------------------------

def test_delta_zero_is_exact_identity():
    d = Distribution((0.5, 0.5))
    assert derive_target_distribution(d, 0, 0.0).weights == (0.5, 0.5)
    odd = Distribution((0.1, 0.2, 0.7))
    assert derive_target_distribution(odd, 2, 0.0).weights == odd.weights


def test_half_half_ln3_gives_three_quarters():
    d = derive_target_distribution(Distribution((0.5, 0.5)), 0, math.log(3))
    assert d.weights[0] == pytest.approx(0.75, abs=1e-12)
    assert d.weights[1] == pytest.approx(0.25, abs=1e-12)


def test_skewed_delta_two_example():
    # scalar oracle: 0.2 * e^2 = 1.47781122, denominator 2.27781122
    boosted = 0.2 * math.exp(2.0)
    expected = boosted / (boosted + 0.8)
    assert expected == pytest.approx(0.6487856, abs=1e-7)
    d = derive_target_distribution(Distribution((0.2, 0.8)), 0, 2.0)
    assert d.weights[0] == pytest.approx(expected, abs=1e-12)
    assert d.weights[1] == pytest.approx(1.0 - expected, abs=1e-12)


def test_derive_errors():
    with pytest.raises(IndexOutOfRange):
        derive_target_distribution(Distribution((0.5, 0.5)), 2, 1.0)
    with pytest.raises(InvalidRange):
        derive_target_distribution(Distribution((0.5, 0.5)), 0, -0.1)
    with pytest.raises(InvalidDistribution):
        Distribution((0.5, 0.6))


@settings(max_examples=200)
@given(weights_strategy(), st.integers(0, 4), st.floats(0.0, 30.0))
def test_derive_normalizes_and_boosts(ws, t, delta):
    t = t % len(ws)
    natural = Distribution(ws)
    biased = derive_target_distribution(natural, t, delta)
    assert abs(math.fsum(biased.weights) - 1.0) <= 1e-12
    assert biased.weights[t] >= natural.weights[t] - 1e-15


@settings(max_examples=100)
@given(weights_strategy(min_size=3), st.floats(0.1, 10.0))
def test_derive_preserves_nontarget_ratios(ws, delta):
    natural = Distribution(ws)
    biased = derive_target_distribution(natural, 0, delta)
    for j in range(1, len(ws)):
        for k in range(j + 1, len(ws)):
            left = biased.weights[j] / biased.weights[k]
            right = natural.weights[j] / natural.weights[k]
            assert left == pytest.approx(right, abs=1e-12, rel=1e-9)


def test_derive_monotone_in_delta():
    natural = Distribution((0.3, 0.7))
    last_target, last_other = natural.weights[0], natural.weights[1]
    for delta in (0.5, 1.0, 2.0, 3.0, 4.0):
        b = derive_target_distribution(natural, 0, delta)
        assert b.weights[0] > last_target
        assert b.weights[1] < last_other
        last_target, last_other = b.weights


def test_derive_limit_behaviour():
    for ws, t in [((0.5, 0.5), 0), ((0.01, 0.99), 0), ((0.2, 0.3, 0.5), 1)]:
        b = derive_target_distribution(Distribution(ws), t, 50.0)
        assert b.weights[t] >= 1.0 - 1e-6


def test_derive_refuses_a_delta_whose_exponential_overflows():
    # e**709 is a float; e**710 is not
    assert derive_target_distribution(Distribution((0.5, 0.5)), 0, 709.0).weights[0] == 1.0
    for delta in (710.0, 1000.0, 1e308):
        with pytest.raises(InvalidRange, match=re.escape(f"delta {delta!r} is too large")):
            derive_target_distribution(Distribution((0.5, 0.5)), 0, delta)


# --- drawing a member ----------------------------------------------------------

def _scan_sample(weights, u):
    """The draw as a linear scan of the running sums: the reference for ``sample``."""
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


class _FixedVariate:
    """An RNG whose every uniform variate is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@st.composite
def _sample_case(draw):
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=1, max_size=6)
               .filter(any))
    weights = tuple(w / math.fsum(raw) for w in raw)
    sums = list(itertools.accumulate(weights))
    # a variate anywhere, at a running sum, or one float to either side of it
    u = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.just(0.0),
        st.sampled_from(sums),
        st.sampled_from(sums).map(lambda s: math.nextafter(s, 0.0)),
        st.sampled_from(sums).map(lambda s: math.nextafter(s, 1.0)),
    ))
    return weights, u


@settings(max_examples=500)
@given(_sample_case())
def test_sample_bisects_what_the_linear_scan_finds(case):
    weights, u = case
    dist = Distribution(weights)
    assert dist.cum_weights == tuple(itertools.accumulate(weights))
    drawn = dist.sample(_FixedVariate(u))
    assert drawn == _scan_sample(weights, u)
    # a member of zero weight is drawn only as the last one, by rounding
    assert weights[drawn] > 0.0 or drawn == len(weights) - 1


# --- Jensen-Shannon divergence ----------------------------------------------

def test_jsd_identity_and_disjoint():
    p = Distribution((0.3, 0.7))
    assert js_divergence(p, p) == 0.0
    one_hot_a = Distribution((1.0, 0.0))
    one_hot_b = Distribution((0.0, 1.0))
    assert js_divergence(one_hot_a, one_hot_b) == 1.0


def test_jsd_arity_mismatch():
    with pytest.raises(ArityMismatch):
        js_divergence(Distribution((1.0,)), Distribution((0.5, 0.5)))


def test_jsd_symmetry_on_random_pairs():
    rng = random.Random(7)
    for _ in range(1000):
        k = rng.randint(2, 5)
        raw_p = [rng.random() + 1e-9 for _ in range(k)]
        raw_q = [rng.random() + 1e-9 for _ in range(k)]
        p = Distribution(tuple(w / math.fsum(raw_p) for w in raw_p))
        q = Distribution(tuple(w / math.fsum(raw_q) for w in raw_q))
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-15)
        assert 0.0 <= js_divergence(p, q) <= 1.0


@settings(max_examples=150)
@given(weights_strategy(), weights_strategy())
def test_jsd_bounds_property(pw, qw):
    if len(pw) != len(qw):
        return
    v = js_divergence(Distribution(pw), Distribution(qw))
    assert 0.0 <= v <= 1.0


# --- Kullback-Leibler divergence ---------------------------------------------

def test_kld_identity_and_example():
    p = Distribution((0.3, 0.7))
    assert kl_divergence(p, p) == 0.0
    v = kl_divergence(Distribution((0.75, 0.25)), Distribution((0.5, 0.5)))
    assert v == pytest.approx(0.1308123, abs=1e-6)


def test_kld_support_mismatch():
    with pytest.raises(SupportMismatch):
        kl_divergence(Distribution((0.5, 0.5)), Distribution((1.0, 0.0)))
    with pytest.raises(ArityMismatch):
        kl_divergence(Distribution((1.0,)), Distribution((0.5, 0.5)))
    # zero mass in P where Q has none is fine
    assert kl_divergence(Distribution((1.0, 0.0)), Distribution((1.0, 0.0))) == 0.0


def test_kld_of_biased_strictly_increasing_in_delta():
    for ws, t in [((0.3, 0.7), 0), ((0.6, 0.4), 1), ((0.2, 0.3, 0.5), 0)]:
        natural = Distribution(ws)
        series = [
            kl_divergence(derive_target_distribution(natural, t, d), natural)
            for d in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        ]
        assert series[0] == 0.0
        assert all(a < b for a, b in zip(series, series[1:]))


@settings(max_examples=150)
@given(weights_strategy())
def test_kld_nonnegative(ws):
    q = Distribution(tuple(reversed(ws)))
    assert kl_divergence(Distribution(ws), q) >= 0.0
