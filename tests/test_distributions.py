"""Distribution algebra: exponential biasing, JSD, KLD, count-vector enumeration."""

import bisect
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from trajmark.equivalence import (
    Distribution,
    count_vectors,
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
from trajmark.experiment import noise_q99


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


# --- count vectors and the exact benign-noise percentile ---------------------

@settings(max_examples=100)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=1, max_size=4).filter(any),
    st.integers(0, 10),
)
def test_count_vectors_enumerate_every_outcome_once(raw, m):
    natural = Distribution(tuple(w / math.fsum(raw) for w in raw))
    k = len(natural)
    outcomes = list(count_vectors(natural, m))
    vectors = [counts for counts, _ in outcomes]
    assert len(vectors) == len(set(vectors)) == math.comb(m + k - 1, k - 1)
    assert all(len(c) == k and min(c) >= 0 and sum(c) == m for c in vectors)
    assert abs(math.fsum(p for _, p in outcomes) - 1.0) <= 1e-12


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.879, 0.121), (0.2, 0.3, 0.5),
                                     (0.7, 0.0, 0.3), (0.1, 0.2, 0.3, 0.4)])
@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_count_vector_probabilities_are_the_multinomial_pmf(weights, m):
    for counts, prob in count_vectors(Distribution(weights), m):
        assert prob == pytest.approx(stats.multinomial.pmf(counts, m, weights),
                                     rel=1e-12, abs=1e-300)


# Bootstrap draws per key. The empirical CDF at an atom is Binomial(N, F) / N,
# so it lies within BOUND_SDS standard deviations (plus one draw) of the exact
# F; a miss has odds below 1e-6 per atom. The bootstrap's percentile,
# values[int(0.99 * N)], is the exact one unless an atom's exact CDF lies
# within that bound of 0.99, where either neighbour may be drawn.
BOOTSTRAP_N = 20000
BOUND_SDS = 5


def _cdf_bound(f):
    return BOUND_SDS * math.sqrt(max(0.0, f * (1.0 - f)) / BOOTSTRAP_N) + 1.0 / BOOTSTRAP_N


@pytest.mark.parametrize("seed", range(8))
def test_noise_q99_agrees_with_a_large_bootstrap(seed):
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    raw = [rng.uniform(0.02, 1.0) for _ in range(k)]
    natural = Distribution(tuple(w / math.fsum(raw) for w in raw))
    m = rng.randint(1, 4)
    jsd_of = {counts: js_divergence(Distribution(tuple(c / m for c in counts)), natural)
              for counts, _ in count_vectors(natural, m)}
    exact_cdf = {}
    for counts, prob in count_vectors(natural, m):
        exact_cdf[jsd_of[counts]] = exact_cdf.get(jsd_of[counts], 0.0) + prob
    atoms = sorted(exact_cdf)
    exact_cdf = dict(zip(atoms, itertools.accumulate(exact_cdf[a] for a in atoms)))

    values = []
    for _ in range(BOOTSTRAP_N):
        counts = [0] * k
        for _ in range(m):
            counts[natural.sample(rng)] += 1
        values.append(jsd_of[tuple(counts)])
    values.sort()
    for atom in atoms:
        empirical = bisect.bisect_right(values, atom) / BOOTSTRAP_N
        assert abs(empirical - exact_cdf[atom]) <= _cdf_bound(exact_cdf[atom])

    exact = noise_q99(natural, m)
    drawn = values[int(0.99 * BOOTSTRAP_N)]
    near = [a for a in atoms if abs(exact_cdf[a] - 0.99) <= _cdf_bound(0.99)]
    if near:
        # the bootstrap may take either side of the atom near 0.99
        i = atoms.index(near[0])
        assert drawn in atoms[i:i + 2]
    else:
        assert drawn == exact
    assert exact_cdf[exact] > 0.99
    assert exact == atoms[0] or exact_cdf[atoms[atoms.index(exact) - 1]] <= 0.99


def test_noise_q99_takes_the_next_atom_at_a_cdf_of_exactly_0_99():
    # at natural (0.9, 0.1) and m = 2, P(2, 0) + P(1, 1) = 0.81 + 0.18 is 0.99
    # in real arithmetic; float sums land on either side of it
    natural = Distribution((0.9, 0.1))
    prob = dict(count_vectors(natural, 2))
    assert prob[(2, 0)] + prob[(1, 1)] > 0.99
    assert 1.0 - prob[(0, 2)] == 0.99

    def atom(*weights):
        return js_divergence(Distribution(weights), natural)

    # the rule: the running sum must exceed 0.99 by more than 1e-12
    assert atom(0.5, 0.5) < atom(0.0, 1.0)
    assert noise_q99(natural, 2) == atom(0.0, 1.0)
    # a CDF clearly above 0.99 stops at the (1, 1) atom, one below it does not
    above, below = Distribution((0.9001, 0.0999)), Distribution((0.8999, 0.1001))
    assert noise_q99(above, 2) == js_divergence(Distribution((0.5, 0.5)), above)
    assert noise_q99(below, 2) == js_divergence(Distribution((0.0, 1.0)), below)
