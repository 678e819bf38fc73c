import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redustat.replicate import replicate_from_fixtures
from redustat.reports import stats_block
from redustat.stats import (
    AllZeroDifferencesError,
    StatsError,
    TooFewSamplesError,
    shapiro_wilk,
    signed_rank_distribution,
    wilcoxon_signed_rank,
)


def fixture_columns(table):
    records = replicate_from_fixtures(table).records
    pntrs = [r["pntrs"] * 100 for r in records]
    ptrs = [r["ptrs"] * 100 for r in records]
    pairs = [(r["prntrs"] * 100, r["prtrs"] * 100) for r in records
             if r["prntrs"] is not None and r["prtrs"] is not None]
    return pntrs, ptrs, pairs


# -- Wilcoxon: published fingerprints -----------------------------------------


def test_mutants_pntrs_vs_ptrs_matches_published_values():
    pntrs, ptrs, _ = fixture_columns("I")
    result = wilcoxon_signed_rank(pntrs, ptrs)
    assert result.statistic == 435.0
    assert 2.4e-06 <= result.p_value <= 3.0e-06
    assert result.n_used == 29
    assert result.zeros_dropped == 1
    assert result.ties_present
    assert result.method == "WilcoxonSignedRankNormalApprox"


def test_defects_pntrs_vs_ptrs_matches_published_values():
    pntrs, ptrs, _ = fixture_columns("II")
    result = wilcoxon_signed_rank(pntrs, ptrs)
    assert result.statistic == 465.0
    assert 1.6e-06 <= result.p_value <= 2.0e-06
    assert result.n_used == 30
    assert result.zeros_dropped == 0


def test_mutants_probability_comparison_matches_published_values():
    _, _, pairs = fixture_columns("I")
    assert len(pairs) == 22
    result = wilcoxon_signed_rank([a for a, _ in pairs], [b for _, b in pairs])
    assert result.statistic == 109.5
    assert abs(result.p_value - 0.5731) <= 0.02
    assert result.zeros_dropped == 3
    assert result.n_used == 19


def test_defects_probability_comparison_matches_published_values():
    _, _, pairs = fixture_columns("II")
    assert len(pairs) == 14
    result = wilcoxon_signed_rank([a for a, _ in pairs], [b for _, b in pairs])
    assert result.statistic == 42.0
    assert abs(result.p_value - 0.5426) <= 0.02


# -- Wilcoxon: semantics -------------------------------------------------------


def test_identical_vectors_raise():
    with pytest.raises(AllZeroDifferencesError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_length_mismatch():
    with pytest.raises(StatsError, match=r"^paired vectors differ in length: 2 vs 1$"):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])


def test_too_few_pairs():
    with pytest.raises(TooFewSamplesError):
        wilcoxon_signed_rank([1.0], [0.0])


def test_statistic_range_invariant():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 20)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [rng.uniform(-5, 5) for _ in range(n)]
        try:
            result = wilcoxon_signed_rank(x, y)
        except AllZeroDifferencesError:
            continue
        max_v = result.n_used * (result.n_used + 1) / 2
        assert 0 <= result.statistic <= max_v
        assert 0 < result.p_value <= 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 25))
def test_swap_symmetry(seed, n):
    rng = random.Random(seed)
    x = [rng.uniform(-10, 10) for _ in range(n)]
    y = [rng.uniform(-10, 10) for _ in range(n)]
    try:
        forward = wilcoxon_signed_rank(x, y)
        backward = wilcoxon_signed_rank(y, x)
    except AllZeroDifferencesError:
        return
    total = forward.n_used * (forward.n_used + 1) / 2
    assert backward.statistic == total - forward.statistic
    assert abs(backward.p_value - forward.p_value) < 1e-12


def test_location_shift_gives_maximal_statistic():
    rng = random.Random(5)
    x = [rng.uniform(0, 1) for _ in range(15)]
    y = [rng.uniform(0, 1) for _ in range(15)]
    shift = max(abs(a - b) for a, b in zip(x, y)) + 1.0
    result = wilcoxon_signed_rank([a + shift for a in x], y)
    assert result.statistic == 15 * 16 / 2


def test_exact_path_matches_sign_enumeration():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 12)
        while True:
            d = [rng.uniform(-1, 1) for _ in range(n)]
            if 0.0 not in d and len({abs(v) for v in d}) == n:
                break
        x = d
        y = [0.0] * n
        result = wilcoxon_signed_rank(x, y)
        assert result.method == "WilcoxonSignedRankExact"
        assert result.p_value == pytest.approx(_enumerated_p(d), abs=1e-12)


def _enumerated_p(diffs):
    n = len(diffs)
    order = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = {idx: pos + 1 for pos, idx in enumerate(order)}
    v = sum(ranks[i] for i, d in enumerate(diffs) if d > 0)
    at_most = at_least = 0
    for mask in range(2 ** n):
        total = sum(pos + 1 for pos, idx in enumerate(order) if mask >> pos & 1)
        if total <= v:
            at_most += 1
        if total >= v:
            at_least += 1
    return min(2.0 * min(at_most, at_least) / 2 ** n, 1.0)


def test_exact_decision_rule_boundaries():
    # 50+ tie-free pairs use the approximation even without zeros or ties
    x = [float(i) + (0.01 * i * i) for i in range(50)]
    y = [0.0] * 50
    assert wilcoxon_signed_rank(x, y).method == "WilcoxonSignedRankNormalApprox"
    # a dropped zero forces the approximation too
    x = [0.0, 1.0, 2.5, -3.0, 4.2]
    y = [0.0, 0.0, 0.0, 0.0, 0.0]
    result = wilcoxon_signed_rank(x, y)
    assert result.zeros_dropped == 1
    assert result.method == "WilcoxonSignedRankNormalApprox"


def test_distribution_counts_are_symmetric_and_complete():
    for n in range(1, 13):
        counts = signed_rank_distribution(n)
        assert sum(counts) == 2 ** n
        assert counts == counts[::-1]


# -- Shapiro-Wilk --------------------------------------------------------------

# Reference values computed once with the scientific-Python implementation
# of the same AS R94 algorithm and pinned.
PINNED_10 = (0.970164611085606, 0.892367306190298)


def test_pinned_ten_element_fixture():
    result = shapiro_wilk([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert result.statistic == pytest.approx(PINNED_10[0], abs=1e-6)
    assert result.p_value == pytest.approx(PINNED_10[1], abs=1e-6)
    assert result.method == "ShapiroWilk"


def test_mutants_ptrs_normality_rejected():
    records = replicate_from_fixtures("I").records
    result = shapiro_wilk([r["ptrs"] * 100 for r in records])
    assert result.p_value < 0.05


def test_scale_and_shift_invariance():
    rng = random.Random(12)
    for _ in range(20):
        data = [rng.gauss(3, 2) for _ in range(rng.randint(5, 60))]
        base = shapiro_wilk(data)
        scaled = shapiro_wilk([4.5 * v + 11.0 for v in data])
        assert abs(base.statistic - scaled.statistic) < 1e-12


def test_seeded_normal_samples_mostly_accepted():
    accepted = 0
    for seed in range(100):
        rng = random.Random(seed)
        sample = [rng.gauss(0, 1) for _ in range(50)]
        if shapiro_wilk(sample).p_value > 0.05:
            accepted += 1
    assert accepted >= 95


def test_skewed_data_rejected():
    rng = random.Random(13)
    sample = [rng.expovariate(1.0) for _ in range(80)]
    assert shapiro_wilk(sample).p_value < 0.01


def test_small_n_paths():
    # n == 3 has a closed-form p
    result = shapiro_wilk([1.0, 2.0, 10.0])
    assert 0.0 <= result.p_value <= 1.0
    # 4 <= n <= 11 uses the gamma-shifted lognormal fit
    result = shapiro_wilk([1, 2, 3, 4, 5, 6, 7])
    assert 0.0 < result.p_value <= 1.0


def test_shapiro_input_validation():
    with pytest.raises(TooFewSamplesError):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(StatsError,
                       match=r"^all observations are \(numerically\) identical$"):
        shapiro_wilk([3.0] * 10)
    with pytest.raises(StatsError, match="^at most 5000 observations supported$"):
        shapiro_wilk(list(range(5001)))


def test_w_statistic_is_in_unit_interval():
    rng = random.Random(14)
    for _ in range(50):
        data = [rng.uniform(0, 100) for _ in range(rng.randint(3, 200))]
        if len(set(data)) == 1:
            continue
        result = shapiro_wilk(data)
        assert 0.0 < result.statistic <= 1.0
        assert 0.0 < result.p_value <= 1.0


# Every branch of the W coefficients (n == 3, 4-5, > 5) and of its p-value
# (n == 3, 4-11, > 11), up to the 5 000 limit. Uniform draws need no libm.
BIT_PINNED_SIZES = (3, 4, 5, 6, 7, 11, 12, 20, 50, 100, 1000, 5000)
BIT_PINNED_DIGEST = "5902f75c5f0c40e6a061ef00a9031dd9ba31abdbd1d0cd5f8d0ae476742715fc"


def test_shapiro_wilk_is_pinned_to_the_bit():
    lines = []
    for n in BIT_PINNED_SIZES:
        rng = random.Random(n)
        result = shapiro_wilk([rng.random() for _ in range(n)])
        lines.append(repr((result.statistic, result.p_value)))
    for table in ("I", "II"):
        shapiro = stats_block(replicate_from_fixtures(table).records)["shapiro"]
        for column in ("pntrs", "ptrs", "prntrs", "prtrs"):
            lines.append(repr((shapiro[column]["statistic"], shapiro[column]["p_value"])))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == BIT_PINNED_DIGEST, "\n".join(lines)
