"""Tests of Algorithm 1 (ComputeLoss / FindScalingFactors)."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conversion import ScalingFactors, compute_loss, find_scaling_factors

MU = 2.0


def reference_search(
    percentiles, mu, timesteps, beta_max=2.0, beta_step=0.01, alpha_candidates=None
):
    """The pseudocode's nested loop: one ``compute_loss`` call per
    (alpha, beta) pair, alpha-major, keeping the first strict minimum of
    ``|loss|``.  ``find_scaling_factors`` must reproduce it exactly."""
    p = np.asarray(percentiles, dtype=np.float64)
    if alpha_candidates is None:
        valid = p[(p > 0.0) & (p <= mu)]
        alpha_candidates = np.unique(valid / mu)
        alpha_candidates = alpha_candidates[alpha_candidates > 0.0]
    best_alpha, best_beta = 1.0, 1.0
    best_loss = compute_loss(p, mu, best_alpha, best_beta, timesteps)
    evaluations = 1
    betas = np.arange(0.0, beta_max + 0.5 * beta_step, beta_step)
    for alpha in alpha_candidates:
        for beta in betas:
            loss = compute_loss(p, mu, float(alpha), float(beta), timesteps)
            evaluations += 1
            if abs(loss) < abs(best_loss):
                best_alpha, best_beta, best_loss = float(alpha), float(beta), loss
    if best_beta == 0.0:
        best_beta = beta_step
    return ScalingFactors(best_alpha, best_beta, best_loss, evaluations)


@st.composite
def search_problems(draw):
    """Percentile grids with negatives, zeros, duplicates and values
    above ``mu``, plus the search's grid arguments.  Half the draws use
    dyadic values and steps, which make exact ``|loss|`` ties common and
    so pin the first-minimum tie order."""
    if draw(st.booleans()):
        mu = draw(st.sampled_from([1.0, 2.0, 4.0]))
        value = st.integers(-4, 40).map(lambda k: k * mu / 16)
        beta_step = draw(st.sampled_from([0.125, 0.25, 0.5]))
    else:
        mu = draw(st.floats(min_value=0.1, max_value=4.0))
        value = st.one_of(
            st.floats(min_value=-mu, max_value=2.0 * mu),
            st.sampled_from([0.0, -0.0, mu]),
        )
        beta_step = draw(st.sampled_from([0.01, 0.05, 0.1, 0.5]))
    p = draw(st.lists(value, max_size=40))
    if p:
        p += draw(st.lists(st.sampled_from(p), max_size=10))
    alphas = draw(
        st.none()
        | st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=6)
    )
    return dict(
        percentiles=np.array(draw(st.permutations(p)), dtype=np.float64),
        mu=mu,
        timesteps=draw(st.integers(1, 16)),
        beta_max=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        beta_step=beta_step,
        alpha_candidates=alphas,
    )


def uniform_percentiles():
    return np.percentile(np.linspace(0.0, MU, 100_001), np.arange(101.0))


def skewed_percentiles(seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.exponential(scale=MU / 6.0, size=200_000)
    return np.percentile(samples, np.arange(101.0))


class TestComputeLoss:
    def test_zero_when_percentiles_on_staircase(self):
        # Percentiles sitting just above SNN step edges give ~0 loss
        # (the firing condition is strict, so the edge itself belongs to
        # the lower step).
        t, alpha, beta = 4, 1.0, 1.0
        eps = 1e-9
        levels = np.array([MU / 4, MU / 2, 3 * MU / 4]) + eps
        loss = compute_loss(levels, MU, alpha, beta, t)
        assert loss == pytest.approx(0.0, abs=1e-8)

    def test_identity_scaling_loss_nonnegative(self):
        # With alpha=beta=1 the staircase floors every value: each term
        # p - staircase(p) >= 0.
        loss = compute_loss(skewed_percentiles(), MU, 1.0, 1.0, 2)
        assert loss >= 0.0

    def test_seg2_contribution(self):
        # One percentile between alpha*mu and mu: loss = p - alpha*beta*mu.
        p = np.array([1.5])
        loss = compute_loss(p, MU, 0.5, 1.0, 2)
        assert loss == pytest.approx(1.5 - 0.5 * MU)

    def test_seg3_contribution(self):
        # One percentile above mu: loss = mu (1 - alpha beta).
        p = np.array([3.0])
        loss = compute_loss(p, MU, 0.5, 1.0, 2)
        assert loss == pytest.approx(MU * (1 - 0.5))

    def test_negative_percentiles_ignored(self):
        assert compute_loss(np.array([-1.0, -0.5]), MU, 1.0, 1.0, 2) == 0.0

    def test_beta_reduces_loss_linearly(self):
        p = skewed_percentiles()
        l1 = compute_loss(p, MU, 0.5, 1.0, 2)
        l2 = compute_loss(p, MU, 0.5, 2.0, 2)
        l15 = compute_loss(p, MU, 0.5, 1.5, 2)
        # Loss is affine in beta.
        assert l15 == pytest.approx((l1 + l2) / 2.0, rel=1e-9)

    def test_validation(self):
        p = uniform_percentiles()
        with pytest.raises(ValueError):
            compute_loss(p, 0.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 1.2, 1.0, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 1.0, -0.1, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 1.0, 1.0, 0)


class TestFindScalingFactors:
    def test_never_worse_than_identity(self):
        p = skewed_percentiles()
        identity_loss = compute_loss(p, MU, 1.0, 1.0, 2)
        result = find_scaling_factors(p, MU, 2)
        assert abs(result.loss) <= abs(identity_loss)

    def test_skewed_low_t_prefers_downscaled_alpha(self):
        # The paper's core claim: for skewed distributions at T=2 the
        # optimum has alpha < 1 (threshold pulled into the mass).
        result = find_scaling_factors(skewed_percentiles(), MU, 2)
        assert result.alpha < 1.0

    def test_skewed_low_t_amplifies_beta(self):
        result = find_scaling_factors(skewed_percentiles(), MU, 2)
        assert result.beta > 1.0

    def test_factors_in_valid_ranges(self):
        for t in (1, 2, 3, 5):
            result = find_scaling_factors(skewed_percentiles(), MU, t)
            assert 0.0 < result.alpha <= 1.0
            assert 0.0 < result.beta <= 2.0

    def test_evaluation_count_matches_grid(self):
        p = skewed_percentiles()
        result = find_scaling_factors(p, MU, 2, beta_max=1.0, beta_step=0.5)
        positive = np.unique(p[(p > 0) & (p <= MU)] / MU)
        # identity + len(alphas) * len([0, 0.5, 1.0])
        assert result.evaluations == 1 + len(positive) * 3
        alphas = [0.1, 0.3, 0.7]
        result = find_scaling_factors(
            p, MU, 2, beta_max=1.5, beta_step=0.1, alpha_candidates=alphas
        )
        assert result.evaluations == 1 + len(alphas) * 16

    def test_custom_alpha_candidates(self):
        result = find_scaling_factors(
            skewed_percentiles(), MU, 2, alpha_candidates=[0.25, 0.5]
        )
        assert result.alpha in (0.25, 0.5, 1.0)

    def test_rejects_bad_alpha_candidates(self):
        with pytest.raises(ValueError):
            find_scaling_factors(skewed_percentiles(), MU, 2, alpha_candidates=[1.5])

    def test_beta_never_zero(self):
        result = find_scaling_factors(skewed_percentiles(), MU, 2)
        assert result.beta > 0.0

    def test_uniform_distribution_keeps_scales_near_identity(self):
        # With uniform percentiles the unscaled loss is already small;
        # the search must not pick a degenerate tiny alpha.
        result = find_scaling_factors(uniform_percentiles(), MU, 8)
        assert result.alpha * result.beta == pytest.approx(1.0, abs=0.35)

    def test_deterministic(self):
        p = skewed_percentiles()
        a = find_scaling_factors(p, MU, 2)
        b = find_scaling_factors(p, MU, 2)
        assert (a.alpha, a.beta, a.loss) == (b.alpha, b.beta, b.loss)


class TestVectorisedSearchMatchesLoop:
    @given(search_problems())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_reference_loop(self, problem):
        expected = astuple(reference_search(**problem))
        assert astuple(find_scaling_factors(**problem)) == expected

    @pytest.mark.parametrize("t", [1, 2, 16])
    def test_paper_grid_equal_to_reference_loop(self, t):
        p = skewed_percentiles(seed=t)
        assert astuple(find_scaling_factors(p, MU, t)) == astuple(
            reference_search(p, MU, t)
        )

    def test_non_positive_percentiles_keep_identity(self):
        p = np.array([-1.0, 0.0, -0.5, 0.0])
        result = find_scaling_factors(p, MU, 3)
        assert astuple(result) == (1.0, 1.0, 0.0, 1)
        # Explicit candidates are scored, but every loss ties at zero.
        result = find_scaling_factors(p, MU, 3, alpha_candidates=[0.5])
        assert (result.alpha, result.beta, result.loss) == (1.0, 1.0, 0.0)

    def test_no_alpha_candidate_below_mu_keeps_identity(self):
        # Every positive percentile exceeds mu, so the alpha grid is empty.
        result = find_scaling_factors(np.array([3.0, 2.5, -1.0]), MU, 3)
        assert astuple(result) == (1.0, 1.0, 0.0, 1)

    def test_zero_beta_optimum_becomes_beta_step(self):
        # With beta_max=0 the grid is beta in {0}.  At alpha=0.1 the loss
        # is 0.1 + (0.2 + 0.3) = 0.6, one rounding step below the
        # identity's (0.1 + 0.2) + 0.3, so (0.1, 0) wins and beta is
        # reported as beta_step.
        p = np.array([0.1, 0.2, 0.3])
        result = find_scaling_factors(p, 1.0, 1, beta_max=0.0, beta_step=0.01)
        assert astuple(result) == (0.1, 0.01, 0.6, 4)
        assert astuple(result) == astuple(
            reference_search(p, 1.0, 1, beta_max=0.0, beta_step=0.01)
        )

    def test_tie_keeps_first_pair_in_alpha_major_order(self):
        # (0.1875, 1.5) and (0.3125, 1.5) both give |loss| = 0.125; the
        # loop keeps the first one it meets.
        p = np.array([0.75, 1.25])
        result = find_scaling_factors(p, 4.0, 3, beta_max=2.0, beta_step=0.5)
        assert astuple(result) == (0.1875, 1.5, 0.125, 11)
        assert compute_loss(p, 4.0, 0.3125, 1.5, 3) == 0.125
