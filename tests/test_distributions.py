import functools
import math
import threading

import numpy as np
import pytest

from prtradeoff import (
    F1,
    FPR,
    PRECISION,
    RECALL,
    SIVF,
    DistributionSpec,
    RedrawLimitError,
    above_no_skill_spec,
    adapted_beta,
    analytic_tau_above_no_skill,
    analytic_tau_fixed_priors,
    analytic_tau_pr_re_near_oracle,
    beta_for_offset,
    f1_equidistance_prior,
    fixed_priors_spec,
    fixed_tn_spec,
    golden_section_min,
    mc_kendall_tau,
    mc_optimal_vertex_offset_near_oracle,
    mc_pencil_optimality,
    mc_tau_sides_near_oracle,
    near_oracle_spec,
    optimal_vertex_offset,
    sample,
    sample_parts,
    sivf_equidistance_prior_near_oracle,
    uniform_spec,
)
from prtradeoff import distributions as dist
from prtradeoff.distributions import FAMILIES

OFFSETS = (0.1, 0.25, 0.61585, 1.0, 2.0, 5.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec("pi1", ptn=0.2)
    with pytest.raises(ValueError):
        DistributionSpec("pi2")
    with pytest.raises(ValueError):
        DistributionSpec("pi2", ptn=1.0)
    with pytest.raises(ValueError):
        DistributionSpec("pi3", prior_pos=0.0)
    with pytest.raises(ValueError):
        DistributionSpec("pi3", ptn=0.1, prior_pos=0.5)
    with pytest.raises(ValueError):
        DistributionSpec("pi9")
    assert fixed_tn_spec(0.3).label() == "pi2(ptn=0.3)"
    assert near_oracle_spec(0.25).label() == "pi5(prior=0.25)"


def test_samplers_satisfy_family_constraints():
    n = 20000
    parts = sample_parts(uniform_spec(), 1, n)
    assert (parts >= 0).all()
    assert np.abs(parts.sum(axis=1) - 1.0).max() <= 1e-12

    parts = sample_parts(fixed_tn_spec(0.3), 2, n)
    assert (parts[:, 0] == 0.3).all()
    assert np.abs(parts.sum(axis=1) - 1.0).max() <= 1e-12

    parts = sample_parts(fixed_tn_spec(0.0), 3, n)
    assert (parts[:, 0] == 0.0).all()

    parts = sample_parts(fixed_priors_spec(0.3), 4, n)
    assert np.abs(parts[:, 2] + parts[:, 3] - 0.3).max() <= 1e-12

    parts = sample_parts(above_no_skill_spec(0.4), 5, n)
    tpr = parts[:, 3] / (parts[:, 2] + parts[:, 3])
    fpr = parts[:, 1] / (parts[:, 0] + parts[:, 1])
    assert (tpr >= fpr - 1e-12).all()

    parts = sample_parts(near_oracle_spec(0.2), 6, n)
    tpr = parts[:, 3] / (parts[:, 2] + parts[:, 3])
    fpr = parts[:, 1] / (parts[:, 0] + parts[:, 1])
    assert (fpr < 0.2 + 1e-12).all()
    assert (tpr > 0.2 - 1e-12).all()


def test_uniform_sampler_coordinate_means():
    parts = sample_parts(uniform_spec(), 7, 10**5)
    assert np.abs(parts.mean(axis=0) - 0.25).max() <= 0.005


def test_fixed_priors_sampler_mean_ptp():
    parts = sample_parts(fixed_priors_spec(0.5), 8, 10**5)
    assert parts[:, 3].mean() == pytest.approx(0.25, abs=0.005)


def test_sample_matches_sample_parts():
    spec = fixed_priors_spec(0.3)
    perfs = sample(spec, 9, 50)
    parts = sample_parts(spec, 9, 50)
    assert np.allclose([p.as_array() for p in perfs], parts, atol=1e-15)
    with pytest.raises(ValueError):
        sample(spec, 9, 0)


def test_mc_tau_is_bit_reproducible():
    spec = uniform_spec()
    a = mc_kendall_tau(spec, PRECISION, RECALL, 70000, 123)
    b = mc_kendall_tau(spec, PRECISION, RECALL, 70000, 123)
    assert a.value == b.value
    assert a.half_width == b.half_width
    c = mc_kendall_tau(spec, PRECISION, RECALL, 70000, 124)
    assert c.value != a.value


def test_mc_tau_spans_block_boundaries():
    # one full block is 65536 pairs; make sure partial last blocks work
    est = mc_kendall_tau(uniform_spec(), PRECISION, RECALL, (1 << 16) + 7, 11)
    assert est.n_pairs == (1 << 16) + 7
    assert -1.0 <= est.value <= 1.0


def test_mc_estimate_half_width_formula():
    est = mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 50000, 3)
    p_hat = (1.0 - est.value) / 4.0
    assert est.half_width == pytest.approx(
        1.96 * 4.0 * math.sqrt(p_hat * (1 - p_hat) / est.n_pairs)
    )
    assert est.seed == 3


def test_mc_tau_of_score_with_itself_is_one():
    est = mc_kendall_tau(fixed_priors_spec(0.4), F1, F1, 20000, 5)
    assert est.value == 1.0


def test_redraw_guard_trips_on_constant_score():
    # under pi2 with ptn = 0 the false-positive rate is identically 1
    with pytest.raises(RedrawLimitError):
        mc_kendall_tau(fixed_tn_spec(0.0), FPR, RECALL, 1000, 0)


def _undefined_near_zero_tp(score, parts, real=dist.score_values, below=1e-3):
    # about 3 * below of uniform performances; at 1e-3 redrawn, but under the 1% guard
    values = real(score, parts)
    values[parts[:, 3] < below] = np.nan
    return values


def test_mc_tau_reports_redrawn_pairs(monkeypatch):
    assert mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 20000, 6).redrawn == 0
    monkeypatch.setattr(dist, "score_values", _undefined_near_zero_tp)
    est = mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 20000, 6)
    assert 0 < est.redrawn <= 0.01 * est.n_pairs


def _sequential_mc_kendall_tau(spec, score1, score2, n_pairs, seed):
    """The block loop of mc_kendall_tau as it ran before blocks were counted concurrently."""
    done = 0
    block = 0
    discordant = 0
    redrawn = 0
    while done < n_pairs:
        want = min(dist._BLOCK, n_pairs - done)
        rng = dist._block_generator(seed, block)
        a = dist._draw(spec, rng, want)
        b = dist._draw(spec, rng, want)
        v1a, v1b = dist.score_values(score1, a), dist.score_values(score1, b)
        v2a, v2b = dist.score_values(score2, a), dist.score_values(score2, b)
        for _ in range(dist._MAX_REDRAW_ROUNDS):
            with np.errstate(invalid="ignore"):
                bad = ~(
                    np.isfinite(v1a) & np.isfinite(v1b)
                    & np.isfinite(v2a) & np.isfinite(v2b)
                )
                bad |= np.abs(v1a - v1b) <= dist.TIE_TOL
                bad |= np.abs(v2a - v2b) <= dist.TIE_TOL
            if not bad.any():
                break
            k = int(bad.sum())
            redrawn += k
            a2, b2 = dist._draw(spec, rng, k), dist._draw(spec, rng, k)
            v1a[bad], v1b[bad] = dist.score_values(score1, a2), dist.score_values(score1, b2)
            v2a[bad], v2b[bad] = dist.score_values(score2, a2), dist.score_values(score2, b2)
        else:
            raise RedrawLimitError("degenerate pairs persist")
        discordant += int(((v1a < v1b) & (v2a > v2b)).sum())
        done += want
        block += 1
    if redrawn > dist._REDRAW_FRACTION * n_pairs:
        raise RedrawLimitError(f"{redrawn} of {n_pairs} pairs needed redrawing")
    p_hat = discordant / n_pairs
    half_width = 1.96 * 4.0 * math.sqrt(p_hat * (1.0 - p_hat) / n_pairs)
    return dist.McEstimate(1.0 - 4.0 * p_hat, half_width, n_pairs, seed, redrawn)


def _assert_matches_sequential(monkeypatch, spec, score1, score2, n_pairs, seed):
    want = _sequential_mc_kendall_tau(spec, score1, score2, n_pairs, seed)
    # one worker, the CPUs this process may use, and more threads than blocks
    for workers in (1, None, 5):
        with monkeypatch.context() as m:
            if workers is not None:
                m.setattr(dist, "_usable_cpus", lambda: workers)
            assert mc_kendall_tau(spec, score1, score2, n_pairs, seed) == want, workers
    return want


FAMILY_SPECS = {
    "pi1": uniform_spec(),
    "pi2": fixed_tn_spec(0.3),
    "pi3": fixed_priors_spec(0.3),
    "pi4": above_no_skill_spec(0.3),
    "pi5": near_oracle_spec(0.3),
}


@pytest.mark.parametrize("n_pairs", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 17])
@pytest.mark.parametrize("family", FAMILIES)
def test_concurrent_blocks_match_the_sequential_loop(monkeypatch, family, n_pairs):
    _assert_matches_sequential(monkeypatch, FAMILY_SPECS[family], PRECISION, F1, n_pairs, 17)


def test_concurrent_redraws_match_the_sequential_loop(monkeypatch):
    monkeypatch.setattr(dist, "score_values", _undefined_near_zero_tp)
    est = _assert_matches_sequential(
        monkeypatch, uniform_spec(), PRECISION, RECALL, 3 * (1 << 16) + 17, 6
    )
    assert 0 < est.redrawn <= 0.01 * est.n_pairs


def test_redraw_limit_error_surfaces_from_a_worker(monkeypatch):
    monkeypatch.setattr(dist, "_BLOCK", 256)
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 4)
    real = dist.score_values

    def undefined_off_the_calling_thread(score, parts):
        values = real(score, parts)
        if threading.current_thread() is not threading.main_thread():
            values[:] = np.nan
        return values

    # only the blocks counted by pool threads exhaust their redraw rounds
    monkeypatch.setattr(dist, "score_values", undefined_off_the_calling_thread)
    with pytest.raises(RedrawLimitError, match="redraw rounds"):
        mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 1000, 0)


def test_redraw_guard_sums_the_blocks_of_all_threads(monkeypatch):
    monkeypatch.setattr(dist, "_BLOCK", 256)
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 4)
    # redraws under the limit in every block, above 1% summed over the blocks
    monkeypatch.setattr(
        dist, "score_values", functools.partial(_undefined_near_zero_tp, below=0.01)
    )
    with pytest.raises(RedrawLimitError, match="needed redrawing"):
        mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 1000, 0)


def test_analytic_sum_identities():
    for off in OFFSETS:
        s3 = analytic_tau_fixed_priors("pr", off) + analytic_tau_fixed_priors("re", off)
        assert abs(s3 - 1.5) <= 1e-12
        s4 = analytic_tau_above_no_skill("pr", off) + analytic_tau_above_no_skill("re", off)
        assert abs(s4 - 1.0) <= 1e-12


def test_analytic_precision_limit():
    assert analytic_tau_fixed_priors("pr", 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert analytic_tau_above_no_skill("pr", 1e-9) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        analytic_tau_fixed_priors("pr", 0.0)
    with pytest.raises(ValueError):
        analytic_tau_fixed_priors("both", 1.0)


def test_equidistance_at_published_offsets():
    d3 = analytic_tau_fixed_priors("pr", 0.61585) - analytic_tau_fixed_priors("re", 0.61585)
    assert abs(d3) <= 1e-4
    d4 = analytic_tau_above_no_skill("pr", 0.48) - analytic_tau_above_no_skill("re", 0.48)
    assert abs(d4) <= 2e-2


def test_optimal_vertex_offset_constants():
    off3 = optimal_vertex_offset("pi3")
    assert off3 == pytest.approx(0.61585, abs=5e-4)
    assert abs(
        analytic_tau_fixed_priors("pr", off3) - analytic_tau_fixed_priors("re", off3)
    ) <= 1e-6
    off4 = optimal_vertex_offset("pi4")
    assert off4 == pytest.approx(0.48, abs=1e-2)
    assert abs(
        analytic_tau_above_no_skill("pr", off4) - analytic_tau_above_no_skill("re", off4)
    ) <= 1e-6
    with pytest.raises(ValueError):
        optimal_vertex_offset("pi1")


def test_f1_equidistance_prior():
    for family, tau in (("pi3", analytic_tau_fixed_priors), ("pi4", analytic_tau_above_no_skill)):
        p = f1_equidistance_prior(family)
        assert abs(tau("pr", p / (1 - p)) - tau("re", p / (1 - p))) <= 1e-8
    with pytest.raises(ValueError):
        f1_equidistance_prior("pi5")


def test_adapted_beta():
    b2, b = adapted_beta("pi3", 0.5)
    assert b2 == pytest.approx(0.61585, abs=5e-4)
    assert b == pytest.approx(b2 / (1 + b2))
    # as the positive class vanishes, the optimal score leans fully on recall
    _, b_small = adapted_beta("pi3", 1e-4)
    assert b_small >= 0.99
    b2, _ = adapted_beta("pi4", 0.5)
    assert b2 == pytest.approx(0.48, abs=1e-2)
    with pytest.raises(ValueError):
        beta_for_offset(1.0, 0.0)


def test_beta_for_offset_rejects_negative_and_non_finite_offsets():
    assert beta_for_offset(0.0, 0.3) == (0.0, 0.0)  # precision
    for offset in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="offset must be finite and >= 0"):
            beta_for_offset(offset, 0.3)


def test_golden_section_min():
    assert golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0) == pytest.approx(
        2.0, abs=1e-6
    )


def test_fixed_priors_tau_pr_re_is_half_for_any_prior():
    for k, prior in enumerate((0.07, 0.5)):
        got = mc_kendall_tau(fixed_priors_spec(prior), PRECISION, RECALL, 4 * 10**5, 20 + k)
        assert got.value == pytest.approx(0.5, abs=0.01)


def test_near_oracle_formula_against_mc():
    got = mc_kendall_tau(near_oracle_spec(0.5), PRECISION, RECALL, 4 * 10**5, 21)
    assert got.value == pytest.approx(analytic_tau_pr_re_near_oracle(0.5), abs=0.01)
    # the formula stays accurate out to the extreme-prior limit
    got = mc_kendall_tau(near_oracle_spec(0.99), PRECISION, RECALL, 4 * 10**5, 22)
    assert got.value == pytest.approx(analytic_tau_pr_re_near_oracle(0.99), abs=0.01)


def test_near_oracle_formula_range():
    for p in np.linspace(0.01, 0.99, 25):
        v = analytic_tau_pr_re_near_oracle(p)
        assert 0.0 < v < 0.5
    with pytest.raises(ValueError):
        analytic_tau_pr_re_near_oracle(1.0)


def test_near_oracle_optimal_beta_trend():
    betas = []
    for p in (0.05, 0.5, 0.95):
        off = mc_optimal_vertex_offset_near_oracle(p, 2 * 10**5, seed=31)
        b2, _ = beta_for_offset(off, p)
        betas.append(math.sqrt(b2))
    assert betas[0] == pytest.approx(0.8, abs=0.1)
    assert betas[2] == pytest.approx(1.0, abs=0.1)
    assert betas[0] <= betas[1] <= betas[2]
    assert all(0.7 <= b <= 1.1 for b in betas)


def test_near_oracle_sides_sum_rule():
    # shortest-path identity, Monte Carlo flavor: sides sum to 1 + tau(Pr, Re)
    p = 0.3
    t1, t2 = mc_tau_sides_near_oracle(p, 0.7, 4 * 10**5, seed=32)
    assert t1 + t2 == pytest.approx(1.0 + analytic_tau_pr_re_near_oracle(p), abs=0.01)


def test_sivf_equidistance_prior():
    prior = sivf_equidistance_prior_near_oracle(2 * 10**5, seed=33)
    assert prior == pytest.approx(0.561, abs=0.02)


def test_uniform_family_sivf_is_off_the_shortest_path():
    # on the shortest path the two sides would sum to 1 + tau(Pr, Re) = 4/3;
    # SIVF misses that by far under the uniform family
    spec = uniform_spec()
    t1 = mc_kendall_tau(spec, PRECISION, SIVF, 2 * 10**5, 40).value
    t2 = mc_kendall_tau(spec, SIVF, RECALL, 2 * 10**5, 41).value
    assert abs((t1 + t2) - (1 + 1 / 3)) > 0.05


def test_mc_pencil_optimality():
    at_optimum = mc_pencil_optimality("pi3", optimal_vertex_offset("pi3"), 2 * 10**5, seed=34)
    assert at_optimum >= 0.995
    sivf_degree = mc_pencil_optimality("pi3", 1.0, 2 * 10**5, seed=35)
    assert sivf_degree == pytest.approx(math.log(4) - 0.5, abs=0.01)
    with pytest.raises(ValueError):
        mc_pencil_optimality("pi5", 1.0, 1000, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: mc_optimal_vertex_offset_near_oracle(0.3, n, 0),
        lambda n: sivf_equidistance_prior_near_oracle(n, 0),
        lambda n: mc_tau_sides_near_oracle(0.3, 1.0, n, 0),
        lambda n: mc_pencil_optimality("pi3", 1.0, n, 0),
    ],
    ids=["offset", "prior", "sides", "pencil"],
)
@pytest.mark.parametrize("n_pairs", [0, -1])
def test_monte_carlo_studies_reject_fewer_than_one_pair(call, n_pairs):
    with pytest.raises(ValueError, match="n_pairs must be >= 1"):
        call(n_pairs)


@pytest.mark.parametrize("offset", [math.nan, 0.0, -1.0, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda off: mc_tau_sides_near_oracle(0.3, off, 1000, 0),
        lambda off: mc_pencil_optimality("pi3", off, 1000, 0),
        lambda off: mc_pencil_optimality("pi3", 1.0, 1000, 0, optimal_offset=off),
    ],
    ids=["sides", "candidate", "optimal"],
)
def test_pencil_studies_reject_nan_and_nonpositive_offsets(call, offset):
    with pytest.raises(ValueError, match="must be > 0 or inf"):
        call(offset)


def test_pencil_studies_accept_the_recall_limit():
    # an infinite vertex offset is recall itself
    assert mc_tau_sides_near_oracle(0.3, math.inf, 1000, 0)[1] == 1.0
    assert mc_pencil_optimality("pi3", math.inf, 1000, 0, optimal_offset=math.inf) == 1.0
