"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything is desk scale (sets of at most 60 items, at most 1e6 Monte
Carlo pairs per estimate) and seeded for exact reproducibility.
"""

import math
from fractions import Fraction

import numpy as np

from prtradeoff import (
    F1,
    PRECISION,
    RECALL,
    SIVF,
    PerformanceSet,
    above_no_skill_spec,
    analytic_tau_fixed_priors,
    analytic_tau_pr_re_near_oracle,
    build_path,
    cli,
    equidistance_gap,
    evaluate,
    f1_equidistance_prior,
    fbeta,
    fixed_priors_spec,
    fixed_tn_spec,
    frechet_curve,
    frechet_variance,
    geodesic_check,
    kendall_distance,
    mc_kendall_tau,
    mc_pencil_optimality,
    near_oracle_spec,
    optimal_beta,
    optimal_vertex_offset,
    rank_by_score,
    ranks_from_values,
    sample_parts,
    sivf_equidistance_prior_near_oracle,
    uniform_spec,
)

N_PAIRS = 10**6


def _criterion(num, ok, desc):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _pset(spec, seed, n):
    return PerformanceSet.from_parts(sample_parts(spec, seed, n))


def test_acceptance_01_geodesic_identity():
    betas = np.geomspace(0.01, 100.0, 50)
    failures = 0
    for seed in range(100):
        pset = _pset(uniform_spec(), 1000 + seed, 20)
        residuals = geodesic_check(pset, betas)
        failures += sum(r != 0 for r in residuals)
    _criterion(
        1,
        failures == 0,
        f"geodesic identity exact on 100 sets x 50 betas (violations: {failures})",
    )


def test_acceptance_02_closed_form_optimum_vs_grid_search():
    grid = np.geomspace(1e-4, 1e4, 2000)
    sizes = [5, 20, 60]
    checked = 0
    bad_argmin = 0
    bad_gap = 0
    for i in range(100):
        n = sizes[i % 3]
        pset = _pset(uniform_spec(), 2000 + i, n)
        b2, _ = optimal_beta(pset)
        if b2 is None:
            continue
        checked += 1
        v_star = frechet_variance(pset, math.sqrt(b2))
        v_grid = min(v for _, v in frechet_curve(pset, betas=grid))
        if v_star > v_grid + 1e-15:
            bad_argmin += 1
        if equidistance_gap(pset, b2) > Fraction(1, pset.total_pairs):
            bad_gap += 1
    ok = checked >= 90 and bad_argmin == 0 and bad_gap == 0
    _criterion(
        2,
        ok,
        "median crossing lies in the Frechet argmin plateau with one-swap "
        f"equidistance ({checked} sets, argmin misses: {bad_argmin}, gap misses: {bad_gap})",
    )


def test_acceptance_03_uniform_family_targets():
    spec = uniform_spec()
    checks = [
        (mc_kendall_tau(spec, PRECISION, RECALL, N_PAIRS, 301).value, 1 / 3, 0.01, "tau(Pr,Re)"),
        (mc_kendall_tau(spec, PRECISION, F1, N_PAIRS, 302).value, 2 / 3, 0.01, "tau(Pr,F1)"),
        (mc_kendall_tau(spec, F1, RECALL, N_PAIRS, 303).value, 2 / 3, 0.01, "tau(F1,Re)"),
        (mc_kendall_tau(spec, PRECISION, SIVF, N_PAIRS, 304).value, 0.43, 0.01, "tau(Pr,SIVF)"),
        (mc_kendall_tau(spec, SIVF, RECALL, N_PAIRS, 305).value, 0.81, 0.01, "tau(SIVF,Re)"),
    ]
    bad = [f"{d}={v:.4f}" for v, want, tol, d in checks if abs(v - want) > tol]
    _criterion(3, not bad, f"uniform-family Monte Carlo targets (misses: {bad or 'none'})")


def test_acceptance_04_fixed_tn_family_targets():
    bad = []
    for k, ptn in enumerate((0.0, 0.3, 0.6)):
        spec = fixed_tn_spec(ptn)
        t = mc_kendall_tau(spec, PRECISION, RECALL, N_PAIRS, 401 + 10 * k).value
        if abs(t - 1 / 3) > 0.01:
            bad.append(f"ptn={ptn} tau(Pr,Re)={t:.4f}")
        t1 = mc_kendall_tau(spec, PRECISION, F1, N_PAIRS, 402 + 10 * k).value
        t2 = mc_kendall_tau(spec, F1, RECALL, N_PAIRS, 403 + 10 * k).value
        if abs(t1 - 2 / 3) > 0.01 or abs(t2 - 2 / 3) > 0.01:
            bad.append(f"ptn={ptn} F1 sides=({t1:.4f},{t2:.4f})")
    spec = fixed_tn_spec(0.0)
    t_pr_sivf = mc_kendall_tau(spec, PRECISION, SIVF, N_PAIRS, 441).value
    if abs(t_pr_sivf - 1 / 3) > 0.01:
        bad.append(f"tau(Pr,SIVF)={t_pr_sivf:.4f}")
    t_sivf_re = mc_kendall_tau(spec, SIVF, RECALL, N_PAIRS, 442).value
    if t_sivf_re < 0.99:
        bad.append(f"tau(SIVF,Re)={t_sivf_re:.4f}")
    _criterion(4, not bad, f"fixed-tn family targets (misses: {bad or 'none'})")


def test_acceptance_05_fixed_prior_analytic_vs_mc():
    prior = 0.5  # at this prior the F-score's vertex offset equals beta^2
    spec = fixed_priors_spec(prior)
    bad = []
    for k, off in enumerate((0.1, 0.25, 0.61585, 1.0, 2.0, 5.0)):
        beta = math.sqrt(off * (1 - prior) / prior)
        mc_pr = mc_kendall_tau(spec, PRECISION, fbeta(beta), N_PAIRS, 501 + 10 * k).value
        mc_re = mc_kendall_tau(spec, fbeta(beta), RECALL, N_PAIRS, 502 + 10 * k).value
        an_pr = analytic_tau_fixed_priors("pr", off)
        an_re = analytic_tau_fixed_priors("re", off)
        if abs(mc_pr - an_pr) > 0.01 or abs(mc_re - an_re) > 0.01:
            bad.append(f"offset={off}: mc=({mc_pr:.4f},{mc_re:.4f}) vs ({an_pr:.4f},{an_re:.4f})")
        if abs(an_pr + an_re - 1.5) > 1e-12:
            bad.append(f"offset={off}: analytic sides sum {an_pr + an_re!r}")
    _criterion(5, not bad, f"fixed-prior analytic vs MC and 3/2 identity (misses: {bad or 'none'})")


def test_acceptance_06_optimal_offset_constants():
    off3 = optimal_vertex_offset("pi3")
    off4 = optimal_vertex_offset("pi4")
    ok = abs(off3 - 0.61585) <= 5e-4 and abs(off4 - 0.48) <= 1e-2
    _criterion(6, ok, f"optimal vertex offsets: pi3={off3:.5f} (0.61585), pi4={off4:.4f} (0.48)")


def test_acceptance_07_summary_table_cells():
    priors = np.linspace(0.1, 0.9, 9)
    bad = []

    per_prior = N_PAIRS // len(priors)
    for family, expected in (("pi3", math.log(4) - 0.5), ("pi4", 5 / 6)):
        vals = [
            mc_pencil_optimality(family, 1.0, per_prior, 700 + i)
            for i in range(len(priors))
        ]
        got = sum(vals) / len(vals)
        if abs(got - expected) > 0.01:
            bad.append(f"{family} SIVF degree {got:.4f} vs {expected:.4f}")

    p3 = f1_equidistance_prior("pi3")
    if abs(p3 - 0.381) > 0.01:
        bad.append(f"pi3 F1 prior {p3:.4f}")
    p4 = f1_equidistance_prior("pi4")
    if abs(p4 - 0.325) > 0.01:
        bad.append(f"pi4 F1 prior {p4:.4f}")

    p5 = sivf_equidistance_prior_near_oracle(N_PAIRS, 777)
    if abs(p5 - 0.561) > 0.02:
        bad.append(f"pi5 SIVF prior {p5:.4f}")
    _criterion(7, not bad, f"summary-table cells (misses: {bad or 'none'})")


def test_acceptance_08_above_no_skill_and_near_oracle_baselines():
    bad = []
    for k, prior in enumerate((0.1, 0.5, 0.9)):
        t = mc_kendall_tau(above_no_skill_spec(prior), PRECISION, RECALL, N_PAIRS, 801 + k).value
        if abs(t) > 0.01:
            bad.append(f"pi4({prior}) tau={t:.4f}")
    for k, prior in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
        got = mc_kendall_tau(near_oracle_spec(prior), PRECISION, RECALL, N_PAIRS, 821 + k).value
        want = analytic_tau_pr_re_near_oracle(prior)
        if abs(got - want) > 0.01:
            bad.append(f"pi5({prior}) mc={got:.4f} vs {want:.4f}")
        if not 0.0 < want < 0.5:
            bad.append(f"pi5({prior}) analytic out of range: {want}")
    _criterion(8, not bad, f"no-skill zero and near-oracle formula (misses: {bad or 'none'})")


def test_acceptance_09_sivf_equivalent_fbeta_ranking():
    bad = 0
    checked = 0
    set_seeds = iter(range(9000, 9999))
    for prior in (0.1, 0.5, 0.9):
        beta = math.sqrt((1 - prior) / prior)
        n_sets = 17 if prior != 0.9 else 16
        for _ in range(n_sets):
            pset = _pset(fixed_priors_spec(prior), next(set_seeds), 40)
            checked += 1
            d = kendall_distance(rank_by_score(pset, SIVF), rank_by_score(pset, fbeta(beta)))
            if d != 0.0:
                bad += 1
    _criterion(
        9,
        checked == 50 and bad == 0,
        f"SIVF ranking identical to its F-score twin on {checked} fixed-prior sets (misses: {bad})",
    )


def test_acceptance_10_property_suites_standalone(tmp_path):
    rng = np.random.default_rng(10_000)
    problems = []

    # dual-definition agreement at 1e-12
    for _ in range(50):
        e = rng.standard_exponential(4)
        e[3] = max(e[3], 1e-3)
        from prtradeoff import Performance

        p = Performance(*e)
        pr, re = evaluate(PRECISION, p), evaluate(RECALL, p)
        for beta in (0.2, 1.0, 3.0):
            b2 = beta * beta
            harmonic = 1.0 / ((1 / (1 + b2)) / pr + (b2 / (1 + b2)) / re)
            if abs(evaluate(fbeta(beta), p) - harmonic) > 1e-12:
                problems.append("dual-definition")

    # monotone-transform invariance of rankings
    for _ in range(20):
        v = rng.uniform(0.01, 0.99, 15)
        if not (
            (ranks_from_values(v) == ranks_from_values(v**3)).all()
            and (ranks_from_values(v) == ranks_from_values(np.exp(v))).all()
        ):
            problems.append("monotone-invariance")

    # Kendall metric axioms on random permutations
    from prtradeoff import Ranking

    for _ in range(50):
        n = int(rng.integers(3, 10))
        a, b, c = (Ranking(tuple(rng.permutation(n) + 1)) for _ in range(3))
        sym = kendall_distance(a, b) == kendall_distance(b, a)
        tri = kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c) + 1e-15
        if not (sym and tri and kendall_distance(a, a) == 0.0):
            problems.append("metric-axioms")

    # plateau count equals the dense-grid oracle
    for seed in (10_001, 10_002, 10_003, 10_004, 10_005):
        pset = _pset(uniform_spec(), seed, 7)
        path = build_path(pset)
        grid = (
            np.geomspace(path.transition_betas[0] / 2, path.transition_betas[-1] * 2, 2500)
            if len(path.transition_betas)
            else np.geomspace(1e-3, 1e3, 50)
        )
        seen = [rank_by_score(pset, fbeta(0.0)).ranks]
        for b in grid:
            r = rank_by_score(pset, fbeta(b)).ranks
            if r != seen[-1]:
                seen.append(r)
        if len(seen) != path.n_plateaus:
            problems.append("plateau-count")

    # byte-identical CLI reruns
    fixture = tmp_path / "roc.csv"
    pset = _pset(fixed_priors_spec(0.2), 10_006, 30)
    rows = ["tn,fp,fn,tp"] + [
        ",".join(repr(v) for v in row) for row in pset.parts.tolist()
    ]
    fixture.write_text("\n".join(rows) + "\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        if cli.main(["analyze", "--input", str(fixture), "--out", str(out)]) != 0:
            problems.append("cli-exit")
        outs.append(out)
    for f in sorted(p.name for p in outs[0].iterdir()):
        if (outs[0] / f).read_bytes() != (outs[1] / f).read_bytes():
            problems.append(f"cli-bytes:{f}")

    _criterion(10, not problems, f"standalone property suites (problems: {problems or 'none'})")
