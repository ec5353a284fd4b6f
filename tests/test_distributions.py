import functools
import inspect
import math
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import prtradeoff
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
    mc_kendall_tau,
    mc_optimal_vertex_offset_near_oracle,
    mc_pencil_optimality,
    mc_tau_sides_near_oracle,
    near_oracle_spec,
    optimal_vertex_offset,
    sample_parts,
    sivf_equidistance_prior_near_oracle,
    uniform_spec,
)
from prtradeoff import distributions as dist
from prtradeoff import fbeta, studies
from prtradeoff.distributions import FAMILIES
from prtradeoff.studies import SCORE_PAIRS

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


def test_sample_parts_rejects_an_empty_draw():
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample_parts(fixed_priors_spec(0.3), 9, 0)


def test_sample_parts_rejects_a_non_integer_count_at_the_check():
    with pytest.raises(TypeError, match="cannot be interpreted as an integer") as info:
        sample_parts(uniform_spec(), 0, 1.5)
    assert info.traceback[-1].name == "sample_parts"


def test_sample_parts_is_the_one_draw_route():
    # objects come from PerformanceSet.from_parts(sample_parts(...)) or its rows
    assert "sample" not in prtradeoff.__all__
    assert not hasattr(dist, "sample")


def test_star_import_binds_the_reexported_names_and_no_submodule():
    namespace = {}
    exec("from prtradeoff import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == prtradeoff.__all__
    assert not any(inspect.ismodule(value) for value in namespace.values())
    assert "score_values" in namespace and "scores" not in namespace  # a user's scores stays theirs


def _redraw_below_diagonal_full_scan(rng, x, y):
    """The rejection loop that rescans the whole array each round: the oracle."""
    bad = y < x
    while bad.any():
        k = int(bad.sum())
        x[bad] = rng.uniform(0.0, 1.0, k)
        y[bad] = rng.uniform(0.0, 1.0, k)
        bad = y < x


@pytest.mark.parametrize("seed", range(20))
def test_redraw_below_diagonal_matches_the_full_scan(seed):
    n = 1 + 997 * seed  # includes a single point
    runs = []
    for redraw in (functools.partial(dist._redraw, rejected=np.greater), _redraw_below_diagonal_full_scan):
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(size=(2, n))
        redraw(rng, x, y)
        runs.append((x, y, rng.uniform(size=3)))  # the generator's state after the loop
    (x, y, after), (x0, y0, after0) = runs
    assert np.all(y >= x)
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(y, y0)
    np.testing.assert_array_equal(after, after0)


class _ZeroedUniform:
    """A generator whose ``call``-th uniform block has 0.0 at ``index``."""

    def __init__(self, rng, call, index):
        self.rng, self.call, self.index, self.calls = rng, call, index, 0

    def uniform(self, low, high, size):
        u = self.rng.uniform(low, high, size)
        self.calls += 1
        if self.calls == self.call:
            u[self.index] = 0.0
        return u


def test_pi5_redraws_a_point_on_its_edge_strictly_inside(monkeypatch):
    # the second block is the tpr uniforms: 0.0 maps to tpr == prior, an edge pi5 excludes
    p, n, k = 0.3, 20, 7
    monkeypatch.setattr(dist, "roc_columns", lambda fpr, tpr, prior: (fpr, tpr))
    stub = _ZeroedUniform(np.random.default_rng(5), call=2, index=k)
    fpr, tpr = dist._draw_columns(near_oracle_spec(p), stub, n)
    assert stub.calls == 4  # the two blocks, then one round of u and v for the one point
    assert fpr[k] < p < tpr[k]
    rng = np.random.default_rng(5)
    u, v = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    fpr0, tpr0 = dist._near_oracle_roc(u, v, p)
    fpr0[[k]], tpr0[[k]] = dist._near_oracle_roc(rng.uniform(0.0, 1.0, 1), rng.uniform(0.0, 1.0, 1), p)
    np.testing.assert_array_equal(fpr, fpr0)
    np.testing.assert_array_equal(tpr, tpr0)


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


def _undefined_near_zero_tp(score, tn, fp, fn, tp, real=dist.score_columns, below=1e-3):
    # about 3 * below of uniform performances; at 1e-3 redrawn, but under the 1% guard
    values = real(score, tn, fp, fn, tp)
    values[tp < below] = np.nan
    return values


def test_mc_tau_reports_redrawn_pairs(monkeypatch):
    assert mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 20000, 6).redrawn == 0
    monkeypatch.setattr(dist, "score_columns", _undefined_near_zero_tp)
    est = mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 20000, 6)
    assert 0 < est.redrawn <= 0.01 * est.n_pairs


# The oracle below freezes the samplers and score formulas as they were
# before Monte Carlo blocks were drawn and scored as columns: row-major
# (n, 4) draws, and scores read from the columns of that array.


def _frozen_draw(spec, rng, n):
    """(n, 4) performances drawn as the row-major samplers drew them."""
    fam = spec.family
    if fam == "pi1":
        e = rng.standard_exponential((n, 4))
        e /= (e[:, 0] + e[:, 1] + e[:, 2] + e[:, 3])[:, None]
        return e
    if fam == "pi2":
        e = rng.standard_exponential((n, 3))
        total = e[:, 0] + e[:, 1] + e[:, 2]
        e *= 1.0 - spec.ptn
        e /= total[:, None]
        parts = np.empty((n, 4))
        parts[:, 0] = spec.ptn
        parts[:, 1:] = e
        return parts
    p = spec.prior_pos
    fpr = rng.uniform(0.0, 1.0, n)
    tpr = rng.uniform(0.0, 1.0, n)
    if fam == "pi4":
        _redraw_below_diagonal_full_scan(rng, fpr, tpr)
    elif fam == "pi5":
        fpr, tpr = fpr * p, p + tpr * (1.0 - p)
        bad = (fpr >= p) | (tpr <= p)
        while bad.any():
            k = int(bad.sum())
            u, v = rng.uniform(0.0, 1.0, k), rng.uniform(0.0, 1.0, k)
            fpr[bad], tpr[bad] = u * p, p + v * (1.0 - p)
            bad = (fpr >= p) | (tpr <= p)
    q = 1.0 - p
    return np.stack([q * (1.0 - fpr), q * fpr, p * (1.0 - tpr), p * tpr], axis=-1)


def _frozen_score_values(score, parts):
    """Row-major score formulas of precision, recall, finite-beta F and SIVF."""
    tn, fp, fn, tp = parts[:, 0], parts[:, 1], parts[:, 2], parts[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        if score.kind == "precision":
            return np.where(fp + tp > 0, tp / (fp + tp), np.nan)
        if score.kind == "recall":
            return np.where(fn + tp > 0, tp / (fn + tp), np.nan)
        if score.kind == "fbeta":
            b2 = score.beta * score.beta
            den = fp + b2 * fn + (1.0 + b2) * tp
            return np.where(den > 0, (1.0 + b2) * tp / den, np.nan)
        if score.kind == "sivf":
            neg, pos = tn + fp, fn + tp
            tpr, fpr = tp / pos, fp / neg
            return np.where((neg > 0) & (pos > 0), 2.0 * tpr / (tpr + fpr + 1.0), np.nan)
    raise AssertionError(score.kind)


def _frozen_undefined_near_zero_tp(score, parts, below=1e-3):
    values = _frozen_score_values(score, parts)
    values[parts[:, 3] < below] = np.nan
    return values


def _sequential_mc_kendall_tau(spec, score1, score2, n_pairs, seed, scorer=_frozen_score_values):
    """The block loop of mc_kendall_tau as it ran before blocks were counted concurrently."""
    done = 0
    block = 0
    discordant = 0
    redrawn = 0
    while done < n_pairs:
        want = min(dist._BLOCK, n_pairs - done)
        rng = dist._block_generator(seed, block)
        a = _frozen_draw(spec, rng, want)
        b = _frozen_draw(spec, rng, want)
        v1a, v1b = scorer(score1, a), scorer(score1, b)
        v2a, v2b = scorer(score2, a), scorer(score2, b)
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
            a2, b2 = _frozen_draw(spec, rng, k), _frozen_draw(spec, rng, k)
            v1a[bad], v1b[bad] = scorer(score1, a2), scorer(score1, b2)
            v2a[bad], v2b[bad] = scorer(score2, a2), scorer(score2, b2)
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


def _assert_matches_sequential(monkeypatch, spec, score1, score2, n_pairs, seed, **oracle):
    want = _sequential_mc_kendall_tau(spec, score1, score2, n_pairs, seed, **oracle)
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

MATRIX_SPECS = [
    uniform_spec(),
    *(fixed_tn_spec(ptn) for ptn in (0.0, 0.3, 0.6)),
    FAMILY_SPECS["pi3"],
    FAMILY_SPECS["pi4"],
    FAMILY_SPECS["pi5"],
]
MATRIX_PAIRS = [(s1, s2) for _, _, s1, s2 in SCORE_PAIRS] + [(PRECISION, fbeta(0.5))]


@pytest.mark.parametrize("n_pairs", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 17])
@pytest.mark.parametrize("family", FAMILIES)
def test_concurrent_blocks_match_the_sequential_loop(monkeypatch, family, n_pairs):
    _assert_matches_sequential(monkeypatch, FAMILY_SPECS[family], PRECISION, F1, n_pairs, 17)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", MATRIX_SPECS, ids=lambda s: s.label())
def test_column_draws_and_scores_are_the_row_major_bits(spec, seed):
    # an estimate only counts comparisons, which a last-bit change rarely flips
    columns = dist._draw_columns(spec, dist._block_generator(seed, 0), 5000)
    parts = _frozen_draw(spec, dist._block_generator(seed, 0), 5000)
    assert all(c.flags.c_contiguous for c in columns)
    np.testing.assert_array_equal(np.stack(columns, axis=1).view(np.uint64), parts.view(np.uint64))
    for score in {s for pair in MATRIX_PAIRS for s in pair}:
        np.testing.assert_array_equal(
            dist.score_columns(score, *columns).view(np.uint64),
            _frozen_score_values(score, parts).view(np.uint64),
            err_msg=score.label(),
        )


@pytest.mark.parametrize("n_pairs", [5000, 2 * (1 << 16) + 17])  # below one block; a partial last block
@pytest.mark.parametrize("pair", MATRIX_PAIRS, ids=lambda p: f"{p[0].label()}-{p[1].label()}")
@pytest.mark.parametrize("spec", MATRIX_SPECS, ids=lambda s: s.label())
def test_column_kernel_matches_the_row_major_loop(monkeypatch, spec, pair, n_pairs):
    _assert_matches_sequential(monkeypatch, spec, *pair, n_pairs, 23)


def test_concurrent_redraws_match_the_sequential_loop(monkeypatch):
    monkeypatch.setattr(dist, "score_columns", _undefined_near_zero_tp)
    est = _assert_matches_sequential(
        monkeypatch, uniform_spec(), PRECISION, RECALL, 3 * (1 << 16) + 17, 6,
        scorer=_frozen_undefined_near_zero_tp,
    )
    assert 0 < est.redrawn <= 0.01 * est.n_pairs


def test_redraw_limit_error_surfaces_from_a_worker(monkeypatch):
    monkeypatch.setattr(dist, "_BLOCK", 256)
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 4)
    real = dist.score_columns
    taken = threading.Event()

    def undefined_off_the_calling_thread(score, *columns):
        values = real(score, *columns)
        if threading.current_thread() is threading.main_thread():
            taken.wait(timeout=30)  # leave a block to a pool thread
        else:
            taken.set()
            values[:] = np.nan
        return values

    # only the blocks counted by pool threads exhaust their redraw rounds
    monkeypatch.setattr(dist, "score_columns", undefined_off_the_calling_thread)
    with pytest.raises(RedrawLimitError, match="redraw rounds"):
        mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 1000, 0)
    assert taken.is_set()


def test_redraw_guard_sums_the_blocks_of_all_threads(monkeypatch):
    monkeypatch.setattr(dist, "_BLOCK", 256)
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 4)
    # redraws under the limit in every block, above 1% summed over the blocks
    monkeypatch.setattr(
        dist, "score_columns", functools.partial(_undefined_near_zero_tp, below=0.01)
    )
    with pytest.raises(RedrawLimitError, match="needed redrawing"):
        mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 1000, 0)


@pytest.mark.parametrize("cpus", [2, 5, 8])
def test_map_takes_each_item_once_and_returns_item_order(monkeypatch, cpus):
    monkeypatch.setattr(dist, "_usable_cpus", lambda: cpus)
    calls = []  # list.append is atomic: a lost or doubled queue update shows in the counts

    def square(x):
        calls.append(x)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert dist._map_concurrently(square, range(2000)) == [x * x for x in range(2000)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(2000))
    assert dist._map_concurrently(square, []) == []


def test_a_map_inside_an_item_starts_no_thread(monkeypatch):
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 3)

    def inner(j):
        return threading.get_ident(), threading.active_count()

    def outer(i):
        before = threading.active_count()
        return threading.get_ident(), before, dist._map_concurrently(inner, range(4))

    runs = dist._map_concurrently(outer, range(6))
    for ident, before, nested in runs:
        for inner_ident, count in nested:
            # inline on the item's own thread; the outer map's helpers may already be leaving
            assert inner_ident == ident
            assert count <= before


def test_a_map_joins_its_helpers_before_it_returns_or_raises(monkeypatch):
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 4)  # helpers on any host
    before = threading.active_count()
    assert dist._map_concurrently(str, range(200)) == [str(x) for x in range(200)]
    assert threading.active_count() == before

    raised = threading.Event()

    def fail_off_the_calling_thread(x):
        if threading.current_thread() is threading.main_thread():
            raised.wait(timeout=30)  # leave an item to a helper
            return x
        raised.set()
        raise KeyError(x)

    with pytest.raises(KeyError):
        dist._map_concurrently(fail_off_the_calling_thread, range(200))
    assert raised.is_set()
    assert threading.active_count() == before


def test_a_forked_child_estimates_after_a_concurrent_map(monkeypatch):
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 2)  # helpers on any host
    want = mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 200_000, 3)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send(mc_kendall_tau(uniform_spec(), PRECISION, RECALL, 200_000, 3))

    proc = ctx.Process(target=child)
    proc.start()
    proc.join(timeout=60)
    try:
        assert not proc.is_alive(), "the forked child waited on threads it does not have"
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10)
    assert proc.exitcode == 0
    assert receive.poll(timeout=10)
    assert receive.recv() == want


def test_table1_cells_do_not_depend_on_the_cpu_count(monkeypatch):
    runs = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(dist, "_usable_cpus", lambda c=cpus: c)
        runs.append(studies.table1_cells(2 * 10**5, 7))
    assert runs[0] == runs[1] == runs[2]


def _near_oracle_rows(p, n_pairs, seed):
    """A pi5 prior's rows, one public call after another: the oracle for the study's one map."""
    est = mc_kendall_tau(near_oracle_spec(p), PRECISION, RECALL, n_pairs, seed)
    off = mc_optimal_vertex_offset_near_oracle(p, n_pairs, seed + 100)
    b2, b = beta_for_offset(off, p)
    t1, t2 = mc_tau_sides_near_oracle(p, p / (1.0 - p), n_pairs, seed + 200)
    return (
        (p, analytic_tau_pr_re_near_oracle(p), est.value, est.half_width),
        (p, off, math.sqrt(b2), b),
        (p, t1, t2),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_tables_do_not_depend_on_the_cpu_count(monkeypatch, family):
    n_pairs, seed = 2 * (1 << 16) + 17, 11  # a partial last block
    runs = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(dist, "_usable_cpus", lambda c=cpus: c)
        runs.append(studies.sweep_tables(FAMILY_SPECS[family], n_pairs, seed))
    assert runs[0] == runs[1] == runs[2]
    if family == "pi5":
        tables, summary = runs[0]
        rows = [_near_oracle_rows(p, n_pairs, seed + i) for i, p in enumerate(studies.PRIOR_GRID)]
        for name, want in zip(("pr_re", "adaptation", "f1_equidistance"), zip(*rows)):
            assert list(tables[name][1]) == list(want), name
        assert summary["sivf_equidistance_prior"] == sivf_equidistance_prior_near_oracle(n_pairs, seed + 300)


def _count_thread_starts(monkeypatch) -> list:
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


STUDIES = {
    "table1": lambda n: studies.table1_cells(n, 0),
    **{f"sweep-{f}": lambda n, spec=spec: studies.sweep_tables(spec, n, 0) for f, spec in FAMILY_SPECS.items()},
}


@pytest.mark.parametrize("study", STUDIES.values(), ids=STUDIES.keys())
def test_each_study_is_one_concurrent_map(monkeypatch, study):
    # one map per study, each starting and joining its own helpers; two
    # blocks per tau, so a map per estimate would start helpers of its own
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 3)
    started = _count_thread_starts(monkeypatch)
    study(1 << 17)
    assert started == ["prtradeoff"] * 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_study_raises_the_first_error_in_cell_order_not_in_time(monkeypatch, cpus):
    # the pi5 prior search, table1's last cell, is the first piece in the
    # queue; it fails before any pencil replicate, an earlier cell, does
    monkeypatch.setattr(dist, "_usable_cpus", lambda: cpus)
    failed = []
    search_failed = threading.Event()

    def failing_search(n_pairs, seed):
        failed.append("search")
        search_failed.set()
        raise ValueError("the search failed")

    def failing_replicate(family, candidate_offset, n_pairs, seed):
        assert search_failed.wait(timeout=30)
        failed.append("replicate")
        raise RedrawLimitError("a replicate failed")

    monkeypatch.setattr(dist, "sivf_equidistance_prior_near_oracle", failing_search)
    monkeypatch.setattr(dist, "mc_pencil_optimality", failing_replicate)
    with pytest.raises(RedrawLimitError, match="a replicate failed"):
        studies.table1_cells(20000, 0)
    assert failed[0] == "search" and "replicate" in failed


@pytest.mark.parametrize(
    "spec, n_pairs, seed",
    # table1's first pi1 cell at --pairs 1 and its second pi2 cell at --pairs 5, seed 0
    [(uniform_spec(), 1, 0), (fixed_tn_spec(0.3), 5, 20)],
    ids=["pi1-1", "pi2-5"],
)
def test_f1_degree_is_undefined_when_no_sampled_pair_disagrees(spec, n_pairs, seed):
    assert mc_kendall_tau(spec, PRECISION, RECALL, n_pairs, seed).value == 1.0
    with pytest.raises(ValueError, match="precision and recall agree on all"):
        studies.mc_f1_degree(spec, n_pairs, seed)
    assert 0.0 < studies.mc_f1_degree(spec, 2000, seed) <= 1.0


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


ANALYTIC = {"pi3": analytic_tau_fixed_priors, "pi4": analytic_tau_above_no_skill}


def _gap(family, ell):
    tau = ANALYTIC[family]
    return tau("pr", ell) - tau("re", ell)


@pytest.mark.parametrize("family", list(ANALYTIC))
def test_the_gap_changes_sign_over_the_bracket(family):
    assert _gap(family, 1e-4) > 0 > _gap(family, 10.0)


@pytest.mark.parametrize("family", list(ANALYTIC))
def test_optimal_vertex_offset_is_within_one_float_of_the_gap_root(family):
    ell = optimal_vertex_offset(family)
    positive = _gap(family, ell) > 0
    neighbours = (math.nextafter(ell, 0.0), math.nextafter(ell, math.inf))
    assert any((_gap(family, x) > 0) != positive for x in neighbours)


def test_optimal_vertex_offset_constants():
    assert optimal_vertex_offset("pi3") == pytest.approx(0.61585, abs=5e-4)
    assert optimal_vertex_offset("pi4") == pytest.approx(0.48, abs=1e-2)
    with pytest.raises(ValueError):
        optimal_vertex_offset("pi1")


def test_mc_offsets_hold_pi3s_optimum_rounded():
    # mc_validation probes pi3 (and pi4) at a fixed 5-place copy of pi3's optimum
    assert studies._MC_OFFSETS[2] == round(optimal_vertex_offset("pi3"), 5)


def test_pi5_tables_merge_a_grid_prior_into_the_grid():
    # a --param of 0.3 is the grid's own 0.3, so each table keeps 9 distinct priors
    tables, _ = studies.sweep_tables(near_oracle_spec(0.3), 20000, 0)
    for name in ("pr_re", "adaptation", "f1_equidistance"):
        priors = [row[0] for row in tables[name][1]]
        assert priors == list(studies.PRIOR_GRID), name
        assert len(set(priors)) == 9, name


def test_f1_equidistance_prior():
    for family in ANALYTIC:
        ell = optimal_vertex_offset(family)
        # the balanced F-score's vertex offset at prior p is p / (1 - p)
        assert f1_equidistance_prior(family) == ell / (1.0 + ell)
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


def test_mc_pencil_optimality_without_a_contradicted_pair_asks_for_more_pairs():
    # a ValueError, which the CLI reports, not a RedrawLimitError: nothing was redrawn
    with pytest.raises(ValueError, match="none of the 1 sampled pairs oppositely; sample more pairs"):
        mc_pencil_optimality("pi3", 1.0, 1, 1)


@pytest.mark.parametrize("family", ["pi3", "pi4"])
def test_mc_pencil_optimality_holds_two_sign_arrays_at_a_time(family):
    # The (4, n) points are 32 bytes a pair.  Holding all four float sign
    # arrays at once peaked at 2.31 times their size; forming the
    # contradiction mask, then the candidate-optimum product, at 1.80.
    n = 10**6
    tracemalloc.start()
    try:
        mc_pencil_optimality(family, 1.0, n, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.9 * 4 * 8 * n


@pytest.mark.parametrize(
    "call",
    [
        lambda n: mc_optimal_vertex_offset_near_oracle(0.3, n, 0),
        lambda n: sivf_equidistance_prior_near_oracle(n, 0),
        lambda n: mc_tau_sides_near_oracle(0.3, 1.0, n, 0),
        lambda n: mc_pencil_optimality("pi3", 1.0, n, 0),
        *STUDIES.values(),
    ],
    ids=["offset", "prior", "sides", "pencil", *STUDIES],
)
@pytest.mark.parametrize("n_pairs", [0, -1])
def test_monte_carlo_studies_reject_fewer_than_one_pair(monkeypatch, call, n_pairs):
    monkeypatch.setattr(dist, "_usable_cpus", lambda: 3)
    started = _count_thread_starts(monkeypatch)
    with pytest.raises(ValueError, match="n_pairs must be >= 1"):
        call(n_pairs)
    assert started == []  # a study checks its pair count before its map starts a helper


SEEDED_CALLS = [
    lambda seed, n=1000: sample_parts(near_oracle_spec(0.3), seed, n),
    lambda seed, n=1000: mc_kendall_tau(uniform_spec(), PRECISION, RECALL, n, seed),
    lambda seed, n=1000: mc_pencil_optimality("pi4", 1.0, n, seed),
    lambda seed, n=1000: mc_optimal_vertex_offset_near_oracle(0.3, n, seed),
    lambda seed, n=1000: sivf_equidistance_prior_near_oracle(n, seed),
    lambda seed, n=1000: mc_tau_sides_near_oracle(0.3, 1.0, n, seed),
]
SEEDED_IDS = ["sample_parts", "tau", "pencil", "offset", "prior", "sides"]


@pytest.mark.parametrize("call", SEEDED_CALLS, ids=SEEDED_IDS)
@pytest.mark.parametrize("seed", [1.5, 2.7, np.float64(3.0)], ids=repr)
def test_a_non_integer_seed_is_rejected(call, seed):
    # Philox would truncate a float key, so seed 1.5 would draw seed 1's pairs
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(seed)


@pytest.mark.parametrize("call", SEEDED_CALLS, ids=SEEDED_IDS)
def test_an_integer_seed_of_any_type_draws_the_same(call):
    got, want = call(np.int64(3)), call(3)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


@pytest.mark.parametrize("call", SEEDED_CALLS[1:], ids=SEEDED_IDS[1:])
def test_a_non_integer_pair_count_is_rejected_at_the_check(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer") as info:
        call(0, 1.5)
    assert info.traceback[-1].name == "_check_n_pairs"


@pytest.mark.parametrize("offset", [math.nan, 0.0, -1.0, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda off: mc_tau_sides_near_oracle(0.3, off, 1000, 0),
        lambda off: mc_pencil_optimality("pi3", off, 1000, 0),
    ],
    ids=["sides", "candidate"],
)
def test_pencil_studies_reject_nan_and_nonpositive_offsets(call, offset):
    with pytest.raises(ValueError, match="must be > 0 or inf"):
        call(offset)


def test_pencil_studies_accept_the_recall_limit():
    # an infinite vertex offset is recall itself
    assert mc_tau_sides_near_oracle(0.3, math.inf, 1000, 0)[1] == 1.0
    assert 0.0 < mc_pencil_optimality("pi3", math.inf, 1000, 0) < 1.0


def test_pencil_optimality_takes_no_optimal_offset():
    # the optimum is the family's own optimal_vertex_offset, found inside
    assert list(inspect.signature(mc_pencil_optimality).parameters) == [
        "family", "candidate_offset", "n_pairs", "seed"
    ]
