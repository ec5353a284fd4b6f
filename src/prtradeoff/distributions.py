"""Performance-distribution families, Monte Carlo rank correlations, analytic results.

Five sampling families are supported, identified as pi1..pi5:

pi1  uniform over the whole simplex of performances;
pi2  uniform over the slice with a fixed probability of true negatives;
pi3  uniform over the slice with fixed class priors (uniform ROC points);
pi4  pi3 conditioned on being at or above the no-skill diagonal;
pi5  pi3 conditioned on the near-oracle region (fpr below the positive
     prior, tpr above it).

Rank correlations between two scores under a family are estimated from
independent performance pairs: tau = 1 - 4 P[first score decreases while
the second increases].  Draws come from counter-based substreams of a
Philox generator in fixed-size blocks, so results are bit-reproducible
for a given seed no matter how the pair range is partitioned.  Each
block draws its performances as four contiguous outcome columns and
scores them with ``scores.score_columns``.

Independent pieces of work (the blocks of one estimate, the replicates
of a study) go through ``_map_concurrently``: the calling thread and one
process-wide pool, with one thread fewer than the CPUs the process may
use, take them from a shared queue.  The pool starts with the first map,
not at import; a map called from inside a piece runs inline.  Each piece
returns its own result, combined in item order, so every number is the
same bit for bit whatever the number of threads, and nothing sets it.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .ranking import _SideCounts
from .scores import ScoreFunction, TIE_TOL, _check_prior_pos, roc_columns, score_columns

FAMILIES = ("pi1", "pi2", "pi3", "pi4", "pi5")

_BLOCK = 1 << 16  # pairs per Monte Carlo block, and per block of the pi5 searches
_MAX_REDRAW_ROUNDS = 60
_REDRAW_FRACTION = 0.01


class RedrawLimitError(RuntimeError):
    """Too many degenerate Monte Carlo pairs (undefined or tied scores)."""


@dataclass(frozen=True)
class DistributionSpec:
    """One of the five families plus its parameter, if any."""

    family: str
    ptn: float | None = None        # pi2 only
    prior_pos: float | None = None  # pi3, pi4, pi5 only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "pi1":
            if self.ptn is not None or self.prior_pos is not None:
                raise ValueError("pi1 takes no parameter")
        elif self.family == "pi2":
            if self.ptn is None or self.prior_pos is not None:
                raise ValueError("pi2 takes exactly the ptn parameter")
            if not 0.0 <= self.ptn < 1.0:
                raise ValueError(f"ptn must be in [0, 1), got {self.ptn!r}")
        else:
            if self.prior_pos is None or self.ptn is not None:
                raise ValueError(f"{self.family} takes exactly the prior_pos parameter")
            _check_prior_pos(self.prior_pos)

    def label(self) -> str:
        if self.family == "pi2":
            return f"pi2(ptn={self.ptn:g})"
        if self.prior_pos is not None:
            return f"{self.family}(prior={self.prior_pos:g})"
        return self.family


def uniform_spec() -> DistributionSpec:
    return DistributionSpec("pi1")


def fixed_tn_spec(ptn: float) -> DistributionSpec:
    return DistributionSpec("pi2", ptn=float(ptn))


def fixed_priors_spec(prior_pos: float) -> DistributionSpec:
    return DistributionSpec("pi3", prior_pos=float(prior_pos))


def above_no_skill_spec(prior_pos: float) -> DistributionSpec:
    return DistributionSpec("pi4", prior_pos=float(prior_pos))


def near_oracle_spec(prior_pos: float) -> DistributionSpec:
    return DistributionSpec("pi5", prior_pos=float(prior_pos))


def _generator(seed: int, counter: int = 0) -> np.random.Generator:
    seed = operator.index(seed)  # a float raises: Philox would truncate 1.5 to seed 1
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _block_generator(seed: int, block: int) -> np.random.Generator:
    # blocks are spaced 2**128 counter steps apart: substreams never overlap
    return _generator(seed, (block + 1) << 128)


def _redraw_below_diagonal(rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> None:
    """pi4's rejection step, in place: redraw (x, y) wherever y < x.

    Each round scans only the points it redrew.  Their indices stay
    ascending, so the draws land where a full-mask assignment puts them.
    """
    idx = np.flatnonzero(y < x)
    while idx.size:
        x[idx] = rng.uniform(0.0, 1.0, idx.size)
        y[idx] = rng.uniform(0.0, 1.0, idx.size)
        idx = idx[y[idx] < x[idx]]


def _near_oracle_roc(u, v, prior_pos):
    """pi5's ROC point (fpr, tpr) for uniforms (u, v): fpr below the prior, tpr above it."""
    return u * prior_pos, prior_pos + v * (1.0 - prior_pos)


def _draw_columns(spec: DistributionSpec, rng: np.random.Generator, n: int) -> tuple:
    """The (ptn, pfp, pfn, ptp) columns of n performances drawn from the family, each contiguous."""
    fam = spec.family
    if fam in ("pi1", "pi2"):
        # the draws fill the rows of e; each row's total adds its cells left
        # to right, the order of e.sum(axis=1)
        e = rng.standard_exponential((n, 4 if fam == "pi1" else 3))
        total = e[:, 0] + e[:, 1]
        for j in range(2, e.shape[1]):
            total += e[:, j]
        if fam == "pi1":
            return tuple(np.divide(e.T, total, order="C"))
        cells = np.multiply(e.T, 1.0 - spec.ptn, order="C")
        cells /= total
        return (np.full(n, spec.ptn), *cells)
    p = spec.prior_pos
    fpr = rng.uniform(0.0, 1.0, n)
    tpr = rng.uniform(0.0, 1.0, n)
    if fam == "pi4":
        _redraw_below_diagonal(rng, fpr, tpr)
    elif fam == "pi5":
        fpr, tpr = _near_oracle_roc(fpr, tpr, p)
        # strict fpr < prior < tpr: float rounding can touch the edges
        bad = (fpr >= p) | (tpr <= p)
        while bad.any():
            k = int(bad.sum())
            u, v = rng.uniform(0.0, 1.0, k), rng.uniform(0.0, 1.0, k)
            fpr[bad], tpr[bad] = _near_oracle_roc(u, v, p)
            bad = (fpr >= p) | (tpr <= p)
    return roc_columns(fpr, tpr, p)


def sample_parts(spec: DistributionSpec, seed: int, count: int) -> np.ndarray:
    """(count, 4) array of draws; deterministic for a given (spec, seed)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.stack(_draw_columns(spec, _generator(seed), count), axis=1)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with a 95% confidence half-width."""

    value: float
    half_width: float
    n_pairs: int
    seed: int
    redrawn: int = 0  # degenerate pairs replaced by fresh draws


def _check_n_pairs(n_pairs: int) -> None:
    if operator.index(n_pairs) < 1:
        raise ValueError("n_pairs must be >= 1")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The process's pool, as (threads, pool): started by the first map that
# needs one, never at import.
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()
_in_task = threading.local()  # .active while this thread runs a map's items


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """The process's pool of ``threads`` threads.

    A pool of another size, left from when the process could use another
    number of CPUs, is dropped; its threads exit once no map holds it.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="prtradeoff"))
        return _pool[1]


def _map_concurrently(fn, items) -> list:
    """``[fn(item) for item in items]``, computed by the calling thread and the process's pool.

    The caller and up to ``_usable_cpus() - 1`` pool threads take items
    from one shared queue, so a slow item holds up no other thread; the
    results come back in item order.  A map called from inside an item,
    on any thread, runs inline on that thread, so maps never nest.  Pool
    threads that have not started when the queue runs empty are cancelled,
    not waited for: a child forked from a process with a pool has none of
    its threads, and its caller takes every item.  An item that raises
    stops the queue; the exception is raised once every started thread
    has finished its item.
    """
    items = list(items)
    cpus = _usable_cpus()
    helpers = min(len(items), cpus) - 1
    if helpers < 1 or getattr(_in_task, "active", False):
        return [fn(item) for item in items]
    results = [None] * len(items)
    queue = iter(range(len(items)))
    queue_lock = threading.Lock()
    failed = threading.Event()

    def drain() -> None:
        _in_task.active = True
        try:
            while not failed.is_set():
                with queue_lock:
                    i = next(queue, None)
                if i is None:
                    return
                results[i] = fn(items[i])
        except BaseException:
            failed.set()
            raise
        finally:
            _in_task.active = False

    pool = _shared_pool(cpus - 1)
    others = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # a turn that has not started would find the queue empty; waiting for
        # it would hang a forked child, which has no thread to start it
        started = [future for future in others if not future.cancel()]
        wait(started)
    for future in started:
        future.result()  # raises a pool thread's exception
    return results


def _block_counts(spec, score1, score2, n_pairs: int, seed: int, block: int) -> tuple[int, int]:
    """(discordant, redrawn) pairs of one block of ``mc_kendall_tau``, from its own substream."""
    want = min(_BLOCK, n_pairs - block * _BLOCK)
    rng = _block_generator(seed, block)

    def scored(n: int) -> tuple[np.ndarray, np.ndarray]:
        columns = _draw_columns(spec, rng, n)
        return score_columns(score1, *columns), score_columns(score2, *columns)

    # score each side before drawing the next: less memory held per thread
    v1a, v2a = scored(want)
    v1b, v2b = scored(want)
    redrawn = 0
    for _ in range(_MAX_REDRAW_ROUNDS):
        with np.errstate(invalid="ignore"):
            bad = ~(
                np.isfinite(v1a) & np.isfinite(v1b)
                & np.isfinite(v2a) & np.isfinite(v2b)
            )
            bad |= np.abs(v1a - v1b) <= TIE_TOL
            bad |= np.abs(v2a - v2b) <= TIE_TOL
        if not bad.any():
            break
        k = int(bad.sum())
        redrawn += k
        v1a[bad], v2a[bad] = scored(k)
        v1b[bad], v2b[bad] = scored(k)
    else:
        raise RedrawLimitError(
            f"degenerate pairs persist after {_MAX_REDRAW_ROUNDS} redraw rounds"
        )
    return int(((v1a < v1b) & (v2a > v2b)).sum()), redrawn


def mc_kendall_tau(
    spec: DistributionSpec,
    score1: ScoreFunction,
    score2: ScoreFunction,
    n_pairs: int,
    seed: int,
) -> McEstimate:
    """Kendall rank correlation of two scores under a performance distribution.

    Pairs on which either score is undefined or tied (within ``TIE_TOL``)
    are redrawn inside their block, which keeps ``n_pairs`` exact; those
    events have measure zero for the supported families, so a redraw rate
    above 1% aborts with ``RedrawLimitError``.  Blocks are drawn and
    counted concurrently (``_map_concurrently``); their integer counts are
    summed, so the estimate does not depend on the number of threads.
    """
    _check_n_pairs(n_pairs)
    n_blocks = -(-n_pairs // _BLOCK)
    per_block = _map_concurrently(
        functools.partial(_block_counts, spec, score1, score2, n_pairs, seed), range(n_blocks)
    )
    discordant = sum(d for d, _ in per_block)
    redrawn = sum(r for _, r in per_block)
    if redrawn > _REDRAW_FRACTION * n_pairs:
        raise RedrawLimitError(f"{redrawn} of {n_pairs} pairs needed redrawing")
    p_hat = discordant / n_pairs
    half_width = 1.96 * 4.0 * math.sqrt(p_hat * (1.0 - p_hat) / n_pairs)
    return McEstimate(1.0 - 4.0 * p_hat, half_width, n_pairs, seed, redrawn)


# ---------------------------------------------------------------------------
# Analytic rank correlations (fixed-prior families, in terms of the ROC
# pencil-vertex offset of the F-score: offset = beta^2 * prior / (1 - prior)).
# ---------------------------------------------------------------------------

_SIDES = ("pr", "re")


def _check_side_offset(side: str, offset: float) -> float:
    if side not in _SIDES:
        raise ValueError(f"side must be 'pr' or 're', got {side!r}")
    ell = float(offset)
    if not ell > 0 or math.isinf(ell):
        raise ValueError(f"vertex offset must be finite and > 0, got {offset!r}")
    return ell


def analytic_tau_fixed_priors(side: str, offset: float) -> float:
    """tau(precision, F) or tau(F, recall) under pi3, for the given vertex offset.

    The two sides sum to 3/2 for every offset, since tau(precision,
    recall) = 1/2 under pi3.
    """
    ell = _check_side_offset(side, offset)
    if side == "pr":
        return 1.0 - ell * (ell * math.log(ell / (ell + 1.0)) + 1.0)
    return 0.5 + ell - ell * ell * math.log((1.0 + ell) / ell)


def analytic_tau_above_no_skill(side: str, offset: float) -> float:
    """tau(precision, F) or tau(F, recall) under pi4; the sides sum to 1."""
    ell = _check_side_offset(side, offset)
    if side == "pr":
        return 1.0 - (2.0 / 3.0) * ell * (
            -6.0 * ell**2
            - 6.0 * (ell**2 - 1.0) * ell * math.log(ell / (ell + 1.0))
            + 3.0 * ell
            + 4.0
        )
    return (2.0 / 3.0) * ell * (
        -6.0 * ell**2
        + 6.0 * (ell**2 - 1.0) * ell * math.log(1.0 / ell + 1.0)
        + 3.0 * ell
        + 4.0
    )


def analytic_tau_pr_re_near_oracle(prior_pos: float) -> float:
    """tau(precision, recall) under pi5; lies in (0, 1/2) for every prior."""
    p = _check_prior_pos(prior_pos)
    return 1.0 - (-p**4 + 2.0 * p**4 * math.log(p) + p**2) / (
        2.0 * (1.0 - p) ** 2 * p**2
    )


def golden_section_min(f, lo: float, hi: float) -> float:
    """Bracketed 1-D minimization of a unimodal function, to a bracket narrower than 1e-9."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-9:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def brent_root(f, a: float, b: float, xtol: float) -> float:
    """A root of f in the bracket [a, b], by Brent's method (Brent 1973, ch. 4, "zeroin").

    A line-for-line port of SciPy's ``brentq.c`` with its default relative
    tolerance 4 eps and 100 iterations: it evaluates f at the same points
    and returns the same float as ``scipy.optimize.brentq(f, a, b,
    xtol=xtol)``.  ValueError when f(a) and f(b) have the same sign,
    RuntimeError when 100 iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * sys.float_info.epsilon * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # in C an infinite or NaN step, which the test below rejects
                stry = math.inf
            # C's MIN(x, y) is x < y ? x : y, which differs from min() at NaN
            shortest = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < shortest:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur!r}")


_ANALYTIC_TAU = {
    "pi3": analytic_tau_fixed_priors,
    "pi4": analytic_tau_above_no_skill,
}


def _analytic_tau(family: str):
    """The closed-form tau of pi3 or pi4; any other family is an error."""
    try:
        return _ANALYTIC_TAU[family]
    except KeyError:
        raise ValueError(f"family must be pi3 or pi4, got {family!r}") from None


def optimal_vertex_offset(family: str) -> float:
    """The vertex offset minimizing the Frechet variance under pi3 or pi4.

    Roughly 0.61585 for pi3 and 0.48 for pi4; at the optimum the two
    correlation sides are equal.
    """
    tau = _analytic_tau(family)

    def variance(ell: float) -> float:
        d1 = (1.0 - tau("pr", ell)) / 2.0
        d2 = (1.0 - tau("re", ell)) / 2.0
        return d1 * d1 + d2 * d2

    return golden_section_min(variance, 1e-4, 10.0)


def f1_equidistance_prior(family: str) -> float:
    """The prior at which the balanced F-score equalizes both correlation sides, under pi3 or pi4."""
    tau = _analytic_tau(family)

    def gap(p: float) -> float:
        off = p / (1.0 - p)  # the balanced F-score's vertex offset at this prior
        return tau("pr", off) - tau("re", off)

    # bracket kept well inside (0, 1): the closed forms cancel badly for
    # extreme vertex offsets, and the root is near 1/3 for both families
    return brent_root(gap, 1e-3, 1.0 - 1e-3, xtol=1e-10)


def beta_for_offset(offset: float, prior_pos: float) -> tuple[float, float]:
    """(beta^2, recall weight b) of the F-score with the given vertex offset at the given prior."""
    p = _check_prior_pos(prior_pos)
    ell = float(offset)
    if not 0.0 <= ell < math.inf:
        raise ValueError(f"offset must be finite and >= 0, got {offset!r}")
    beta_squared = ell * (1.0 - p) / p
    return beta_squared, beta_squared / (1.0 + beta_squared)


def adapted_beta(family: str, prior_pos: float) -> tuple[float, float]:
    """Prior-adapted optimal F-score under pi3 or pi4: (beta^2, recall weight b)."""
    return beta_for_offset(optimal_vertex_offset(family), prior_pos)


# ---------------------------------------------------------------------------
# Near-oracle (pi5) numerics.  No closed form is available for the
# correlations against the F-scores, so the optimal offset (at a fixed
# prior) and the prior at which offset 1 is optimal are located by
# bisection on the equidistance gap, Monte Carlo estimated with common
# random numbers so the gap is a fixed deterministic function of the
# probe during the search.
#
# On the frozen pairs each side of the gap is a count: A pairs ordered by
# the F-score against precision, B against recall.  A pair changes sides
# only at its breakpoints in the probed variable, so both searches sort
# the breakpoints once (``_SideCounts``) and count them at each probe
# instead of evaluating every pair again.  A pair with a breakpoint inside
# a band around the probe, and every ill-conditioned pair at every probe,
# is decided by the float sign expressions of a full pass
# (``_discordant``), so every probe sees exactly a full pass's counts.
# ---------------------------------------------------------------------------

# Pairs whose slope, leading coefficient or discriminant is below this in
# magnitude are decided directly at every probe: their breakpoints are
# unstable or their signs barely leave zero.  For every other pair the
# float signs of a full pass can disagree with its exact breakpoints only
# within about 1e-9 of them, far inside the kernel's band.
_ILL_CONDITIONED = 1e-5


def _pencil_sign(x1, y1, x2, y2, offset) -> np.ndarray:
    """Sign of score(point1) - score(point2) for the pencil score y / (x + offset).

    ``offset`` is a scalar or one finite offset per pair.
    """
    if np.ndim(offset) == 0 and math.isinf(offset):
        return np.sign(y1 - y2)
    return np.sign(y1 * (x2 + offset) - y2 * (x1 + offset))


def _check_pencil_offset(name: str, offset: float) -> float:
    """A pencil score's vertex offset: > 0, or +inf for recall itself."""
    ell = float(offset)
    if not ell > 0:
        raise ValueError(f"{name} must be > 0 or inf, got {offset!r}")
    return ell


def _near_oracle_uniforms(n_pairs: int, seed: int) -> np.ndarray:
    """The frozen pairs' uniforms as one (4, n_pairs) array, rows (ux, uy, vx, vy).

    Row-major filling makes the rows the generator's first four runs of
    n_pairs draws, in order.
    """
    return _generator(seed).uniform(0.0, 1.0, (4, n_pairs))


def _near_oracle_points(uniforms, prior_pos: float):
    """ROC points (x1, y1, x2, y2) of the frozen pairs at a prior, under pi5."""
    ux, uy, vx, vy = uniforms
    return (*_near_oracle_roc(ux, uy, prior_pos), *_near_oracle_roc(vx, vy, prior_pos))


def _discordant(points, offset) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair flags (in A, in B): the pencil score orders it against precision, recall."""
    x1, y1, x2, y2 = points
    s_pr = _pencil_sign(x1, y1, x2, y2, 0.0)
    s_re = np.sign(y1 - y2)
    s_f = _pencil_sign(x1, y1, x2, y2, offset)
    return (s_pr < 0) & (s_f > 0), (s_f < 0) & (s_re > 0)


def _tau(discordant, n_pairs: int) -> float:
    return float(1.0 - 4.0 * (discordant / n_pairs))


def _near_oracle_sides(uniforms, prior_pos: float, offset: float) -> tuple[float, float]:
    """(tau(Pr, F), tau(F, Re)) under pi5 on frozen uniform draws, counted ``_BLOCK`` pairs at a time."""
    n = uniforms.shape[1]
    a = b = 0
    for first in range(0, n, _BLOCK):
        points = _near_oracle_points(uniforms[:, first:first + _BLOCK], prior_pos)
        in_a, in_b = _discordant(points, offset)
        a += np.count_nonzero(in_a)
        b += np.count_nonzero(in_b)
    return _tau(a, n), _tau(b, n)


def _near_oracle_gap(counts, n_pairs: int) -> float:
    """tau(Pr, F) - tau(F, Re) from the discordant counts [A, B]."""
    return _tau(counts[0], n_pairs) - _tau(counts[1], n_pairs)


def _offset_counts(uniforms, prior_pos: float, lo: float, hi: float) -> _SideCounts:
    """[A, B] at any vertex offset in (lo, hi), at a fixed prior.

    Only a pair with s_pr < 0 < s_re is ever counted.  Its F order flips
    once, at ell = (y2 x1 - y1 x2) / (y1 - y2): below it the pair is in B,
    above it in A.  The sample median of these crossings equalizes the
    sides, which is the median theorem at the level of pairs.  The
    breakpoints are built ``_BLOCK`` pairs at a time.
    """

    def block(first):
        window = slice(first, first + _BLOCK)
        x1, y1, x2, y2 = _near_oracle_points(uniforms[:, window], prior_pos)
        slope = y1 - y2
        irregular = first + np.flatnonzero(np.abs(slope) < _ILL_CONDITIONED)
        live = np.flatnonzero((slope >= _ILL_CONDITIONED) & (_pencil_sign(x1, y1, x2, y2, 0.0) < 0))
        ell = (y2[live] * x1[live] - y1[live] * x2[live]) / slope[live]
        passed = ell <= 0
        start = np.stack([passed, ~passed]).astype(np.int8)
        jumps = np.broadcast_to(np.array([[1], [-1]], np.int8), start.shape)
        return irregular, (first + live).astype(np.int32), start, [(ell, jumps)]

    def direct(probes, k, ids):
        points = _near_oracle_points(uniforms[:, ids], prior_pos)
        return _discordant(points, probes[k])

    # each block's temporaries are freed before the next block is built
    return _SideCounts(direct, map(block, range(0, uniforms.shape[1], _BLOCK)), lo, hi)


def _prior_counts(uniforms, lo: float, hi: float) -> _SideCounts:
    """[A, B] at any prior in (lo, hi), for the offset-1 (skew-insensitive) score.

    With a = vx - ux, b = uy vx - vy ux and c = uy - vy, the precision and
    F orders of a pair at prior p are the signs of g(p) = b + (a - b) p and
    h(p) = p g(p) + (1 - p) c, and recall's is the sign of c.  So
    A = [g < 0 < h] and B = [h < 0 < c], and only pairs with c > 0 count.
    Their breakpoints are the root of g and the real roots of h.  In (0, 1)
    g < 0 at every root of h and h > 0 at the root of g, so each root's
    jump follows from the sign of a - b alone, and the roots come in the
    order r1 < r2 < root of g when a - b > 0, and the reverse when not.
    The breakpoints are built ``_BLOCK`` pairs at a time.
    """

    def block(first):
        window = slice(first, first + _BLOCK)
        ids = first + np.flatnonzero(uniforms[1, window] - uniforms[3, window] > -_ILL_CONDITIONED)
        ids = ids.astype(np.int32)
        ux, uy, vx, vy = uniforms[:, ids]
        c = uy - vy
        b = uy * vx - vy * ux
        lead = (vx - ux) - b
        del ux, uy, vx, vy  # the block's temporaries are freed as soon as they are used
        q = b - c
        disc = q * q - 4.0 * lead * c
        ill = (
            (c < _ILL_CONDITIONED)
            | (np.abs(lead) < _ILL_CONDITIONED)
            | (np.abs(disc) < _ILL_CONDITIONED)
        )
        lead[ill] = np.nan  # no breakpoints: these pairs are decided directly
        with np.errstate(invalid="ignore", divide="ignore"):
            w = -0.5 * (q + np.copysign(np.sqrt(disc), q))  # NaN without real roots
            del q, disc
            r1, r2 = w / lead, c / w
            r1, r2 = np.minimum(r1, r2), np.maximum(r1, r2)
            g_root = -b / lead
            up = lead > 0
        del w, b, c, lead
        sign = np.where(up, 1, -1).astype(np.int8)
        start = np.stack([(g_root > 0) == up, np.zeros_like(up)]).astype(np.int8)
        start[:, ill] = 0
        at_g = np.stack([-sign, np.zeros_like(sign)])
        at_r1 = np.stack([-sign, sign])
        at_r2 = -at_r1
        slots = [
            (np.where(up, r1, g_root), np.where(up, at_r1, at_g)),
            (np.where(up, r2, r1), np.where(up, at_r2, at_r1)),
            (np.where(up, g_root, r2), np.where(up, at_g, at_r2)),
        ]
        return ids[ill], ids, start, slots

    def direct(probes, k, ids):
        return _discordant(_near_oracle_points(uniforms[:, ids], probes[k]), 1.0)

    # each block's temporaries are freed before the next block is built
    return _SideCounts(direct, map(block, range(0, uniforms.shape[1], _BLOCK)), lo, hi)


def mc_tau_sides_near_oracle(
    prior_pos: float, offset: float, n_pairs: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo (tau(Pr, F), tau(F, Re)) under pi5 for a pencil score."""
    p = _check_prior_pos(prior_pos)
    offset = _check_pencil_offset("offset", offset)
    _check_n_pairs(n_pairs)
    return _near_oracle_sides(_near_oracle_uniforms(n_pairs, seed), p, offset)


def mc_optimal_vertex_offset_near_oracle(
    prior_pos: float, n_pairs: int = 10**6, seed: int = 0
) -> float:
    """Vertex offset equalizing the two correlation sides under pi5."""
    p = _check_prior_pos(prior_pos)
    _check_n_pairs(n_pairs)
    lo, hi = 1e-4, 100.0
    counts = _offset_counts(_near_oracle_uniforms(n_pairs, seed), p, lo, hi)
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _near_oracle_gap(counts(mid), n_pairs) > 0:
            lo = mid  # too close to precision: increase the offset
        else:
            hi = mid
    return math.sqrt(lo * hi)


def mc_pencil_optimality(
    family: str,
    candidate_offset: float,
    n_pairs: int = 10**6,
    seed: int = 0,
) -> float:
    """Degree of optimality of a pencil score under pi3 or pi4, by pair classification.

    Draws the pairs' ROC points (x1, y1, x2, y2) as the rows of one
    (4, n_pairs) uniform array, redraws pi4's points below the diagonal,
    keeps the pairs on which precision (offset 0) and recall (offset inf)
    contradict each other, and returns the fraction the candidate orders
    like the optimal tradeoff, the family's ``optimal_vertex_offset``.
    The ROC geometry of pi3/pi4 does not depend on the prior, so neither
    does the result.
    """
    _analytic_tau(family)  # rejects families other than pi3 and pi4
    candidate_offset = _check_pencil_offset("candidate_offset", candidate_offset)
    _check_n_pairs(n_pairs)
    rng = _generator(seed)
    points = rng.uniform(0.0, 1.0, (4, n_pairs))  # rows (x1, y1, x2, y2)
    if family == "pi4":
        _redraw_below_diagonal(rng, points[0], points[1])
        _redraw_below_diagonal(rng, points[2], points[3])
    s_pr, s_re, s_cand, s_star = (
        _pencil_sign(*points, offset)
        for offset in (0.0, math.inf, candidate_offset, optimal_vertex_offset(family))
    )
    contradictory = s_pr * s_re < 0
    good = int((contradictory & (s_cand * s_star > 0)).sum())
    bad_ = int((contradictory & (s_cand * s_star < 0)).sum())
    if good + bad_ == 0:
        raise RedrawLimitError("no contradictory pairs drawn")
    return good / (good + bad_)


def sivf_equidistance_prior_near_oracle(n_pairs: int = 10**6, seed: int = 0) -> float:
    """The positive prior at which the skew-insensitive F-score is the pi5 optimum.

    The skew-insensitive score has vertex offset 1 at every prior; this
    finds the prior whose optimal offset is 1 (about 0.561).
    """
    _check_n_pairs(n_pairs)
    lo, hi = 0.05, 0.95
    counts = _prior_counts(_near_oracle_uniforms(n_pairs, seed), lo, hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _near_oracle_gap(counts(mid), n_pairs) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
