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

Independent pieces of work go through ``_map_concurrently``: the calling
thread and helper threads, one fewer than the CPUs the process may use,
take them from a shared queue in the order given.  A direct
``mc_kendall_tau`` call maps its own blocks; each study in ``studies``
puts all its pieces (every block of every tau, every replicate, every
near-oracle search and pass) in one map, the longest first.  Each map
starts its own helpers and joins them before it returns, so no thread
outlives a map and none starts at import.  Each piece returns its own
result, or the exception it raised, and the caller combines them in
piece order, raising the first exception in that order.  So every
number, and every error, is the same whatever the number of threads,
and nothing sets it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .scores import ScoreFunction, TIE_TOL, _check_prior_pos, roc_columns, score_columns

FAMILIES = ("pi1", "pi2", "pi3", "pi4", "pi5")

_BLOCK = 1 << 16  # pairs per Monte Carlo block
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


def _redraw(rng: np.random.Generator, x: np.ndarray, y: np.ndarray, rejected, fresh=lambda u, v: (u, v)) -> None:
    """A rejection step, in place: (x, y) = fresh(u, v) of new uniforms wherever rejected(x, y).

    Each round draws the u block, then the v block, for the still-rejected
    points in ascending order, as a full-mask assignment does; a point left
    in place is never rejected later, so a round rescans only its redraws.
    """
    idx = np.flatnonzero(rejected(x, y))
    while idx.size:
        x[idx], y[idx] = fresh(rng.uniform(0.0, 1.0, idx.size), rng.uniform(0.0, 1.0, idx.size))
        idx = idx[rejected(x[idx], y[idx])]


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
        _redraw(rng, fpr, tpr, np.greater)  # below the diagonal: fpr > tpr
    elif fam == "pi5":
        fpr, tpr = _near_oracle_roc(fpr, tpr, p)
        # strict fpr < prior < tpr: float rounding can touch the edges
        _redraw(rng, fpr, tpr, lambda x, y: (x >= p) | (y <= p), lambda u, v: _near_oracle_roc(u, v, p))
    return roc_columns(fpr, tpr, p)


def sample_parts(spec: DistributionSpec, seed: int, count: int) -> np.ndarray:
    """(count, 4) array of draws; deterministic for a given (spec, seed)."""
    if operator.index(count) < 1:  # a float raises here, not inside NumPy
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


def _map_concurrently(*groups: list) -> list[list]:
    """Each group's results, in order: its zero-argument pieces, called by this thread and its own helpers.

    The caller and up to ``_usable_cpus() - 1`` helper threads, started
    for this map and joined before it returns or raises, take the pieces
    from one shared queue in the order given, so callers give the longest
    first: then no long piece starts last while the other threads idle.
    A piece that raises an ``Exception`` returns it in place of its
    result and every other piece still runs; ``_ok`` raises it where the
    caller combines that piece.  Any other ``BaseException`` (say
    ``KeyboardInterrupt``) stops the queue and is raised once every
    thread has finished its piece.
    """
    pieces = [piece for group in groups for piece in group]
    results = [None] * len(pieces)
    queue = iter(range(len(pieces)))
    queue_lock = threading.Lock()
    stops: list[BaseException] = []  # the first one stops the queue

    def drain() -> None:
        try:
            while not stops:
                with queue_lock:
                    i = next(queue, None)
                if i is None:
                    return
                try:
                    results[i] = pieces[i]()
                except Exception as exc:  # raised again, in the caller's order, by _ok
                    results[i] = exc
        except BaseException as exc:
            stops.append(exc)

    helpers = min(len(pieces), _usable_cpus()) - 1
    threads = [threading.Thread(target=drain, name="prtradeoff") for _ in range(helpers)]
    for thread in threads:
        thread.start()
    drain()  # a caller that only waited would cost one more thread and malloc arena
    for thread in threads:
        thread.join()
    if stops:
        raise stops[0]
    in_order = iter(results)
    return [list(itertools.islice(in_order, len(group))) for group in groups]


def _ok(result):
    """A piece's result, or the exception it returned, raised."""
    if isinstance(result, Exception):
        raise result
    return result


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


def _tau_blocks(spec, score1, score2, n_pairs: int, seed: int) -> list:
    """The pieces of one ``mc_kendall_tau`` estimate: one call per block, returning its counts."""
    _check_n_pairs(n_pairs)
    return [
        functools.partial(_block_counts, spec, score1, score2, n_pairs, seed, block)
        for block in range(-(-n_pairs // _BLOCK))
    ]


def _tau_estimate(per_block, n_pairs: int, seed: int) -> McEstimate:
    """The estimate from its blocks' (discordant, redrawn) counts, after the redraw guard.

    A block's exception, returned by ``_map_concurrently``, is raised here,
    the first in block order.
    """
    counts = [_ok(r) for r in per_block]
    discordant = sum(d for d, _ in counts)
    redrawn = sum(r for _, r in counts)
    if redrawn > _REDRAW_FRACTION * n_pairs:
        raise RedrawLimitError(f"{redrawn} of {n_pairs} pairs needed redrawing")
    p_hat = discordant / n_pairs
    half_width = 1.96 * 4.0 * math.sqrt(p_hat * (1.0 - p_hat) / n_pairs)
    return McEstimate(1.0 - 4.0 * p_hat, half_width, n_pairs, seed, redrawn)


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
    summed, and a failing block's error is raised in block order, so
    neither the estimate nor the error depends on the number of threads.
    """
    [per_block] = _map_concurrently(_tau_blocks(spec, score1, score2, n_pairs, seed))
    return _tau_estimate(per_block, n_pairs, seed)


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
    """The vertex offset at which the two correlation sides are equal under pi3 or pi4.

    Under both families the sides sum to a constant (3/2 and 1), so this
    root of the gap tau("pr", ell) - tau("re", ell) is also the offset
    minimizing the Frechet variance: roughly 0.61585 for pi3 and 0.48042
    for pi4.  Found by float bisection over [1e-4, 10], where the gap is
    positive at the lower end and negative at the upper one; it stops
    when the midpoint equals an end, so the gap changes sign between the
    result and one of its float neighbours.
    """
    tau = _analytic_tau(family)
    lo, hi = 1e-4, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if tau("pr", mid) - tau("re", mid) > 0:
            lo = mid
        else:
            hi = mid


def f1_equidistance_prior(family: str) -> float:
    """The prior at which the balanced F-score equalizes both correlation sides, under pi3 or pi4.

    The balanced F-score's vertex offset at prior p is p / (1 - p), so
    this is ell / (1 + ell) of the family's ``optimal_vertex_offset`` ell.
    """
    ell = optimal_vertex_offset(family)
    return ell / (1.0 + ell)


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
# correlations against the F-scores, so they are Monte Carlo estimated
# on frozen pairs, and each side of the equidistance gap is a count: A
# pairs ordered by the F-score against precision, B against recall.  At
# a fixed prior every counted pair flips sides once, at its crossing
# offset, so the optimal offset is the median of the crossings
# (``mc_optimal_vertex_offset_near_oracle``).  The prior at which offset
# 1 is optimal is located by bisection on the gap, with common random
# numbers so the gap is a fixed deterministic function of the probe
# during the search.
#
# A pair changes sides only at its breakpoints in the prior, and every
# later probe of the bisection lies inside the current bracket.  So each
# step splits the pairs still live (``_split_prior``): a pair without a
# breakpoint in the bracket, widened by ``2 _BAND (1 + end)``, keeps one
# state over it, adds that state to a fixed base and is never read
# again.  The live pairs, and every ill-conditioned pair, are decided at
# the probe by the float sign expressions of a full pass
# (``_discordant``), so every probe sees exactly a full pass's counts.
#
# The frozen pairs are the columns of one (4, n) array of uniform draws,
# but no search holds it: the median and the first bisection step read
# it ``_WINDOW`` pairs at a time from the Philox stream
# (``_near_oracle_window``), and each later step reads only the uniforms
# of the pairs the step before kept live.
# ---------------------------------------------------------------------------

# Each bisection step widens its bracket end x by 2 _BAND (1 + x) before
# it splits the pairs, so a pair whose breakpoint lies just outside the
# bracket stays live and is decided directly at the probe.  The band sets
# only how much work goes to those direct decisions, never a result.
_BAND = 1e-6
# Pairs whose c, leading coefficient or discriminant is below this in
# magnitude stay live through the whole prior search and are decided
# directly at every probe: their breakpoints are unstable or their signs
# barely leave zero.  For every other pair the float signs of a full
# pass can disagree with its exact breakpoints only within about 1e-9 of
# them, far inside the band by which each bracket is widened.
_ILL_CONDITIONED = 1e-5
_WINDOW = 1 << 14  # frozen pairs per window read from the stream, and per kept piece


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


def _near_oracle_window(n_pairs: int, seed: int, first: int, stop: int) -> np.ndarray:
    """Uniforms (ux, uy, vx, vy) of frozen pairs first .. stop - 1, as a (4, stop - first) array.

    The frozen pairs are the columns of ``_generator(seed).uniform(0.0,
    1.0, (4, n_pairs))``, which is never built: row r of pair i is draw
    r * n_pairs + i of that generator.  A Philox counter step makes four
    draws, so each row starts at the step holding its first draw and
    drops the draws before it.  ``random`` draws the doubles that
    ``uniform(0.0, 1.0)`` draws.  Every read of the frozen pairs comes
    through here.
    """
    out = np.empty((4, stop - first))
    for r, row in enumerate(out):
        start = r * n_pairs + first
        rng = _generator(seed, start // 4)
        rng.random(start % 4)
        rng.random(out=row)
    return out


def _near_oracle_blocks(n_pairs: int, seed: int):
    """The uniforms of each window of ``_WINDOW`` frozen pairs, in order."""
    for first in range(0, n_pairs, _WINDOW):
        yield _near_oracle_window(n_pairs, seed, first, min(first + _WINDOW, n_pairs))


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


def _popping(pieces: list):
    """The pieces, each dropped from the list as it is read."""
    while pieces:
        yield pieces.pop()


def _split_prior(u, left, right):
    """Which pairs stay live over the priors [left, right], and the (A, B) counts of the others.

    With a = vx - ux, b = uy vx - vy ux and c = uy - vy, the precision
    and F orders of a pair at prior p are the signs of g(p) = b + (a - b) p
    and h(p) = p g(p) + (1 - p) c, and recall's is the sign of c.  So
    A = [g < 0 < h] and B = [h < 0 < c], and only pairs with c > 0 count.
    Their breakpoints are the root of g and the real roots of h.  A pair
    stays live when it is ill-conditioned or has a breakpoint in [left,
    right]; every other pair has the state it has at the middle of
    [left, right] over the whole of it.
    """
    ux, uy, vx, vy = u
    c = uy - vy
    b = uy * vx - vy * ux
    lead = (vx - ux) - b
    q = b - c
    disc = q * q - 4.0 * lead * c
    keep = (np.abs(c) < _ILL_CONDITIONED) | (np.abs(lead) < _ILL_CONDITIONED)
    keep |= np.abs(disc) < _ILL_CONDITIONED
    with np.errstate(invalid="ignore", divide="ignore"):
        w = -0.5 * (q + np.copysign(np.sqrt(disc), q))  # NaN without real roots
        for root in (-b / lead, w / lead, c / w):
            keep |= (root >= left) & (root <= right)
    keep &= c > -_ILL_CONDITIONED
    mid = 0.5 * (left + right)
    g = b + lead * mid
    h = mid * g + (1.0 - mid) * c
    in_a = ~keep & (g < 0) & (h > 0)
    in_b = ~keep & (h < 0) & (c > 0)
    return keep, (np.count_nonzero(in_a), np.count_nonzero(in_b))


def mc_tau_sides_near_oracle(
    prior_pos: float, offset: float, n_pairs: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo (tau(Pr, F), tau(F, Re)) under pi5 for a pencil score.

    The frozen pairs are read and counted ``_WINDOW`` pairs at a time.
    """
    p = _check_prior_pos(prior_pos)
    offset = _check_pencil_offset("offset", offset)
    _check_n_pairs(n_pairs)
    a = b = 0
    for uniforms in _near_oracle_blocks(n_pairs, seed):
        in_a, in_b = _discordant(_near_oracle_points(uniforms, p), offset)
        a += np.count_nonzero(in_a)
        b += np.count_nonzero(in_b)
    return _tau(a, n_pairs), _tau(b, n_pairs)


def mc_optimal_vertex_offset_near_oracle(
    prior_pos: float, n_pairs: int = 10**6, seed: int = 0
) -> float:
    """Vertex offset equalizing the two correlation sides under pi5: the median of the pairs' crossings.

    Only a pair with s_pr < 0 < s_re is ever counted.  Its F order flips
    once, at ell = (y2 x1 - y1 x2) / (y1 - y2): below it the pair is in B,
    above it in A.  So the sample median of these crossings equalizes the
    sides, which is the median theorem at the level of pairs.  It is taken
    as ``CrossingSummary.beta_star_squared`` takes it: the middle
    crossing, or the mean of the two middle ones.  ValueError when no
    sampled pair is counted.
    """
    p = _check_prior_pos(prior_pos)
    _check_n_pairs(n_pairs)
    pool = []
    for u in _near_oracle_blocks(n_pairs, seed):
        x1, y1, x2, y2 = points = _near_oracle_points(u, p)
        counted = (y1 > y2) & (_pencil_sign(x1, y1, x2, y2, 0.0) < 0)
        x1, y1, x2, y2 = np.compress(counted, points, axis=1)
        pool.append((y2 * x1 - y1 * x2) / (y1 - y2))
    crossings = np.concatenate(pool)
    m = len(crossings)
    if not m:
        raise ValueError(
            f"precision and recall order none of the {n_pairs} sampled pairs oppositely; sample more pairs"
        )
    crossings.partition([(m - 1) // 2, m // 2])
    lo, hi = float(crossings[(m - 1) // 2]), float(crossings[m // 2])
    return lo if m % 2 else (lo + hi) / 2


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
    does the result.  ValueError when no sampled pair is kept.
    """
    _analytic_tau(family)  # rejects families other than pi3 and pi4
    candidate_offset = _check_pencil_offset("candidate_offset", candidate_offset)
    _check_n_pairs(n_pairs)
    optimum = optimal_vertex_offset(family)
    rng = _generator(seed)
    points = rng.uniform(0.0, 1.0, (4, n_pairs))  # rows (x1, y1, x2, y2)
    if family == "pi4":
        _redraw(rng, points[0], points[1], np.greater)  # below the diagonal: x > y
        _redraw(rng, points[2], points[3], np.greater)
    # two sign arrays at a time: the mask, then the product, then free the points
    contradictory = _pencil_sign(*points, 0.0) * _pencil_sign(*points, math.inf) < 0
    agreement = _pencil_sign(*points, candidate_offset) * _pencil_sign(*points, optimum)
    del points
    good = int((contradictory & (agreement > 0)).sum())
    bad_ = int((contradictory & (agreement < 0)).sum())
    if good + bad_ == 0:
        raise ValueError(
            f"precision and recall order none of the {n_pairs} sampled pairs oppositely; sample more pairs"
        )
    return good / (good + bad_)


def sivf_equidistance_prior_near_oracle(n_pairs: int = 10**6, seed: int = 0) -> float:
    """The positive prior at which the skew-insensitive F-score is the pi5 optimum.

    The skew-insensitive score has vertex offset 1 at every prior; this
    finds the prior whose optimal offset is 1 (about 0.561), by 50 steps
    of bisection on the equidistance gap over [0.05, 0.95]: a positive
    gap lowers the upper end.  Each step reads only the pairs still live
    (``_split_prior``).  The first step reads them from the stream, each
    later one the live pieces the step before kept, merged into pieces of
    at least ``_WINDOW`` pairs.  ValueError when the gap keeps one sign
    over the whole bracket, so that one end never moves.
    """
    _check_n_pairs(n_pairs)
    lo, hi = 0.05, 0.95
    base = np.zeros(2, np.int64)
    pieces = _near_oracle_blocks(n_pairs, seed)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        left, right = lo - 2.0 * _BAND * (1.0 + lo), hi + 2.0 * _BAND * (1.0 + hi)
        live = np.zeros(2, np.int64)
        kept, held, size = [], [], 0
        for u in pieces:
            keep, leaving = _split_prior(u, left, right)
            base += leaving
            u = np.compress(keep, u, axis=1)
            live += [np.count_nonzero(flags) for flags in _discordant(_near_oracle_points(u, mid), 1.0)]
            held.append(u)
            size += u.shape[1]
            if size >= _WINDOW:
                kept.append(np.concatenate(held, axis=1))
                held, size = [], 0
        if held:
            kept.append(np.concatenate(held, axis=1))
        pieces = _popping(kept)
        a, b = (base + live).tolist()
        if _tau(a, n_pairs) - _tau(b, n_pairs) > 0:
            hi = mid
        else:
            lo = mid
    if lo == 0.05 or hi == 0.95:
        raise ValueError(
            "the equidistance gap keeps one sign over the bracket [0.05, 0.95] "
            f"on {n_pairs} sampled pairs; sample more pairs"
        )
    return 0.5 * (lo + hi)
