"""Stationary densities, importance pools, scores and the singular composition.

The selected stationary density is the neutral Dirichlet tilted by
``exp(-x' S x)`` and renormalized by the neutral expectation
``E[exp(-X' S X)]``.  That expectation has no usable closed form, so every
quantity that needs it (normalizer, mean homozygosity under selection,
homozygosity CDF, likelihood, scores) is estimated by self-normalized
importance sampling on an immutable ``WeightedPool`` of Dirichlet proposal
draws.  Because one pool serves all selection intensities, the estimated
curves are smooth and exactly monotone in sigma for a fixed seed, which is
what makes the root-finders in the inference layer deterministic and
bracketing-safe.

All weight arithmetic is carried in log space with max-shift before
exponentiation: the tilt exp(-sigma * h) spans hundreds of orders of
magnitude at the intensities this package is asked to explore.  Every
estimate at a scalar intensity reduces one weight step, ``_weights``, in
one of four passes: the full pass (``_pass``, behind ``tilt``) returns the
log weight total, the tilted mean of h, its derivative in sigma and the
effective sample size; the tangent pass (``_log_z_tangent``) returns the
same log weight total with the means of s and h; the surface pass
(``_surface``) returns the moments of (s, h) at a mutation rate; and the
CDF pass (``_cdf_logit``, behind ``cdf_homozygosity``) returns the
weighted fraction at or below an h, with its logit and slope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Homozygosity,
    MutationParams,
    SelectionModel,
    SimplexPoint,
    _dirichlet,
    _gammaln,
    _row_sums,
    derive_rng,
    quadratic_form,
)

__all__ = [
    "WeightedPool",
    "Tilt",
    "OptimalComposition",
    "neutral_log_density",
    "build_pool",
    "build_mixture_pool",
    "pool_for_sigma_range",
    "tilt",
    "log_normalizer",
    "log_likelihood",
    "g_sigma",
    "score_general",
    "cdf_homozygosity",
    "optimal_composition",
    "weighted_quantile",
    "DEFAULT_ESS_FLOOR",
    "MIN_SUPPORT",
]

DEFAULT_ESS_FLOOR = 200.0
# Data within the h-range of a pool's MIN_SUPPORT most extreme draws is
# classified unbounded: an estimate hanging on a handful of draws is the
# singularity showing through, not a number.
MIN_SUPPORT = 10

# Beyond this sigma a single proposal at a = theta/k starves; a defensive
# mixture of concentrations keeps draws in the near-centroid region the
# tilted target concentrates on.
MIXTURE_SIGMA_THRESHOLD = 200.0
DEFENSIVE_CONCENTRATIONS = (2.0, 8.0)
# Below this (negative) sigma the dominant region flips to near-vertex
# populations; a sub-1 concentration supplies them.
NEGATIVE_MIXTURE_THRESHOLD = 30.0
VERTEX_CONCENTRATION = 0.4
# optimal_composition's random interior starts (drawn from seed 0), iterations
# per start and the projected-gradient norm at which a start stops.
COMPOSITION_RANDOM_STARTS = 10
COMPOSITION_MAX_ITER = 10_000
COMPOSITION_GRAD_TOL = 1e-10

_CHUNK = 1 << 14

# The smallest max-shifted log-weight a pass exponentiates, log(2**-1020).
# NumPy's vectorized exp leaves its fast path for results below 2**-1021:
# on an AVX-512 Xeon, 100k arguments at -708 took 1.7 ms, arguments with
# subnormal results 12-19 ms and arguments below -745 1.7 ms, against
# 0.08 ms at -707.  A weight this far below the largest (which is 1) cannot
# move any sum a pass reports, so lower log-weights get weight 0 instead.
_LOG_WEIGHT_FLOOR = math.log(2.0**-1020)


@dataclass(frozen=True, eq=False)
class OptimalComposition:
    """Minimizer of the selection quadratic form over the closed simplex.

    This is the composition carrying the strongest possible signal for the
    given selection scheme; the likelihood in the intensity parameters is
    unbounded there.  ``boundary`` flags a minimizer with (numerically) zero
    entries, which lies outside the interior support of the density but is
    still the correct signal-maximizing limit.
    """

    point: np.ndarray
    value: float
    boundary: bool


@dataclass(frozen=True, eq=False)
class WeightedPool:
    """An immutable set of Dirichlet proposal draws with reusable weights.

    Per draw we keep the homozygosity ``h``, the log-frequency sum ``s``
    (the sufficient statistic for reweighting to any symmetric mutation
    rate), the base log-weight ``b`` = log(neutral density / proposal
    density), and the proposal log-density itself.  Draw vectors are kept
    only when requested; scalar-overdominance queries never need them.

    Construction uses fixed-size per-chunk substreams derived from the seed,
    so contents are identical however the chunks are scheduled.  All query
    operations are pure; a pool can be shared freely across threads.
    """

    h: np.ndarray
    s: np.ndarray
    b: np.ndarray
    proposal_log_density: np.ndarray
    draws: np.ndarray | None
    theta: MutationParams
    concentrations: tuple[float, ...]
    component_counts: tuple[int, ...]
    seed: int
    n: int
    k: int
    h_min: float
    h_max: float

    def reweighted(self, theta: MutationParams) -> WeightedPool:
        """The pool as a pool of draws for another mutation parameter.

        The view shares ``h``, ``s``, the proposal log-density and ``draws``
        with this pool, and has its own base log-weights and ``theta``.
        Symmetric targets need only the stored sufficient statistic; general
        per-allele targets need the retained draws.
        """
        if theta == self.theta:
            return self
        if theta.k != self.k:
            raise ValueError(f"pool has k={self.k}, target has k={theta.k}")
        if theta.mode != "symmetric" and self.draws is None:
            raise ValueError("general per-allele reweighting requires a pool built with keep_draws=True")
        return replace(self, b=_base_log_weights(theta, self.s, self.draws, self.proposal_log_density), theta=theta)

    @functools.cached_property
    def support_margin(self) -> tuple[float, float]:
        """Width of the pool's lowest/highest ``MIN_SUPPORT`` homozygosities.

        Estimates inside these fringes hang on a handful of draws; the MLE
        solver classifies them as unbounded rather than reporting a number.
        Computed on first use: pools that serve only CDF passes never pay
        for the partition.
        """
        j = min(MIN_SUPPORT, self.n) - 1
        part = np.partition(self.h, (j, self.n - 1 - j))
        return float(part[j] - self.h_min), float(self.h_max - part[self.n - 1 - j])


def _dirichlet_logconst(alphas: np.ndarray) -> float:
    return float(_gammaln(alphas.sum()) - _gammaln(alphas).sum())


def _base_log_weights(theta: MutationParams, s: np.ndarray, draws: np.ndarray | None, pld: np.ndarray) -> np.ndarray:
    """log(neutral density / proposal density) at each draw, for the target ``theta``.

    Symmetric targets need only the log-frequency sums ``s``; general
    per-allele targets need the draws.
    """
    if theta.mode == "symmetric":
        a = theta.total / theta.k
        # A Python float: a NumPy-scalar constant makes the array
        # arithmetic below markedly slower.
        const = float(_gammaln(theta.total) - theta.k * _gammaln(a))
        return const + (a - 1.0) * s - pld
    alphas = theta.alphas()
    return _dirichlet_logconst(alphas) + np.log(draws) @ (alphas - 1.0) - pld


def neutral_log_density(x: SimplexPoint, theta: MutationParams) -> float:
    """Log of the neutral Dirichlet stationary density at an interior point."""
    if theta.k != x.k:
        raise ValueError(f"mutation parameters have k={theta.k}, data has k={x.k}")
    alphas = theta.alphas()
    logx = np.log(x.as_array())
    return _dirichlet_logconst(alphas) + float((alphas - 1.0) @ logx)


def _draw_component(a: float, count: int, k: int, seed: int, component: int) -> np.ndarray:
    """Dirichlet(a, ..., a) draws in fixed chunks of per-chunk substreams."""
    out = np.empty((count, k), dtype=np.float64)
    for chunk_index, pos in enumerate(range(0, count, _CHUNK)):
        size = min(_CHUNK, count - pos)
        out[pos : pos + size] = _dirichlet(np.full(k, a), size, derive_rng(seed, component, chunk_index))
    return out


def _logsumexp_rows(parts: np.ndarray) -> np.ndarray:
    """log(sum(exp(parts), axis=0)) by scipy.special.logsumexp's steps, in its order.

    This is the package's one log-sum-exp (SciPy is only its test oracle);
    a single vector ``v`` goes in as the column ``v[:, None]``.  The
    largest entries of each column are taken out of the sum and their
    count divided out, so for finite input the result has scipy's bits,
    without its array-API dispatch and its direct exp-sum fallback for
    infinite results.  The largest entries are zeroed after exp, not set
    to -inf before it: exp(-inf) takes NumPy's slow path.  Where no column
    has two largest entries, every count is 1, and dividing by it and
    adding its log change no bit, so both steps are skipped.
    """
    top = parts.max(axis=0)
    tied = parts == top
    rest = np.subtract(parts, top)
    np.exp(rest, out=rest)
    rest *= ~tied
    s = rest.sum(axis=0)
    if np.count_nonzero(tied) == tied.shape[1]:
        return np.log1p(s) + top
    ties = tied.sum(axis=0, dtype=np.float64)
    s = np.where(s == 0, s, s / ties)
    return np.log1p(s) + np.log(ties) + top


def build_mixture_pool(
    theta: MutationParams,
    concentrations: tuple[float, ...],
    n: int = 100_000,
    seed: int = 0,
    keep_draws: bool = True,
) -> WeightedPool:
    """Build a defensive-mixture pool, combined by mixture importance weighting.

    Draws are split evenly over the concentrations and weighted against the
    full mixture proposal density, so a single pool stays usable across the
    whole intensity range its components jointly cover.

    Each component's draws give h by ``np.einsum`` along their rows and s
    by ``core._row_sums`` of their logs, which adds columns in the order of
    NumPy's row sum; both go straight into the pool's arrays.  A
    component's draws are copied into one (n, k) array when the pool keeps
    them (``keep_draws``) or a general per-allele target needs them for its
    base log-weights, and are freed before the next component is drawn.
    """
    if len(concentrations) < 1:
        raise ValueError("need at least one concentration")
    concentrations = tuple(float(a) for a in concentrations)
    if n < 1:
        raise ValueError("pool size must be at least 1")
    k = theta.k
    m = len(concentrations)
    counts = [n // m + (1 if i < n % m else 0) for i in range(m)]
    h = np.empty(n)
    s = np.empty(n)
    # The general-target base weights read the draws even when the pool keeps none.
    draws = np.empty((n, k)) if keep_draws or theta.mode != "symmetric" else None
    pos = 0
    for ci, (a, count) in enumerate(zip(concentrations, counts)):
        if a <= 0:
            raise ValueError("proposal concentrations must be positive")
        if count == 0:
            continue
        x = _draw_component(a, count, k, seed, ci)
        np.einsum("ij,ij->i", x, x, out=h[pos : pos + count])
        s[pos : pos + count] = _row_sums(np.log(x))
        if draws is not None:
            draws[pos : pos + count] = x
        pos += count
        del x  # freed before the next component is drawn

    # Components left without draws (n below their number) have mixture weight 0.
    drawn = [(a, count) for a, count in zip(concentrations, counts) if count]
    parts = np.empty((len(drawn), n), dtype=np.float64)
    for ci, (a, count) in enumerate(drawn):
        parts[ci] = math.log(count / n) + _dirichlet_logconst(np.full(k, a)) + (a - 1.0) * s
    pld = _logsumexp_rows(parts)

    if m == 1 and theta.mode == "symmetric" and concentrations[0] == theta.total / theta.k:
        b = np.zeros(n, dtype=np.float64)
    else:
        b = _base_log_weights(theta, s, draws, pld)
    if not np.all(np.isfinite(b)):
        raise FloatingPointError("non-finite base log-weight in pool construction")

    return WeightedPool(
        h=h,
        s=s,
        b=b,
        proposal_log_density=pld,
        draws=draws if keep_draws else None,
        theta=theta,
        concentrations=concentrations,
        component_counts=tuple(counts),
        seed=int(seed),
        n=int(n),
        k=k,
        h_min=float(h.min()),
        h_max=float(h.max()),
    )


def build_pool(
    theta: MutationParams,
    proposal_a: float | None = None,
    n: int = 100_000,
    seed: int = 0,
    keep_draws: bool = True,
) -> WeightedPool:
    """Build a single-concentration pool.

    The default proposal concentration is the mean per-allele rate, which
    for symmetric mutation makes every base log-weight exactly zero.
    """
    if proposal_a is None:
        proposal_a = theta.total / theta.k
    return build_mixture_pool(theta, (proposal_a,), n, seed, keep_draws)


def pool_for_sigma_range(
    theta: MutationParams,
    n: int,
    seed: int,
    sigma_lo: float = 0.0,
    sigma_hi: float = 0.0,
    keep_draws: bool = False,
    centers: tuple[float, ...] | None = None,
) -> WeightedPool:
    """Pool sized to the intensity range a caller intends to query.

    It mixes ``centers``, the concentrations it is aimed at (default
    a = theta/k), with those the range needs.  Strong heterozygote advantage
    (large positive sigma) concentrates the target near the centroid, so high
    concentrations are mixed in; strong homozygote advantage (sigma well
    below zero) concentrates it near the vertices, which a sub-1
    concentration supplies.
    """
    if sigma_lo > sigma_hi:
        raise ValueError("sigma_lo must not exceed sigma_hi")
    concs = list(centers) if centers is not None else [theta.total / theta.k]
    if sigma_hi > MIXTURE_SIGMA_THRESHOLD:
        concs.extend(a for a in DEFENSIVE_CONCENTRATIONS if a not in concs)
    if sigma_lo < -NEGATIVE_MIXTURE_THRESHOLD and VERTEX_CONCENTRATION not in concs:
        concs.append(VERTEX_CONCENTRATION)
    return build_mixture_pool(theta, tuple(concs), n, seed, keep_draws)


@dataclass(frozen=True)
class Tilt:
    """One pass over a pool at one selection intensity.

    With weights w_i = exp(b_i - sigma h_i): ``log_z`` is log sum w_i (its
    difference from the value at sigma = 0 is the log-normalizer), ``g``
    the weighted mean of h, ``dg`` its derivative in sigma (minus the
    weighted variance of h) and ``ess`` (sum w)^2 / sum w^2.
    """

    log_z: float
    g: float
    dg: float
    ess: float


def _weights(base: np.ndarray, stat: np.ndarray, sigma: float) -> tuple[np.ndarray, float, int]:
    """Weights exp(base - sigma * stat - top) in a fresh array, the shift top, and its index.

    The largest weight, at the returned index, is exactly 1.  Log-weights
    below the floor get weight 0 without reaching exp's slow path; the
    array is allocated per call, so concurrent passes over one pool share
    no buffer.
    """
    lw = np.multiply(stat, -float(sigma))
    lw += base
    i_top = int(lw.argmax())
    top = float(lw[i_top])
    lw -= top
    keep = lw >= _LOG_WEIGHT_FLOOR
    if keep.all():
        np.exp(lw, out=lw)
    else:
        np.maximum(lw, _LOG_WEIGHT_FLOOR, out=lw)
        np.exp(lw, out=lw)
        lw *= keep
    return lw, top, i_top


def _check_k(h: Homozygosity, pool: WeightedPool) -> None:
    if h.k != pool.k:
        raise ValueError(f"homozygosity has k={h.k}, pool has k={pool.k}")


def _fraction_below(w_below: float, w_above: float) -> float:
    return 1.0 / (1.0 + w_above / w_below) if w_below > 0.0 else 0.0


def _cdf_masks(pool: WeightedPool, cdf_at: float) -> tuple[np.ndarray, np.ndarray]:
    """Float masks of the draws with h <= cdf_at and h > cdf_at, for ``_cdf_logit``.

    A dot product with them is the one with the boolean masks, which NumPy
    casts to these same 0.0 and 1.0 floats before it calls BLAS.
    """
    below = (pool.h <= cdf_at).astype(np.float64)
    return below, 1.0 - below


def _cdf_logit(
    pool: WeightedPool, sigma: float, masks: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float, float]:
    """One CDF pass with its slope: F = P(H <= cdf_at), logit F and d(logit F)/d(sigma).

    ``masks`` are ``_cdf_masks(pool, cdf_at)``, which a caller making many
    passes at one h builds once.
    ``cdf_homozygosity`` returns this F, and logit F is -log of the same
    ratio W_above/W_below, so both are exactly monotone in sigma.
    The slope E_w[h | h > cdf_at] - E_w[h | h <= cdf_at] is never negative;
    its h-weighted sums come from the pass's own weight array, multiplied
    by h in place.  Both sides are summed directly: the total minus one
    side loses every digit of the other where that side is light, and a
    slope off by orders of magnitude would stop a Newton solve early.
    Where either side carries no weight, logit F is infinite and the slope
    NaN.
    """
    below, above = masks
    w = _weights(pool.b, pool.h, sigma)[0]
    w_below, w_above = float(w @ below), float(w @ above)
    f = _fraction_below(w_below, w_above)
    if w_below == 0.0 or w_above == 0.0:
        return f, math.inf if w_above == 0.0 else -math.inf, math.nan
    w *= pool.h
    return f, -math.log(w_above / w_below), float(w @ above) / w_above - float(w @ below) / w_below


def _pass(base: np.ndarray, stat: np.ndarray, sigma: float) -> Tilt:
    """The full pass: ``Tilt`` of the weights exp(base - sigma * stat)."""
    # Moments are taken about the statistic of the top-weight draw.  Where g
    # saturates, its correction term still moves by many of its own rounding
    # errors per step in sigma, and rounding is monotone, so g stays exactly
    # monotone there as well.
    w, top, i_top = _weights(base, stat, sigma)
    total = float(w.sum())
    d = stat - stat[i_top]
    c = float(w @ d) / total
    d *= d
    return Tilt(
        log_z=top + math.log(total),
        g=float(stat[i_top]) + c,
        dg=c * c - float(w @ d) / total,
        ess=total * total / float(w @ w),
    )


def _log_z_tangent(base: np.ndarray, s: np.ndarray, h: np.ndarray, sigma: float) -> tuple[float, float, float]:
    """The full pass's ``log_z`` bit for bit, with E_w[s] and E_w[h] from the same weights.

    For the surface base at a = theta/k, log Z is convex in (a, sigma) and
    these means are its gradient (E_w[s], -E_w[h]): the tangent plane they
    span lies below log Z everywhere.
    """
    w, top, _ = _weights(base, h, sigma)
    total = float(w.sum())
    return top + math.log(total), float(w @ s) / total, float(w @ h) / total


def _surface_base(pool: WeightedPool, a: float) -> np.ndarray:
    """Log-weights (a - 1) s - proposal log-density: the symmetric model at a = theta/k and sigma = 0."""
    return (a - 1.0) * pool.s - pool.proposal_log_density


def _surface(pool: WeightedPool, a: float, sigma: float) -> tuple[float, np.ndarray, np.ndarray, float]:
    """One pass at (a, sigma) of the symmetric model's exponential family in T = (s, h).

    With weights w_i = exp((a - 1) s_i - sigma h_i - proposal log-density_i),
    returns the plain importance-sampling log-normalizer log(sum w / n), the
    weighted mean and covariance of T (moments about the top-weight draw, as
    in ``tilt``) and the ESS.  The Dirichlet constant cancels, so the
    log-likelihood of x is (a - 1) s(x) - sigma h(x) minus the log-normalizer.
    """
    w, top, i_top = _weights(_surface_base(pool, a), pool.h, sigma)
    total = float(w.sum())
    d = np.stack([pool.s - pool.s[i_top], pool.h - pool.h[i_top]])
    wd = d * w
    c = wd.sum(axis=1) / total
    mean = np.array([pool.s[i_top], pool.h[i_top]]) + c
    return top + math.log(total / pool.n), mean, wd @ d.T / total - np.outer(c, c), total * total / float(w @ w)


def tilt(pool: WeightedPool, sigma: float) -> Tilt:
    """One pass over the pool at selection intensity sigma.

    The pass is pure and allocates its own work arrays, so threads may share
    the pool.  For another mutation rate, pass ``pool.reweighted(theta)``.
    """
    return _pass(pool.b, pool.h, sigma)


def _selection_stat(pool: WeightedPool, model: SelectionModel) -> tuple[np.ndarray, float]:
    """Per-draw statistic the tilt multiplies, and its intensity: (h, sigma) or (x' S x, 1)."""
    if model.mode == "symmetric":
        return pool.h, float(model.sigma)
    if pool.draws is None:
        raise ValueError("general-matrix queries require a pool built with keep_draws=True")
    m = model.matrix_array(pool.k)
    return np.einsum("ij,jl,il->i", pool.draws, m, pool.draws), 1.0


def log_normalizer(pool: WeightedPool, model: SelectionModel) -> tuple[float, float]:
    """Self-normalized estimate of log E[exp(-X' S X)] under the neutral law, and its ESS.

    The value is exactly zero for sigma = 0.  The ESS, (sum w)^2 / sum w^2,
    lies between 1 (one draw dominates) and n (uniform weights); below
    ``DEFAULT_ESS_FLOOR`` it flags the estimate as unreliable.
    """
    stat, sigma = _selection_stat(pool, model)
    t = _pass(pool.b, stat, sigma)
    return t.log_z - _pass(pool.b, stat, 0.0).log_z, min(max(t.ess, 1.0), float(pool.n))


def log_likelihood(
    x: SimplexPoint,
    theta: MutationParams,
    model: SelectionModel,
    pool: WeightedPool,
) -> float:
    """Log of the selected stationary density at the observed frequencies.

    The pool may target a different mutation parameter; it is reweighted
    to ``theta`` first.
    """
    if x.k != theta.k or x.k != pool.k:
        raise ValueError("dimension mismatch between data, mutation parameters and pool")
    pool = pool.reweighted(theta)
    stat, sigma = _selection_stat(pool, model)
    lz = _pass(pool.b, stat, sigma).log_z - _pass(pool.b, stat, 0.0).log_z
    return -quadratic_form(x, model) - lz + neutral_log_density(x, theta)


def g_sigma(pool: WeightedPool, sigma: float) -> float:
    """Mean homozygosity under selection intensity sigma, on a fixed pool.

    For a fixed pool this empirical curve is exactly non-increasing in
    sigma: its derivative is minus a weighted variance.  Minus g is the
    derivative of the log-normalizer, so g(sigma) - h is the score of the
    log-likelihood in sigma.
    """
    return tilt(pool, sigma).g


def score_general(x: SimplexPoint, pool: WeightedPool, model: SelectionModel) -> np.ndarray:
    """Matrix of log-likelihood derivatives in the intensity entries.

    Entry (i, j) is the pool estimate of E[X_i X_j | S] minus x_i x_j.
    Requires retained draws.
    """
    if pool.draws is None:
        raise ValueError("score_general requires a pool built with keep_draws=True")
    if x.k != pool.k:
        raise ValueError("dimension mismatch")
    w = _weights(pool.b, *_selection_stat(pool, model))[0]
    w /= w.sum()
    second = (pool.draws * w[:, None]).T @ pool.draws
    v = x.as_array()
    return second - np.outer(v, v)


def cdf_homozygosity(pool: WeightedPool, sigma: float, h: Homozygosity) -> float:
    """P(H <= h) under selection intensity sigma, on a fixed pool.

    For fixed h the empirical map sigma -> F is exactly non-decreasing:
    stronger heterozygote advantage pushes homozygosity down.  F is taken
    through the ratio of the weight above h to the weight at or below it;
    where F saturates, that ratio still moves by many of its own rounding
    errors per step in sigma, so F stays exactly monotone there as well.
    This is the F of the CDF pass, ``_cdf_logit``.
    """
    _check_k(h, pool)
    return _cdf_logit(pool, sigma, _cdf_masks(pool, h.value))[0]


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q) -> np.ndarray:
    """Quantiles of a weighted empirical distribution (left-continuous)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    cw = np.cumsum(weights[order])
    cw /= cw[-1]
    qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
    idx = np.searchsorted(cw, qs, side="left")
    return v[np.clip(idx, 0, v.size - 1)]


def _project_to_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the closed probability simplex."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, y.size + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(y + lam, 0.0)


def optimal_composition(model: SelectionModel, k: int) -> OptimalComposition:
    """Minimize x' S x over the closed simplex by multi-start projected gradient.

    Starts from the centroid, every vertex, and ``COMPOSITION_RANDOM_STARTS``
    random interior points: the quadratic form need not be convex on the
    simplex for a general symmetric matrix, and the centroid is a stationary
    point of the scalar model in both sign regimes.
    """
    m = model.matrix_array(k)
    if model.mode == "matrix" and m.shape[0] != k:
        raise ValueError("matrix dimension does not match k")

    def objective(x: np.ndarray) -> float:
        return float(x @ m @ x)

    scale = float(np.linalg.norm(m, 2))
    t0 = 1.0 if scale == 0.0 else 1.0 / (2.0 * scale)

    starts = [np.full(k, 1.0 / k)]
    starts.extend(np.eye(k))
    rng = derive_rng(0, 97)
    for _ in range(COMPOSITION_RANDOM_STARTS):
        g = rng.gamma(1.0, size=k)
        starts.append(g / g.sum())

    best_x, best_val = None, math.inf
    for x0 in starts:
        x = x0.astype(np.float64).copy()
        fx = objective(x)
        for _ in range(COMPOSITION_MAX_ITER):
            grad = 2.0 * (m @ x)
            z = _project_to_simplex(x - t0 * grad)
            step = z - x
            pg_norm = float(np.linalg.norm(step)) / t0
            if pg_norm < COMPOSITION_GRAD_TOL:
                break
            t = 1.0
            fz = objective(x + step)
            while fz > fx and t > 1e-16:
                t *= 0.5
                fz = objective(x + t * step)
            if fz > fx:
                break
            x = x + t * step
            fx = fz
        if fx < best_val:
            best_val, best_x = fx, x

    boundary = bool(best_x.min() < 1e-9)
    return OptimalComposition(point=best_x, value=best_val, boundary=boundary)
