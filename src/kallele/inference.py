"""Estimation of selection intensity: MLE, bootstrap, exact CIs, posterior.

The maximum likelihood estimate conditional on the mutation rate solves
``g(sigma) = h`` where ``g`` is the mean homozygosity under selection and
``h`` the observed one.  On a fixed pool the empirical ``g`` is exactly
monotone, so the solver is a Newton iteration safeguarded by a bracket
whose sign change it certifies.  Data at or below the pool's homozygosity floor sits in the
image of the likelihood singularity: the solver reports an ``unbounded``
status there instead of a number, and every downstream consumer (bootstrap,
studies, CLI) carries that status through rather than masking it.

Interval estimates come in three flavours: percentile bootstrap (whose
heavy right tail under strong heterozygote advantage is the package's
raison d'etre), exact intervals from the monotone homozygosity CDF, and
equal-tailed credible intervals from an independence Metropolis-Hastings
posterior chain over (theta, sigma).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from .core import (
    Homozygosity,
    MutationParams,
    SimplexPoint,
    derive_rng,
    homozygosity,
)
from .density import (
    DEFAULT_ESS_FLOOR,
    MIXTURE_SIGMA_THRESHOLD,
    NEGATIVE_MIXTURE_THRESHOLD,
    WeightedPool,
    Tilt,
    build_mixture_pool,
    cdf_homozygosity,
    neutral_log_density,
    pool_for_sigma_range,
    tilt,
)
from .sampler import SamplerConfig, _selection_arrays

__all__ = [
    "MleResult",
    "IntervalEstimate",
    "BootstrapResult",
    "PosteriorChain",
    "MleConfig",
    "JointMleConfig",
    "BootstrapConfig",
    "MonotoneCiConfig",
    "PosteriorConfig",
    "GSigmaTable",
    "mle_sigma",
    "mle_joint",
    "bootstrap",
    "monotone_ci",
    "posterior_sample",
    "posterior_summary",
]

STATUS_CONVERGED = "converged"
STATUS_UNBOUNDED_ABOVE = "unbounded_above"
STATUS_UNBOUNDED_BELOW = "unbounded_below"
STATUS_OUTSIDE_POOL_RANGE = "outside_pool_range"


@dataclass(frozen=True)
class MleResult:
    """Point estimate with convergence/instability status.

    ``converged`` guarantees the score changed sign across ``bracket`` and
    ``sigma_hat`` lies inside it.  ``unbounded_above``/``unbounded_below``
    are the empirical image of the likelihood singularity: the observed
    homozygosity sits at the pool's floor/ceiling and no finite intensity
    matches it.  ``outside_pool_range`` means a root exists but beyond the
    configured search cap.
    """

    sigma_hat: float
    theta_hat: float | None
    status: str
    score_at_solution: float
    bracket: tuple[float, float]
    ess_at_solution: float
    notes: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    def as_dict(self) -> dict:
        return {
            "sigma_hat": self.sigma_hat,
            "theta_hat": self.theta_hat,
            "status": self.status,
            "score_at_solution": self.score_at_solution,
            "bracket": list(self.bracket),
            "ess_at_solution": self.ess_at_solution,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float
    method: str  # bootstrap_percentile | monotone_exact | credible
    alpha_split: tuple[float, float]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"interval endpoints out of order: {self.lower} > {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "level": self.level,
            "method": self.method,
            "alpha_split": list(self.alpha_split),
            "notes": list(self.notes),
        }


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    estimates: list[MleResult]
    standard_error: float
    percentile_interval: IntervalEstimate
    n_unbounded: int
    generator_params: dict
    heavy_tail: bool

    def as_dict(self) -> dict:
        statuses = [r.status for r in self.estimates]
        return {
            "m": len(self.estimates),
            "standard_error": self.standard_error,
            "heavy_tail": self.heavy_tail,
            "n_unbounded": self.n_unbounded,
            "status_counts": {s: statuses.count(s) for s in sorted(set(statuses))},
            "percentile_interval": self.percentile_interval.as_dict(),
            "generator_params": self.generator_params,
        }


@dataclass(frozen=True, eq=False)
class PosteriorChain:
    """An MCMC trace over (theta, sigma) with full provenance."""

    thetas: np.ndarray
    sigmas: np.ndarray
    log_posterior: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    prior_bounds: tuple[tuple[float, float], tuple[float, float]]
    proposal_spec: dict
    burn_in: int
    seed: int
    theta_fixed: float | None
    data: SimplexPoint
    pool_seed: int
    pool_n: int
    pool_concentrations: tuple[float, ...]
    notes: tuple[str, ...] = ()

    def __len__(self) -> int:
        return self.sigmas.size

    @property
    def draws(self) -> list[tuple[float, float]]:
        return list(zip(self.thetas.tolist(), self.sigmas.tolist()))

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("iteration,theta,sigma,log_posterior,accepted\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.thetas[i]!r},{self.sigmas[i]!r},"
                    f"{self.log_posterior[i]!r},{int(self.accepted[i])}\n"
                )

    def as_dict(self) -> dict:
        return {
            "length": len(self),
            "burn_in": self.burn_in,
            "acceptance_rate": self.acceptance_rate,
            "prior_bounds": [list(self.prior_bounds[0]), list(self.prior_bounds[1])],
            "proposal_spec": self.proposal_spec,
            "seed": self.seed,
            "theta_fixed": self.theta_fixed,
            "pool": {
                "seed": self.pool_seed,
                "n": self.pool_n,
                "concentrations": list(self.pool_concentrations),
            },
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class MleConfig:
    # The solve stops when its Newton step or its bracket is below this.
    bracket_tol: float = 1e-6
    sigma_cap: float = 1e5
    bracket_init: float = 64.0
    # Data within the h-range of the pool's min_support most extreme draws
    # is classified unbounded: an estimate hanging on a handful of draws is
    # the singularity showing through, not a number.
    min_support: int = 10
    ess_floor: float = DEFAULT_ESS_FLOOR


@dataclass(frozen=True)
class JointMleConfig:
    theta_bounds: tuple[float, float] = (0.1, 50.0)
    theta_tol: float = 1e-3
    pool_n: int = 100_000
    coarse_points: int = 12
    mle: MleConfig = field(default_factory=MleConfig)
    concentrations: tuple[float, ...] | None = None


@dataclass(frozen=True)
class BootstrapConfig:
    level: float = 0.95
    pool_n: int = 100_000
    heavy_tail_threshold: float = 0.2
    joint_refit: bool = False
    workers: int = 1
    mle: MleConfig = field(default_factory=MleConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    joint: JointMleConfig = field(default_factory=lambda: JointMleConfig(pool_n=20_000))


@dataclass(frozen=True)
class MonotoneCiConfig:
    sigma_range: tuple[float, float] = (-500.0, 2000.0)
    tol: float = 1e-6


@dataclass(frozen=True)
class PosteriorConfig:
    # Flat priors on a box.  The sigma prior defaults to the heterozygote
    # advantage regime: with theta free and sigma allowed far below zero,
    # the likelihood carries a genuine ridge at (large theta, sigma < 0)
    # that the reference analyses never sampled; widen explicitly to
    # explore it.
    prior_theta: tuple[float, float] = (0.0, 50.0)
    prior_sigma: tuple[float, float] = (0.0, 1000.0)
    burn_in: int = 1000
    pool_n: int = 100_000
    pilot_pool_n: int = 30_000
    proposal_scale_factor: float = 2.0
    acceptance_flag: float = 0.02
    theta_fixed: float | None = None


class GSigmaTable:
    """Memo of the pool passes at the bracket points, shared by every solve on a pool.

    ``mle_sigma`` brackets its root on the points 0 and +/-bracket_init * 2^j
    (j >= -6); those points are the same for every solve on one pool, so
    only the first solves pay for them.  Passes are made lazily, on first
    use.  Results are identical with and without the memo; threads may
    share it.
    """

    def __init__(self, pool: WeightedPool):
        self.pool = pool
        self.passes: dict[float, Tilt] = {}

    def at(self, sigma: float) -> Tilt:
        t = self.passes.get(sigma)
        if t is None:
            t = self.passes[sigma] = tilt(self.pool, sigma)
        return t


def mle_sigma(
    h: Homozygosity,
    pool: WeightedPool,
    config: MleConfig | None = None,
    table: GSigmaTable | None = None,
    b: np.ndarray | None = None,
) -> MleResult:
    """Conditional MLE of the selection intensity given the mutation rate.

    Solves g(sigma) = h on the exactly monotone empirical g.  A walk over
    the points 0 and +/-bracket_init * 2^j brackets the root within one
    octave (or between 0 and bracket_init / 64); pass ``table`` to share
    those passes between solves on one pool.  Newton steps (g' comes from
    the same pass) then run inside the bracket from an inverse Hermite
    interpolation of its ends, with bisection whenever a step leaves the
    bracket or fails to halve the step two before.  The solve stops when a
    Newton step or the bracket is below ``bracket_tol``; the returned
    bracket keeps a certified sign change, and the score and ESS come from
    the last pass.  Statuses replace exceptions; callers must branch on
    ``status``.
    """
    config = config or MleConfig()
    hv = float(h.value)
    margin_lo, margin_hi = pool.support_margin(config.min_support)
    if hv <= pool.h_min + margin_lo:
        return MleResult(
            sigma_hat=math.inf,
            theta_hat=None,
            status=STATUS_UNBOUNDED_ABOVE,
            score_at_solution=math.nan,
            bracket=(config.sigma_cap, math.inf),
            ess_at_solution=math.nan,
            notes=(f"h={hv:.6g} at or below pool floor {pool.h_min:.6g}+{margin_lo:.2g}",),
        )
    if hv >= pool.h_max - margin_hi:
        return MleResult(
            sigma_hat=-math.inf,
            theta_hat=None,
            status=STATUS_UNBOUNDED_BELOW,
            score_at_solution=math.nan,
            bracket=(-math.inf, -config.sigma_cap),
            ess_at_solution=math.nan,
            notes=(f"h={hv:.6g} at or above pool ceiling {pool.h_max:.6g}-{margin_hi:.2g}",),
        )
    if table is None:
        at = functools.partial(tilt, pool, b=b)
    elif table.pool is pool and b is None:
        at = table.at
    else:
        raise ValueError("table was built for another pool or for the pool's own base weights")

    def outside(cap: float, note: str) -> MleResult:
        t = tilt(pool, cap, b)
        return MleResult(
            sigma_hat=cap,
            theta_hat=None,
            status=STATUS_OUTSIDE_POOL_RANGE,
            score_at_solution=t.g - hv,
            bracket=(cap, math.inf) if cap > 0 else (-math.inf, cap),
            ess_at_solution=t.ess,
            notes=(note,),
        )

    # Bracket walk, outward by doubling: throughout, g(lo) >= hv >= g(hi).
    lo, hi = -config.bracket_init, config.bracket_init
    t_lo, t_hi = at(lo), at(hi)
    while t_lo.g < hv:
        hi, t_hi = lo, t_lo
        lo *= 2.0
        if lo < -config.sigma_cap:
            return outside(-config.sigma_cap, "below-cap")
        t_lo = at(lo)
    while t_hi.g > hv:
        lo, t_lo = hi, t_hi
        hi *= 2.0
        if hi > config.sigma_cap:
            return outside(config.sigma_cap, "above-cap")
        t_hi = at(hi)
    if lo < 0.0 < hi:
        # The root lies within +/-bracket_init: split at 0, then halve toward
        # 0 (six times at most) while the root stays on 0's side.
        t_0 = at(0.0)
        near = config.bracket_init / 64.0
        if t_0.g >= hv:
            lo, t_lo = 0.0, t_0
            while hi > near:
                t_mid = at(0.5 * hi)
                if t_mid.g >= hv:
                    lo, t_lo = 0.5 * hi, t_mid
                    break
                hi, t_hi = 0.5 * hi, t_mid
        else:
            hi, t_hi = 0.0, t_0
            while lo < -near:
                t_mid = at(0.5 * lo)
                if t_mid.g < hv:
                    hi, t_hi = 0.5 * lo, t_mid
                    break
                lo, t_lo = 0.5 * lo, t_mid

    # First iterate: inverse cubic Hermite interpolation of sigma(g) through
    # the bracket ends, whose slopes come with their passes; the secant
    # point where that leaves the bracket.
    span = t_hi.g - t_lo.g
    u = (hv - t_lo.g) / span if span < 0.0 else 0.0
    sigma = lo + u * (hi - lo)
    if t_lo.dg < 0.0 and t_hi.dg < 0.0:
        cubic = (
            (1.0 + (2.0 * u - 3.0) * u * u) * lo
            + (3.0 - 2.0 * u) * u * u * hi
            + (u - 1.0) * u * span * ((u - 1.0) / t_lo.dg + u / t_hi.dg)
        )
        if lo < cubic < hi:
            sigma = cubic
    t = t_lo if sigma == lo else t_hi if sigma == hi else tilt(pool, sigma, b)

    # Safeguarded Newton from there.
    last_step = older_step = math.inf
    while True:
        f = t.g - hv
        if f > 0.0:
            lo = sigma
        elif f < 0.0:
            hi = sigma
        else:
            break
        step = -f / t.dg if t.dg < 0.0 else math.inf
        nxt = sigma + step
        if lo < nxt < hi and abs(step) <= 0.5 * older_step:
            if abs(step) < config.bracket_tol:
                break
        else:
            nxt = 0.5 * (lo + hi)
            step = nxt - sigma
        if hi - lo < config.bracket_tol or not lo < nxt < hi:
            break
        older_step, last_step = last_step, abs(step)
        sigma, t = nxt, tilt(pool, nxt, b)

    if t.ess < config.ess_floor:
        # The root exists on the empirical curve but hangs on a handful of
        # draws: that is the likelihood singularity showing through the
        # pool, not a reportable estimate.
        status = STATUS_UNBOUNDED_ABOVE if sigma > 0 else STATUS_UNBOUNDED_BELOW
        return MleResult(
            sigma_hat=math.inf if sigma > 0 else -math.inf,
            theta_hat=None,
            status=status,
            score_at_solution=math.nan,
            bracket=(lo, hi),
            ess_at_solution=t.ess,
            notes=(f"ess {t.ess:.1f} below floor {config.ess_floor:g} at sigma={sigma:.4g}",),
        )
    return MleResult(
        sigma_hat=sigma,
        theta_hat=None,
        status=STATUS_CONVERGED,
        score_at_solution=t.g - hv,
        bracket=(lo, hi),
        ess_at_solution=t.ess,
    )


def _profile_pool(x: SimplexPoint, theta: float, seed: int, config: JointMleConfig) -> WeightedPool:
    params = MutationParams.symmetric(theta, x.k)
    if config.concentrations is None:
        # Defensive mixture regardless of theta: a lone a = theta/k proposal
        # at small theta draws only near-vertex populations and cannot see
        # moderate homozygosities at all.
        base = theta / x.k
        concs = (base,) + tuple(c for c in (2.0, 8.0) if c != base)
    else:
        concs = config.concentrations
    return build_mixture_pool(params, concs, config.pool_n, seed, keep_draws=False)


def mle_joint(
    x: SimplexPoint,
    seed: int,
    config: JointMleConfig | None = None,
) -> MleResult:
    """Joint MLE of (theta, sigma) by profiling theta.

    The outer search is a coarse scan plus golden-section refinement on the
    profile likelihood; the inner problem at each theta is ``mle_sigma`` on
    a pool rebuilt from the same seed (common random numbers), making the
    profile a deterministic function of theta.
    """
    config = config or JointMleConfig()
    h = homozygosity(x)
    cache: dict[float, tuple[float, MleResult]] = {}

    def profile(theta: float) -> tuple[float, MleResult]:
        if theta in cache:
            return cache[theta]
        pool = _profile_pool(x, theta, seed, config)
        inner = mle_sigma(h, pool, config.mle)
        if inner.status in (STATUS_UNBOUNDED_ABOVE, STATUS_UNBOUNDED_BELOW):
            value = math.inf
        elif inner.status == STATUS_OUTSIDE_POOL_RANGE:
            value = -math.inf
        else:
            lz = tilt(pool, inner.sigma_hat).log_z - tilt(pool, 0.0).log_z
            params = MutationParams.symmetric(theta, x.k)
            value = -inner.sigma_hat * h.value - lz + neutral_log_density(x, params)
        cache[theta] = (value, inner)
        return cache[theta]

    t_lo, t_hi = config.theta_bounds
    grid = np.geomspace(t_lo, t_hi, config.coarse_points)
    values = []
    for t in grid:
        v, inner = profile(float(t))
        values.append(v)
    if all(math.isinf(v) and v > 0 for v in values):
        # Every conditional likelihood is unbounded: the data sit at the
        # singular composition itself, not in a pool blind spot.
        _, inner = profile(float(grid[0]))
        return replace(
            inner,
            theta_hat=None,
            notes=inner.notes + ("likelihood unbounded in sigma at every theta",),
        )
    # Isolated unbounded statuses at extreme thetas are pool blind spots;
    # exclude them from the outer search rather than crowning them.
    values = [-math.inf if (math.isinf(v) and v > 0) else v for v in values]
    best = int(np.argmax(values))
    a = float(grid[max(best - 1, 0)])
    c = float(grid[min(best + 1, len(grid) - 1)])

    def fval(theta: float) -> float:
        v, _ = profile(theta)
        return -math.inf if (math.isinf(v) and v > 0) else v

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, c
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = fval(x1)
    f2 = fval(x2)
    while hi - lo > config.theta_tol:
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fval(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fval(x1)
    theta_hat = 0.5 * (lo + hi)
    _, inner = profile(theta_hat)

    notes = inner.notes
    if theta_hat - t_lo < 2 * config.theta_tol or t_hi - theta_hat < 2 * config.theta_tol:
        notes = notes + ("theta-at-bound: outer optimum sits at a search bound",)
    return replace(inner, theta_hat=theta_hat, notes=notes)


def _quantile_with_inf(sorted_vals: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile that tolerates +/-inf entries."""
    m = sorted_vals.size
    pos = q * (m - 1)
    i = int(math.floor(pos))
    frac = pos - i
    if frac == 0.0 or i + 1 >= m:
        return float(sorted_vals[min(i, m - 1)])
    a, b_ = float(sorted_vals[i]), float(sorted_vals[i + 1])
    if math.isinf(b_):
        return b_
    if math.isinf(a):
        return a
    return a + frac * (b_ - a)


def _replicate_mles(
    h_values: np.ndarray,
    k: int,
    pool: WeightedPool,
    mle_config: MleConfig,
    table: GSigmaTable,
    workers: int = 1,
) -> list[MleResult]:
    def solve(hv: float) -> MleResult:
        return mle_sigma(Homozygosity(value=float(hv), k=k), pool, mle_config, table)

    if workers <= 1:
        return [solve(hv) for hv in h_values]
    # Replicates are independent tasks against a shared immutable pool;
    # results are keyed by index, so the reduction is worker-count-free.
    chunks = np.array_split(np.arange(h_values.size), workers * 4)
    out: list[list[MleResult]] = [None] * len(chunks)  # type: ignore[list-item]

    def run_chunk(ci: int) -> None:
        out[ci] = [solve(h_values[j]) for j in chunks[ci]]

    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(run_chunk, range(len(chunks))))
    return [r for chunk in out for r in chunk]


def bootstrap(
    theta: float,
    sigma: float,
    k: int,
    m: int,
    seed: int,
    config: BootstrapConfig | None = None,
) -> BootstrapResult:
    """Parametric bootstrap of the conditional selection-intensity MLE.

    Simulates m populations at (theta, sigma), re-estimates sigma on each at
    the true theta, and summarizes the sampling distribution.  Unbounded
    replicates enter the percentile interval as +/-inf (they can only push
    the relevant endpoint outward) and are excluded from the standard error
    with their count reported: the singularity is guaranteed to be hit with
    positive probability, and hiding those replicates would misstate the
    tail.  Set ``joint_refit`` to re-estimate theta inside every replicate
    for sensitivity analysis.
    """
    config = config or BootstrapConfig()
    if m < 100:
        raise ValueError("bootstrap needs m >= 100 replicates")
    params = MutationParams.symmetric(theta, k)
    gen_seed = _subseed(seed, 2)
    draws, gen_report = _selection_arrays(params, sigma, m, gen_seed, config.sampler)
    h_values = np.einsum("ij,ij->i", draws, draws)

    if config.joint_refit:
        joint_cfg = config.joint
        estimates = []
        for j, row in enumerate(draws):
            point = SimplexPoint(row)
            estimates.append(mle_joint(point, _subseed(seed, 3, j), joint_cfg))
    else:
        pool = pool_for_sigma_range(
            params,
            config.pool_n,
            _subseed(seed, 1),
            sigma_lo=-config.mle.sigma_cap,
            sigma_hi=config.mle.sigma_cap,
        )
        table = GSigmaTable(pool)
        estimates = _replicate_mles(h_values, k, pool, config.mle, table, config.workers)

    vals = np.array(
        [
            r.sigma_hat
            if r.status == STATUS_CONVERGED
            else (math.inf if r.sigma_hat > 0 else -math.inf)
            for r in estimates
        ]
    )
    finite = np.array([r.sigma_hat for r in estimates if r.status == STATUS_CONVERGED])
    n_unbounded = sum(
        r.status in (STATUS_UNBOUNDED_ABOVE, STATUS_UNBOUNDED_BELOW) for r in estimates
    )
    heavy = n_unbounded > config.heavy_tail_threshold * m
    se = float(np.std(finite, ddof=1)) if finite.size >= 2 else math.nan

    alpha = 1.0 - config.level
    a1 = a2 = alpha / 2.0
    sorted_vals = np.sort(vals)
    lower = _quantile_with_inf(sorted_vals, a1)
    upper = _quantile_with_inf(sorted_vals, 1.0 - a2)
    notes = (f"generator-method={gen_report.method}",)
    if heavy:
        notes = notes + ("standard-error-undefined-by-heavy-tail",)
    interval = IntervalEstimate(
        lower=lower,
        upper=upper,
        level=config.level,
        method="bootstrap_percentile",
        alpha_split=(a1, a2),
        notes=notes,
    )
    return BootstrapResult(
        estimates=estimates,
        standard_error=se,
        percentile_interval=interval,
        n_unbounded=n_unbounded,
        generator_params={"theta": theta, "sigma": sigma, "k": k, "seed": seed},
        heavy_tail=heavy,
    )


def monotone_ci(
    h: Homozygosity,
    pool: WeightedPool,
    alpha1: float,
    alpha2: float,
    config: MonotoneCiConfig | None = None,
) -> IntervalEstimate:
    """Exact confidence interval from the monotone homozygosity CDF.

    Finds the smallest and largest intensities supporting the data:
    F(h | lower) = alpha1 and F(h | upper) = 1 - alpha2, by bisection on
    the exactly monotone empirical CDF.  The search range includes negative
    intensities; an endpoint pinned at a range bound carries a widen-range
    advisory note.
    """
    config = config or MonotoneCiConfig()
    # alpha1 + alpha2 == 1 is the degenerate boundary: both quantile
    # equations coincide at the median-matching intensity.
    if not (0.0 < alpha1 and 0.0 < alpha2 and alpha1 + alpha2 <= 1.0):
        raise ValueError("need alpha1 > 0, alpha2 > 0 and alpha1 + alpha2 <= 1")
    s_lo, s_hi = config.sigma_range
    f_lo = cdf_homozygosity(pool, s_lo, h)
    f_hi = cdf_homozygosity(pool, s_hi, h)
    notes: list[str] = []

    def solve(target: float, label: str) -> float:
        if f_lo > target:
            notes.append(f"{label}-endpoint-at-range-bound: F({s_lo:g})={f_lo:.4g} > {target:g}; widen sigma_range")
            return s_lo
        if f_hi < target:
            notes.append(f"{label}-endpoint-at-range-bound: F({s_hi:g})={f_hi:.4g} < {target:g}; widen sigma_range")
            return s_hi
        lo, hi = s_lo, s_hi
        while hi - lo > config.tol:
            mid = 0.5 * (lo + hi)
            if cdf_homozygosity(pool, mid, h) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lower = solve(alpha1, "lower")
    upper = solve(1.0 - alpha2, "upper")
    return IntervalEstimate(
        lower=lower,
        upper=upper,
        level=1.0 - alpha1 - alpha2,
        method="monotone_exact",
        alpha_split=(alpha1, alpha2),
        notes=tuple(notes),
    )


def _subseed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence(int(seed), spawn_key=tuple(path)).generate_state(1, np.uint32)[0])


def _symmetric_neutral_logpdf(theta: float, k: int, log_x_sum: float) -> float:
    a = theta / k
    return float(gammaln(theta) - k * gammaln(a) + (a - 1.0) * log_x_sum)


def posterior_sample(
    x: SimplexPoint,
    prior_bounds: tuple[tuple[float, float], tuple[float, float]] | None = None,
    chain_length: int = 100_000,
    seed: int = 0,
    config: PosteriorConfig | None = None,
) -> PosteriorChain:
    """Sample the flat-prior posterior over (theta, sigma) by independence MH.

    With ``config.theta_fixed`` set, only sigma is updated.  The target is
    the likelihood evaluated through one fixed pool: the pool's sufficient
    statistics reweight it exactly to any symmetric theta, so the whole
    chain sees a single smooth deterministic likelihood surface (common
    random numbers in the strongest sense).  Credible intervals are
    prior-bound-sensitive; the bounds are stamped into the chain.
    """
    config = config or PosteriorConfig()
    theta_box = prior_bounds[0] if prior_bounds is not None else config.prior_theta
    sigma_box = prior_bounds[1] if prior_bounds is not None else config.prior_sigma
    if not all(math.isfinite(v) for v in (*theta_box, *sigma_box)):
        raise ValueError("uniform priors must be proper: finite bounds required")
    if not (theta_box[0] < theta_box[1] and sigma_box[0] < sigma_box[1]):
        # The truncated proposal below would redraw forever in an empty box.
        raise ValueError(
            f"prior bounds must be ordered lower < upper: theta {tuple(theta_box)}, sigma {tuple(sigma_box)}"
        )
    if chain_length <= config.burn_in + 10:
        raise ValueError("chain_length must comfortably exceed burn_in")
    k = x.k
    h = homozygosity(x)
    log_x_sum = float(np.log(x.as_array()).sum())

    # Pilot estimates locate and scale the sigma proposal.
    if config.theta_fixed is not None:
        theta_pilot = float(config.theta_fixed)
    else:
        pilot_cfg = JointMleConfig(
            theta_bounds=(max(0.1, theta_box[0]), theta_box[1]),
            theta_tol=0.01,
            pool_n=config.pilot_pool_n,
        )
        pilot = mle_joint(x, _subseed(seed, 4), pilot_cfg)
        theta_pilot = pilot.theta_hat if pilot.theta_hat is not None else 0.5 * (theta_box[0] + theta_box[1])
    pilot_params = MutationParams.symmetric(theta_pilot, k)
    pilot_pool = pool_for_sigma_range(
        pilot_params,
        config.pilot_pool_n,
        _subseed(seed, 5),
        sigma_lo=min(sigma_box[0], -2.0 * NEGATIVE_MIXTURE_THRESHOLD),
        sigma_hi=max(sigma_box[1], 2000.0),
    )
    pilot_mle = mle_sigma(h, pilot_pool)
    if pilot_mle.converged:
        center = float(np.clip(pilot_mle.sigma_hat, sigma_box[0], sigma_box[1]))
    else:
        center = sigma_box[1] - 0.05 * (sigma_box[1] - sigma_box[0]) if pilot_mle.sigma_hat > 0 else sigma_box[0]
    pilot_ci = monotone_ci(
        h, pilot_pool, 0.025, 0.025, MonotoneCiConfig(sigma_range=(sigma_box[0] - 1.0, max(sigma_box[1], 2000.0)))
    )
    scale = config.proposal_scale_factor * max(pilot_ci.width, 1.0)
    scale = float(np.clip(scale, 5.0, 4.0 * (sigma_box[1] - sigma_box[0])))

    # The chain's likelihood pool: defensive mixture around the pilot theta,
    # covering both sign regimes the prior box allows.
    pool = pool_for_sigma_range(
        pilot_params,
        config.pool_n,
        _subseed(seed, 6),
        sigma_lo=min(sigma_box[0], -2.0 * NEGATIVE_MIXTURE_THRESHOLD),
        sigma_hi=max(sigma_box[1], 2.0 * MIXTURE_SIGMA_THRESHOLD),
    )
    base_cache: dict[float, tuple[np.ndarray, float]] = {}

    def base_weights(theta: float) -> tuple[np.ndarray, float]:
        if theta not in base_cache:
            b = _symmetric_neutral_logpdf(theta, k, 0.0) + (theta / k - 1.0) * pool.s - pool.proposal_log_density
            base_cache.clear()  # single-entry cache: the chain only needs current + proposal
            base_cache[theta] = (b, tilt(pool, 0.0, b).log_z)
        return base_cache[theta]

    def log_post(theta: float, sigma: float) -> float:
        b, lz0 = base_weights(theta)
        lz = tilt(pool, sigma, b).log_z - lz0
        return -sigma * h.value - lz + _symmetric_neutral_logpdf(theta, k, log_x_sum)

    rng = derive_rng(seed, 7)
    total = int(chain_length)
    retained = total - config.burn_in
    theta_fixed = config.theta_fixed

    if theta_fixed is None:
        theta_props = rng.uniform(theta_box[0], theta_box[1], size=total)
        theta_props = np.maximum(theta_props, 1e-9)  # open lower bound
    else:
        theta_props = np.full(total, float(theta_fixed))
    u = rng.random(total) - 0.5
    sigma_props = center - scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    bad = (sigma_props < sigma_box[0]) | (sigma_props > sigma_box[1])
    while bad.any():
        u2 = rng.random(int(bad.sum())) - 0.5
        sigma_props[bad] = center - scale * np.sign(u2) * np.log1p(-2.0 * np.abs(u2))
        bad = (sigma_props < sigma_box[0]) | (sigma_props > sigma_box[1])
    log_u = np.log(rng.random(total))
    log_q = -np.abs(sigma_props - center) / scale

    theta_cur = theta_pilot if theta_fixed is None else float(theta_fixed)
    theta_cur = min(max(theta_cur, 1e-9), theta_box[1])
    sigma_cur = center
    lp_cur = log_post(theta_cur, sigma_cur)
    lq_cur = -abs(sigma_cur - center) / scale

    thetas = np.empty(retained)
    sigmas = np.empty(retained)
    lps = np.empty(retained)
    accs = np.zeros(retained, dtype=bool)
    n_accept = 0
    for t in range(total):
        lp_prop = log_post(float(theta_props[t]), float(sigma_props[t]))
        accepted = log_u[t] < (lp_prop - lp_cur) - (log_q[t] - lq_cur)
        if accepted:
            theta_cur = float(theta_props[t])
            sigma_cur = float(sigma_props[t])
            lp_cur = lp_prop
            lq_cur = float(log_q[t])
            n_accept += 1
        if t >= config.burn_in:
            i = t - config.burn_in
            thetas[i] = theta_cur
            sigmas[i] = sigma_cur
            lps[i] = lp_cur
            accs[i] = accepted

    rate = n_accept / total
    notes: tuple[str, ...] = ()
    if rate < config.acceptance_flag:
        notes = (f"proposal-mistuned: acceptance rate {rate:.4f} below {config.acceptance_flag}",)
    return PosteriorChain(
        thetas=thetas,
        sigmas=sigmas,
        log_posterior=lps,
        accepted=accs,
        acceptance_rate=rate,
        prior_bounds=(tuple(theta_box), tuple(sigma_box)),
        proposal_spec={
            "theta": {"kind": "uniform", "bounds": list(theta_box)} if theta_fixed is None else {"kind": "fixed", "value": theta_fixed},
            "sigma": {"kind": "laplace", "center": center, "scale": scale, "truncated_to": list(sigma_box)},
        },
        burn_in=config.burn_in,
        seed=int(seed),
        theta_fixed=theta_fixed,
        data=x,
        pool_seed=pool.seed,
        pool_n=pool.n,
        pool_concentrations=pool.concentrations,
        notes=notes,
    )


def posterior_summary(chain: PosteriorChain, level: float = 0.95) -> tuple[IntervalEstimate, tuple[float, float]]:
    """Equal-tailed credible interval for sigma plus the posterior mode.

    The mode is found by numerically maximizing the log-posterior surface
    on the chain's own pool (profile in theta, exact concave maximization in
    sigma), constrained to the prior box; under flat priors this coincides
    with the constrained joint MLE.
    """
    if len(chain) < 1000:
        raise ValueError("need at least 1000 retained draws to summarize")
    alpha = 1.0 - level
    lo, hi = np.quantile(chain.sigmas, [alpha / 2.0, 1.0 - alpha / 2.0])
    interval = IntervalEstimate(
        lower=float(lo),
        upper=float(hi),
        level=level,
        method="credible",
        alpha_split=(alpha / 2.0, alpha / 2.0),
    )

    x = chain.data
    k = x.k
    h = homozygosity(x)
    theta_box, sigma_box = chain.prior_bounds
    log_x_sum = float(np.log(x.as_array()).sum())
    pilot_theta = chain.theta_fixed if chain.theta_fixed is not None else float(np.median(chain.thetas))
    pool = build_mixture_pool(
        MutationParams.symmetric(pilot_theta, k),
        chain.pool_concentrations,
        chain.pool_n,
        chain.pool_seed,
        keep_draws=False,
    )
    mcfg = MleConfig()

    def profile(theta: float) -> tuple[float, float]:
        b = _symmetric_neutral_logpdf(theta, k, 0.0) + (theta / k - 1.0) * pool.s - pool.proposal_log_density
        inner = mle_sigma(h, pool, mcfg, b=b)
        if inner.converged:
            sig = float(np.clip(inner.sigma_hat, sigma_box[0], sigma_box[1]))
        else:
            sig = sigma_box[1] if inner.sigma_hat > 0 else sigma_box[0]
        lz = tilt(pool, sig, b).log_z - tilt(pool, 0.0, b).log_z
        return -sig * h.value - lz + _symmetric_neutral_logpdf(theta, k, log_x_sum), sig

    if chain.theta_fixed is not None:
        _, sig = profile(float(chain.theta_fixed))
        return interval, (float(chain.theta_fixed), sig)

    t_lo = max(theta_box[0], 1e-3)
    t_hi = theta_box[1]
    grid = np.geomspace(t_lo, t_hi, 12)
    vals = [profile(float(t))[0] for t in grid]
    best = int(np.argmax(vals))
    lo_t = float(grid[max(best - 1, 0)])
    hi_t = float(grid[min(best + 1, len(grid) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi_t - invphi * (hi_t - lo_t)
    x2 = lo_t + invphi * (hi_t - lo_t)
    f1, _ = profile(x1)
    f2, _ = profile(x2)
    while hi_t - lo_t > 1e-3:
        if f1 < f2:
            lo_t = x1
            x1, f1 = x2, f2
            x2 = lo_t + invphi * (hi_t - lo_t)
            f2, _ = profile(x2)
        else:
            hi_t = x2
            x2, f2 = x1, f1
            x1 = hi_t - invphi * (hi_t - lo_t)
            f1, _ = profile(x1)
    theta_mode = 0.5 * (lo_t + hi_t)
    _, sigma_mode = profile(theta_mode)
    return interval, (theta_mode, sigma_mode)
