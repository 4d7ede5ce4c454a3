"""Estimation of selection intensity: MLE, bootstrap, exact CIs, posterior.

The maximum likelihood estimate conditional on the mutation rate solves
``g(sigma) = h`` where ``g`` is the mean homozygosity under selection and
``h`` the observed one.  On a fixed pool the empirical ``g`` is exactly
monotone, so the solver is a Newton iteration safeguarded by a bracket
whose sign change it certifies.  Solves of many h on one pool (a
bootstrap's replicates, an MLE curve's grid) share their passes through one
``GSigmaTable`` that the caller owns and solves through in a fixed order.
Data at or below the pool's homozygosity floor sits in the image of the
likelihood singularity: the solver reports an ``unbounded`` status there
instead of a number, and every downstream consumer (bootstrap, studies,
CLI) carries that status through rather than masking it.

Interval estimates come in three flavours: percentile bootstrap (whose
heavy right tail under strong heterozygote advantage is the package's
raison d'etre), exact intervals from the monotone homozygosity CDF, whose
endpoints the same safeguarded Newton finds on logit F, and equal-tailed
credible intervals from an independence Metropolis-Hastings posterior
chain over (theta, sigma).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    Homozygosity,
    MutationParams,
    SimplexPoint,
    derive_rng,
    homozygosity,
)
from .density import (
    DEFAULT_ESS_FLOOR,
    WeightedPool,
    Tilt,
    _cdf_logit,
    _cdf_masks,
    _check_k,
    _log_z_tangent,
    _surface,
    _surface_base,
    pool_for_sigma_range,
    tilt,
)
from .sampler import SamplerConfig, _selection_arrays

__all__ = [
    "MleResult",
    "IntervalEstimate",
    "BootstrapResult",
    "PosteriorChain",
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

# The conditional MLE's solve bisects for its bracket over 0 and
# +/-BRACKET_INIT * 2^j (j >= -6), gives up beyond the last of those points
# within +/-SIGMA_CAP (status outside_pool_range) and stops when its
# Newton step or its bracket is below BRACKET_TOL.  The joint MLE searches
# sigma in +/-SIGMA_CAP and stops on steps below BRACKET_TOL too.
BRACKET_TOL = 1e-6
SIGMA_CAP = 1e5
BRACKET_INIT = 64.0
# An exact CI endpoint's Newton solve stops within this of its root.
CI_TOL = 1e-6
# The joint MLE searches theta in this box.
THETA_BOUNDS = (0.1, 50.0)
# Draws of the joint MLE that re-estimates theta in each replicate of a
# joint_refit bootstrap.
JOINT_REFIT_POOL_N = 20_000

# Fewest replicates a bootstrap runs, and fewest post-burn-in draws a
# posterior chain keeps, for a percentile interval to mean anything.
MIN_REPLICATES = 100
MIN_RETAINED = 1000

# A bootstrap with more unbounded replicates than this fraction has a heavy
# tail: its standard error is reported as undefined.
HEAVY_TAIL_FRACTION = 0.2
# Flat priors on a box, used when no prior_bounds are given.  The sigma prior
# covers the heterozygote advantage regime: with theta free and sigma allowed
# far below zero, the likelihood carries a genuine ridge at (large theta,
# sigma < 0) that the reference analyses never sampled; widen explicitly to
# explore it.
DEFAULT_PRIOR_BOUNDS = ((0.0, 50.0), (0.0, 1000.0))
# The Laplace sigma proposal's scale, in widths of the 95% exact CI at the mode's theta.
PROPOSAL_SCALE_FACTOR = 2.0
# A chain accepting less often than this carries a "proposal-mistuned" note.
ACCEPTANCE_FLAG = 0.02
# The posterior chain rejects a proposal without a pool pass when the tangent
# bound on its log-posterior is below the acceptance threshold by more than
# this many log-units (rounding in the bound is about 1e-12).  The bound takes
# the highest tangent plane of log Z among the last TANGENT_RING full passes.
TANGENT_MARGIN = 1e-6
TANGENT_RING = 64
# The joint MLE's pilot pool and a joint posterior chain's pool are centered
# on _LADDER_RUNGS concentrations geometric over the theta box; the pilot has
# 1/_PILOT_SHARE of pool_n draws.  Both Newton searches start from
# theta = _THETA_START, sigma = 0.
_LADDER_RUNGS = 6
_PILOT_SHARE = 5
_THETA_START = 5.0
# A bound on one surface search's Newton iterations (from those starts, under ten).
_NEWTON_ITERATIONS = 100


@dataclass(frozen=True)
class MleResult:
    """Point estimate with convergence/instability status.

    ``converged`` guarantees the score changed sign across ``bracket`` and
    ``sigma_hat`` lies inside it.  Where the solve stopped on a certified
    Newton point, no pass was made at ``sigma_hat``: ``ess_at_solution``
    is the last pass's, a step D of at most sqrt(2 BRACKET_TOL / R) (a few
    thousandths) away, and ``score_at_solution`` is the residual that pass
    predicts there, f + f' D, with an error of at most
    |f'| (e^x - 1 - x) / R for x = R|D| and R = h_max - h_min
    (``_g_step_error``).  Otherwise both come from the pass at
    ``sigma_hat``.  ``unbounded_above``/``unbounded_below`` are the
    empirical image of the likelihood singularity: the observed
    homozygosity sits at the pool's floor/ceiling and no finite intensity
    matches it.  ``outside_pool_range`` means a root exists but beyond the
    search cap ``SIGMA_CAP``.
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
    """An MCMC trace over (theta, sigma) with full provenance.

    ``mode`` is the posterior mode (theta, sigma), found on the chain's own
    likelihood pool before the chain starts there.  ``pool_passes`` counts the
    chain's full likelihood passes, one per proposal the tangent bound could
    not reject plus one at the start.
    """

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
    mode: tuple[float, float]
    pool_seed: int
    pool_n: int
    pool_concentrations: tuple[float, ...]
    pool_passes: int
    notes: tuple[str, ...] = ()

    def __len__(self) -> int:
        return self.sigmas.size

    def to_csv(self, path: str) -> None:
        # tolist() gives Python floats, whose repr is the plain shortest
        # round-trip decimal; a NumPy 2 scalar's repr reads np.float64(...).
        rows = zip(self.thetas.tolist(), self.sigmas.tolist(), self.log_posterior.tolist(), self.accepted.tolist())
        with open(path, "w") as fh:
            fh.write("iteration,theta,sigma,log_posterior,accepted\n")
            for i, (theta, sigma, lp, accepted) in enumerate(rows):
                fh.write(f"{i},{theta!r},{sigma!r},{lp!r},{int(accepted)}\n")

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
class JointMleConfig:
    pool_n: int = 100_000


@dataclass(frozen=True)
class BootstrapConfig:
    level: float = 0.95
    pool_n: int = 100_000
    joint_refit: bool = False
    sampler: SamplerConfig = field(default_factory=SamplerConfig)


@dataclass(frozen=True)
class MonotoneCiConfig:
    sigma_range: tuple[float, float] = (-500.0, 2000.0)


@dataclass(frozen=True)
class PosteriorConfig:
    burn_in: int = 1000
    pool_n: int = 100_000
    theta_fixed: float | None = None


class GSigmaTable:
    """The passes of every ``mle_sigma`` solve on one pool, kept for the next solve.

    The caller owns the table and hands it to each solve on ``pool``; a
    solve without one starts from an empty table of its own.  Every pass a
    solve makes lands here: at the bracket points 0 and
    +/-BRACKET_INIT * 2^j (j >= -6), at its Newton iterates and at
    +/-SIGMA_CAP; a certified Newton point that ends a solve gets no pass.
    ``sigmas`` holds them in ascending order, and ``at`` makes a pass only
    where none is recorded.  A solve through a table keeps the status of a
    cold solve and its root moves by at most BRACKET_TOL, but which passes
    are recorded depends on the order of the solves, so a caller that wants
    reproducible numbers solves in a fixed order.
    """

    def __init__(self, pool: WeightedPool):
        self.pool = pool
        self.sigmas: list[float] = []
        self.passes: dict[float, Tilt] = {}

    def at(self, sigma: float) -> Tilt:
        t = self.passes.get(sigma)
        if t is None:
            t = self.passes[sigma] = tilt(self.pool, sigma)
            bisect.insort(self.sigmas, sigma)
        return t


def _g_step_error(spread: float, step: float) -> float:
    """Certified distance from a Newton point on g(sigma) = h to the root.

    With R = ``spread`` = h_max - h_min, g'' = E_w[(h - g)^3] and
    |h - g| <= R give |g''| <= R |g'|, so over any u, |g'(sigma + u)| lies
    within a factor e^{R|u|} of |g'(sigma)|, with one sign.  For the Newton
    step D = -f/f' from sigma (f = g - h) and x = R|D|, integrating twice:

        |f(sigma + D)| <= |f'(sigma)| (e^x - 1 - x) / R, and
        |f(sigma + D)| >= |f'(sigma)| e^-x (1 - e^{-R|e|}) / R

    for the root's distance e from sigma + D.  So with
    Q = e^x (e^x - 1 - x) < 1, |e| <= -log(1 - Q) / R, about R D^2 / 2.
    """
    x = spread * abs(step)
    q = math.exp(x) * (math.expm1(x) - x)
    return -math.log1p(-q) / spread if q < 1.0 else math.inf


def _logit_step_error(curvature: float, slope: float, step: float) -> float:
    """Certified distance from a Newton point on logit F(sigma) = goal to the root.

    ``curvature`` bounds |f''|: for logit F, f' = E_w[h | above] -
    E_w[h | below] and f'' = Var_w(h | below) - Var_w(h | above), each
    variance at most R^2 / 4 by Popoviciu's inequality.  From sigma, with
    the Newton step D, |f(sigma + D)| <= curvature D^2 / 2.  While
    m = |f'(sigma)| - 2 curvature |D| > 0, |f'| exceeds m within 2|D| of
    sigma, so a root within |D| of sigma + D lies within
    b = curvature D^2 / (2 m) of it.  A root farther off would leave a
    residual of at least m |D| there, which exceeds curvature D^2 / 2
    exactly when b < |D|; so b bounds the distance where it is below |D|.
    """
    m = abs(slope) - 2.0 * curvature * abs(step)
    b = curvature * step * step / (2.0 * m) if m > 0.0 else math.inf
    return b if b < abs(step) else math.inf


def _newton(at, residual, sigma: float, t, lo: float, hi: float, tol: float, error) -> tuple:
    """Safeguarded Newton on a non-increasing residual whose root lies in [lo, hi].

    ``at(sigma)`` makes one pool pass; ``residual(pass)`` reads the residual
    and its slope in sigma from it; ``t`` is the pass at the start
    ``sigma``.  Each iterate's residual sign moves one end of the bracket,
    so the bracket keeps a certified sign change.  A step that leaves the
    bracket, has no negative slope to follow or fails to halve the step two
    before is replaced by bisection.  Stops at a zero residual or when a
    Newton step or the bracket is below ``tol``, at the last iterate; and,
    without a pass there, at a Newton point sigma + step inside the bracket
    that ``error(slope, step)``, the caller's bound on that point's
    distance from the root, certifies within ``tol``.  Returns the point,
    the last pass, the step from that pass's sigma to the point (0 at an
    iterate) and the bracket, inside which the point lies.
    """
    last_step = older_step = math.inf
    while True:
        f, df = residual(t)
        if f > 0.0:
            lo = sigma
        elif f < 0.0:
            hi = sigma
        else:
            break
        step = -f / df if df < 0.0 else math.inf
        nxt = sigma + step
        newton = lo < nxt < hi and abs(step) <= 0.5 * older_step
        if newton:
            if abs(step) < tol:
                break
        else:
            nxt = 0.5 * (lo + hi)
            step = nxt - sigma
        if hi - lo < tol or not lo < nxt < hi:
            break
        if newton and error(df, step) <= tol:
            return nxt, t, nxt - sigma, lo, hi
        older_step, last_step = last_step, abs(step)
        sigma, t = nxt, at(nxt)
    return sigma, t, 0.0, lo, hi


def mle_sigma(h: Homozygosity, pool: WeightedPool, sweep: GSigmaTable | None = None) -> MleResult:
    """Conditional MLE of the selection intensity given the pool's mutation rate.

    Solves g(sigma) = h on the exactly monotone empirical g; for another
    mutation rate, pass ``pool.reweighted(theta)``.  One bisection over the
    ascending points 0 and +/-BRACKET_INIT * 2^j (j >= -6) within
    +/-SIGMA_CAP finds adjacent points with g(lo) >= h > g(hi), so the
    bracket is one octave (or 0 and BRACKET_INIT / 64) and a point where g
    equals h is its lower end; a root past either end is reported as
    outside the pool's range.  A caller solving many h on one pool passes
    its ``GSigmaTable`` of that pool as ``sweep`` (a table of another pool
    is a ValueError); without one the solve is cold.  The solve takes every
    pass from the table, which records it, and a bisection of the table's
    sorted passes on g narrows the octave to the nearest recorded passes on
    either side of h.  They are real passes on the same pool, so the
    bracket stays certified; the root moves within BRACKET_TOL of the cold
    solve's.  Newton steps (g' comes from the same pass) then run inside
    the bracket from an inverse Hermite interpolation of its ends, with
    bisection whenever a step leaves the bracket or fails to halve the step
    two before.  The solve stops when a Newton step or the bracket is below
    BRACKET_TOL, or, without a pass there, at a Newton point that g's
    curvature bound |g''| <= (h_max - h_min) |g'| certifies within
    BRACKET_TOL of the root (``_g_step_error``).  The returned bracket keeps
    a certified sign change with the estimate strictly inside it; the ESS
    comes from the last pass and the score is the residual that pass
    predicts at the estimate (``MleResult``).  Statuses replace
    exceptions; callers must branch on ``status``.
    """
    _check_k(h, pool)
    table = GSigmaTable(pool) if sweep is None else sweep
    if table.pool is not pool:
        raise ValueError("mle_sigma: the sweep table belongs to another pool")
    hv = float(h.value)
    margin_lo, margin_hi = pool.support_margin
    if hv <= pool.h_min + margin_lo:
        return MleResult(
            sigma_hat=math.inf,
            theta_hat=None,
            status=STATUS_UNBOUNDED_ABOVE,
            score_at_solution=math.nan,
            bracket=(SIGMA_CAP, math.inf),
            ess_at_solution=math.nan,
            notes=(f"h={hv:.6g} at or below pool floor {pool.h_min:.6g}+{margin_lo:.2g}",),
        )
    if hv >= pool.h_max - margin_hi:
        return MleResult(
            sigma_hat=-math.inf,
            theta_hat=None,
            status=STATUS_UNBOUNDED_BELOW,
            score_at_solution=math.nan,
            bracket=(-math.inf, -SIGMA_CAP),
            ess_at_solution=math.nan,
            notes=(f"h={hv:.6g} at or above pool ceiling {pool.h_max:.6g}-{margin_hi:.2g}",),
        )

    def outside(cap: float, note: str) -> MleResult:
        t = table.at(cap)
        return MleResult(
            sigma_hat=cap,
            theta_hat=None,
            status=STATUS_OUTSIDE_POOL_RANGE,
            score_at_solution=t.g - hv,
            bracket=(cap, math.inf) if cap > 0 else (-math.inf, cap),
            ess_at_solution=t.ess,
            notes=(note,),
        )

    # The points are built here, not once, because they follow the constants.
    ladder = []
    point = BRACKET_INIT / 64.0
    while point <= SIGMA_CAP:
        ladder.append(point)
        point *= 2.0
    points = [-p for p in reversed(ladder)] + [0.0] + ladder
    i, j = -1, len(points)
    while j - i > 1:
        mid = (i + j) // 2
        t = table.at(points[mid])
        if t.g >= hv:
            i, t_lo = mid, t
        else:
            j, t_hi = mid, t
    if i < 0:
        return outside(-SIGMA_CAP, "below-cap")
    if j == len(points):
        return outside(SIGMA_CAP, "above-cap")
    lo, hi = points[i], points[j]
    # Recorded passes inside the octave narrow it, by the same test: g is
    # non-increasing along the sorted sigmas, so the first of them with g
    # below h is found by bisection, and none is left inside the bracket.
    sigmas, passes = table.sigmas, table.passes
    first, end = bisect.bisect_right(sigmas, lo), bisect.bisect_left(sigmas, hi)
    cut = bisect.bisect_right(sigmas, -hv, first, end, key=lambda s: -passes[s].g)
    if cut > first:
        lo = sigmas[cut - 1]
        t_lo = passes[lo]
    if cut < end:
        hi = sigmas[cut]
        t_hi = passes[hi]

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
    t = t_lo if sigma == lo else t_hi if sigma == hi else table.at(sigma)

    # Safeguarded Newton from there, stopping on the certificate of g's curvature.
    spread = pool.h_max - pool.h_min
    sigma, t, step, lo, hi = _newton(
        table.at, lambda p: (p.g - hv, p.dg), sigma, t, lo, hi, BRACKET_TOL,
        lambda slope, step: _g_step_error(spread, step),
    )

    if t.ess < DEFAULT_ESS_FLOOR:
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
            notes=(f"ess {t.ess:.1f} below floor {DEFAULT_ESS_FLOOR:g} at sigma={sigma:.4g}",),
        )
    return MleResult(
        sigma_hat=sigma,
        theta_hat=None,
        status=STATUS_CONVERGED,
        score_at_solution=t.g - hv + t.dg * step,
        bracket=(lo, hi),
        ess_at_solution=t.ess,
    )


def _maximize_surface(
    pool: WeightedPool,
    x: SimplexPoint,
    start: tuple[float, float],
    theta_box: tuple[float, float],
    sigma_box: tuple[float, float],
) -> tuple[float, float]:
    """Maximize the pool's log-likelihood surface over (theta, sigma) in a box.

    The surface is concave in (a, sigma), a = theta/k, with gradient T(x) - E_w[T]
    and Hessian -Cov_w(T) for T = (s, -h) from one ``_surface`` pass.  Safeguarded
    Newton: a coordinate at a bound whose gradient points outward is held there; the
    others step, projected onto the box and halved until the surface does not
    decrease, until a step moves theta and sigma by less than BRACKET_TOL.
    """
    k = x.k
    tx = np.array([np.log(x.as_array()).sum(), -homozygosity(x).value])
    lo, hi = np.array([theta_box, sigma_box]).T / [k, 1.0]
    tol = BRACKET_TOL / np.array([k, 1.0])
    flip = np.array([1.0, -1.0])

    def evaluate(eta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        log_z, mean, cov, _ = _surface(pool, float(eta[0]), float(eta[1]))
        return (eta[0] - 1.0) * tx[0] + eta[1] * tx[1] - log_z, tx - flip * mean, cov * np.outer(flip, flip)

    eta = np.clip([start[0] / k, start[1]], lo, hi)
    value, grad, cov = evaluate(eta)
    for _ in range(_NEWTON_ITERATIONS):
        free = ~(((eta <= lo) & (grad <= 0.0)) | ((eta >= hi) & (grad >= 0.0)))
        step = np.zeros(2)
        step[free] = np.linalg.pinv(cov[np.ix_(free, free)]) @ grad[free]
        while True:
            trial = np.clip(eta + step, lo, hi)
            if np.all(np.abs(trial - eta) < tol):
                return float(trial[0]) * k, float(trial[1])
            t_value, t_grad, t_cov = evaluate(trial)
            if t_value >= value:
                break
            step *= 0.5
        eta, value, grad, cov = trial, t_value, t_grad, t_cov
    return float(eta[0]) * k, float(eta[1])


def _ladder(theta_box: tuple[float, float], k: int) -> tuple[float, ...]:
    """The concentrations theta/k of _LADDER_RUNGS thetas geometric over the theta box."""
    return tuple(float(a) for a in np.geomspace(*theta_box, _LADDER_RUNGS) / k)


def mle_joint(
    x: SimplexPoint,
    seed: int,
    config: JointMleConfig | None = None,
) -> MleResult:
    """Joint MLE of (theta, sigma) by Newton's method on the likelihood surface of two pools.

    A small pilot pool over a ladder of concentrations spanning the theta
    box locates the optimum; a full-size pool at the pilot theta, reaching
    down to twice a negative pilot sigma, refines it.  Sigma, the status,
    the bracket, the score and the ESS come from ``mle_sigma`` on that pool
    reweighted to theta-hat, whose root is the same point.  Data in the
    pilot pool's homozygosity fringe are unbounded in sigma at every theta.
    """
    config = config or JointMleConfig()
    if config.pool_n < 1:
        raise ValueError(f"pool size must be at least 1, got {config.pool_n}")
    k = x.k
    h = homozygosity(x)
    theta_box = THETA_BOUNDS
    sigma_box = (-SIGMA_CAP, SIGMA_CAP)
    rungs = _ladder(theta_box, k)
    # Up to SIGMA_CAP, the defensive concentrations join those aimed at theta: a lone a = theta/k
    # proposal at small theta draws only near-vertex populations, blind to moderate homozygosities.
    pilot_n = max(config.pool_n // _PILOT_SHARE, 1)
    pilot = pool_for_sigma_range(MutationParams.symmetric(_THETA_START, k), pilot_n, seed, sigma_hi=SIGMA_CAP, centers=rungs)
    margin_lo, margin_hi = pilot.support_margin
    if not pilot.h_min + margin_lo < h.value < pilot.h_max - margin_hi:
        # The data sit at the singular composition itself, not in one theta's blind spot.
        inner = mle_sigma(h, pilot)
        return replace(inner, notes=inner.notes + ("likelihood unbounded in sigma at every theta",))
    theta, sigma = _maximize_surface(pilot, x, (_THETA_START, 0.0), theta_box, sigma_box)

    pool = pool_for_sigma_range(
        MutationParams.symmetric(theta, k), config.pool_n, _subseed(seed, 1),
        sigma_lo=min(0.0, 2.0 * sigma), sigma_hi=SIGMA_CAP,
    )
    theta_hat, _ = _maximize_surface(pool, x, (theta, sigma), theta_box, sigma_box)
    inner = mle_sigma(h, pool.reweighted(MutationParams.symmetric(theta_hat, k)))
    notes = inner.notes
    if min(theta_hat - theta_box[0], theta_box[1] - theta_hat) < BRACKET_TOL:
        notes = notes + ("theta-at-bound: outer optimum sits at a search bound",)
    return replace(inner, theta_hat=theta_hat, notes=notes)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")


def _check_retained(retained: int) -> None:
    """A chain keeping ``retained`` draws after burn-in can be summarized."""
    if retained < MIN_RETAINED:
        raise ValueError(f"need at least {MIN_RETAINED} retained draws to summarize, got {retained}")


def _check_chain_length(chain_length: int, burn_in: int, name: str) -> None:
    """A chain of ``chain_length`` draws keeps enough after ``burn_in``; ``name`` is the caller's word for it."""
    if chain_length - burn_in < MIN_RETAINED:
        raise ValueError(
            f"{name} must exceed the burn-in of {burn_in} by at least {MIN_RETAINED} retained draws, got {chain_length}"
        )


def _check_replicates(m: int) -> None:
    if m < MIN_REPLICATES:
        raise ValueError(f"bootstrap needs m >= {MIN_REPLICATES} replicates")


def _check_alphas(alpha1: float, alpha2: float) -> None:
    # alpha1 + alpha2 == 1 is the degenerate boundary: both quantile
    # equations coincide at the median-matching intensity.
    if not (0.0 < alpha1 and 0.0 < alpha2 and alpha1 + alpha2 <= 1.0):
        raise ValueError("need alpha1 > 0, alpha2 > 0 and alpha1 + alpha2 <= 1")


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


def _replicate_mles(h_values: np.ndarray, k: int, pool: WeightedPool) -> list[MleResult]:
    # One table, solved through in replicate order, so the results are reproducible.
    table = GSigmaTable(pool)
    return [mle_sigma(Homozygosity(value=float(hv), k=k), pool, sweep=table) for hv in h_values]


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
    _check_level(config.level)
    _check_replicates(m)
    params = MutationParams.symmetric(theta, k)
    gen_seed = _subseed(seed, 2)
    draws, gen_report = _selection_arrays(params, sigma, m, gen_seed, config.sampler)
    h_values = np.einsum("ij,ij->i", draws, draws)

    if config.joint_refit:
        joint_cfg = JointMleConfig(pool_n=JOINT_REFIT_POOL_N)
        estimates = [mle_joint(SimplexPoint(row), _subseed(seed, 3, j), joint_cfg) for j, row in enumerate(draws)]
    else:
        pool = pool_for_sigma_range(params, config.pool_n, _subseed(seed, 1), sigma_lo=-SIGMA_CAP, sigma_hi=SIGMA_CAP)
        estimates = _replicate_mles(h_values, k, pool)

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
    heavy = n_unbounded > HEAVY_TAIL_FRACTION * m
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
    F(h | lower) = alpha1 and F(h | upper) = 1 - alpha2 on the exactly
    monotone empirical CDF.  Each endpoint is a safeguarded Newton solve
    (``mle_sigma``'s) on logit F, whose slope comes with F from one pass,
    inside the search range and from its own end of it; it stops within
    CI_TOL of the root, at the latest on a Newton point that the curvature
    bound |(logit F)''| <= (h_max - h_min)^2 / 4 certifies there, without
    a pass at it (``_logit_step_error``).  The search range includes
    negative intensities; an endpoint pinned at a range bound carries a
    widen-range advisory note.
    """
    config = config or MonotoneCiConfig()
    _check_alphas(alpha1, alpha2)
    _check_k(h, pool)
    s_lo, s_hi = config.sigma_range
    at = functools.partial(_cdf_logit, pool, masks=_cdf_masks(pool, float(h.value)))
    end_lo, end_hi = at(s_lo), at(s_hi)
    f_lo, f_hi = end_lo[0], end_hi[0]
    error = functools.partial(_logit_step_error, 0.25 * (pool.h_max - pool.h_min) ** 2)
    notes: list[str] = []

    def solve(target: float, label: str, start: float, t: tuple) -> float:
        if f_lo > target:
            notes.append(f"{label}-endpoint-at-range-bound: F({s_lo:g})={f_lo:.4g} > {target:g}; widen sigma_range")
            return s_lo
        if f_hi < target:
            notes.append(f"{label}-endpoint-at-range-bound: F({s_hi:g})={f_hi:.4g} < {target:g}; widen sigma_range")
            return s_hi
        goal = math.log(target / (1.0 - target))
        return _newton(at, lambda p: (goal - p[1], -p[2]), start, t, s_lo, s_hi, CI_TOL, error)[0]

    # Each solve starts from its own end of the range, where logit F is
    # close to linear in sigma.  Both land within CI_TOL of their roots,
    # which are ordered, so a crossing (equal targets, say) is below CI_TOL.
    lower = solve(alpha1, "lower", s_lo, end_lo)
    upper = max(solve(1.0 - alpha2, "upper", s_hi, end_hi), lower)
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
    random numbers in the strongest sense).  The chain starts at the
    posterior mode on that pool, where its sigma proposal is centered, and
    the exact CI on the pool reweighted to the mode's theta scales that
    proposal.  Credible intervals are prior-bound-sensitive; the bounds are
    stamped into the chain.
    """
    config = config or PosteriorConfig()
    theta_box, sigma_box = prior_bounds if prior_bounds is not None else DEFAULT_PRIOR_BOUNDS
    if not all(math.isfinite(v) for v in (*theta_box, *sigma_box)):
        raise ValueError("uniform priors must be proper: finite bounds required")
    if not (theta_box[0] < theta_box[1] and sigma_box[0] < sigma_box[1]):
        # The truncated proposal below would redraw forever in an empty box.
        raise ValueError(
            f"prior bounds must be ordered lower < upper: theta {tuple(theta_box)}, sigma {tuple(sigma_box)}"
        )
    if theta_box[0] < 0.0:
        # A mutation rate is positive; proposals below 0 would all land on one atom near 0.
        raise ValueError(f"theta prior box must lie in theta >= 0, got {tuple(theta_box)}")
    if config.theta_fixed is not None and not theta_box[0] < config.theta_fixed <= theta_box[1]:
        raise ValueError(f"theta_fixed {config.theta_fixed} lies outside the theta prior box {tuple(theta_box)}")
    if config.burn_in < 0:
        raise ValueError(f"burn_in must be at least 0, got {config.burn_in}")
    if chain_length <= config.burn_in + 10:
        raise ValueError("chain_length must comfortably exceed burn_in")
    k = x.k
    h = homozygosity(x)
    theta_fixed = config.theta_fixed

    # The chain's one likelihood pool covers both sign regimes over +/-SIGMA_CAP,
    # whatever the sigma prior box.  A joint chain's is centered on the joint MLE's
    # ladder over the theta box, every theta the chain proposes; a fixed-theta
    # chain's on theta/k.
    if theta_fixed is None:
        theta_start, centers = _THETA_START, _ladder((max(0.1, theta_box[0]), theta_box[1]), k)
        mode_box = (max(theta_box[0], 1e-3), theta_box[1])
    else:
        theta_start, centers = float(theta_fixed), None
        mode_box = (theta_start, theta_start)
    pool = pool_for_sigma_range(
        MutationParams.symmetric(theta_start, k), config.pool_n, _subseed(seed, 6), -SIGMA_CAP, SIGMA_CAP, centers=centers
    )
    # The mode maximizes the pool's concave likelihood surface over the prior box;
    # under flat priors it is the constrained joint MLE.
    theta_mode, center = _maximize_surface(pool, x, (theta_start, 0.0), mode_box, sigma_box)
    theta_mode = theta_mode if theta_fixed is None else theta_start
    ci_config = MonotoneCiConfig(sigma_range=(sigma_box[0] - 1.0, max(sigma_box[1], 2000.0)))
    ci = monotone_ci(h, pool.reweighted(MutationParams.symmetric(theta_mode, k)), 0.025, 0.025, ci_config)
    scale = PROPOSAL_SCALE_FACTOR * max(ci.width, 1.0)
    scale = float(np.clip(scale, 5.0, 4.0 * (sigma_box[1] - sigma_box[0])))

    # log Z(a, sigma) is a log-sum-exp of functions affine in (a, sigma), so it
    # is convex, and the tangent plane of every full pass lies below it: the
    # highest plane in the ring bounds each proposal's log-posterior from
    # above.  A proposal whose bound cannot reach the acceptance threshold is
    # one the exact test rejects too, and costs no pass.  A fixed-theta chain
    # keeps its sigma = 0 log-weights.
    sx = float(np.log(x.as_array()).sum())
    log_n = math.log(pool.n)
    base: dict[float, np.ndarray] = {}
    tangents = np.empty((TANGENT_RING, 3))
    passes = 0

    def log_post(theta: float, sigma: float) -> float:
        nonlocal passes
        a = theta / k
        if theta not in base:
            base.clear()
            base[theta] = _surface_base(pool, a)
        lz, es, eh = _log_z_tangent(base[theta], pool.s, pool.h, sigma)
        # A row is the plane's (intercept, d/da, d/dsigma).
        tangents[passes % TANGENT_RING] = (lz - a * es + sigma * eh, es, -eh)
        passes += 1
        return (a - 1.0) * sx - sigma * h.value - lz + log_n

    def log_post_bound(theta: float, sigma: float) -> float:
        a = theta / k
        return (a - 1.0) * sx - sigma * h.value - float((tangents @ (1.0, a, sigma)).max()) + log_n

    rng = derive_rng(seed, 7)
    total = int(chain_length)
    retained = total - config.burn_in

    if theta_fixed is None:
        theta_props = np.maximum(rng.uniform(theta_box[0], theta_box[1], size=total), 1e-9)  # open lower bound
    else:
        theta_props = np.full(total, float(theta_fixed))
    sigma_props = np.empty(total)
    bad = np.ones(total, dtype=bool)
    while bad.any():
        u = rng.random(int(bad.sum())) - 0.5
        sigma_props[bad] = center - scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
        bad = (sigma_props < sigma_box[0]) | (sigma_props > sigma_box[1])
    log_u = np.log(rng.random(total))
    log_q = -np.abs(sigma_props - center) / scale

    theta_cur, sigma_cur, lq_cur = theta_mode, center, 0.0
    lp_cur = log_post(theta_cur, sigma_cur)
    tangents[1:] = tangents[0]

    thetas = np.empty(retained)
    sigmas = np.empty(retained)
    lps = np.empty(retained)
    accs = np.zeros(retained, dtype=bool)
    n_accept = 0
    for t in range(total):
        theta_t, sigma_t = float(theta_props[t]), float(sigma_props[t])
        threshold = log_u[t] + lp_cur + (log_q[t] - lq_cur)
        if log_post_bound(theta_t, sigma_t) < threshold - TANGENT_MARGIN:
            accepted = False
        else:
            lp_prop = log_post(theta_t, sigma_t)
            accepted = log_u[t] < (lp_prop - lp_cur) - (log_q[t] - lq_cur)
        if accepted:
            theta_cur = theta_t
            sigma_cur = sigma_t
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
    if rate < ACCEPTANCE_FLAG:
        notes = (f"proposal-mistuned: acceptance rate {rate:.4f} below {ACCEPTANCE_FLAG}",)
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
        mode=(theta_mode, center),
        pool_seed=pool.seed,
        pool_n=pool.n,
        pool_concentrations=pool.concentrations,
        pool_passes=passes,
        notes=notes,
    )


def posterior_summary(chain: PosteriorChain, level: float = 0.95) -> tuple[IntervalEstimate, tuple[float, float]]:
    """Equal-tailed credible interval for sigma plus the chain's posterior mode."""
    _check_level(level)
    _check_retained(len(chain))
    alpha = 1.0 - level
    lo, hi = np.quantile(chain.sigmas, [alpha / 2.0, 1.0 - alpha / 2.0])
    interval = IntervalEstimate(
        lower=float(lo),
        upper=float(hi),
        level=level,
        method="credible",
        alpha_split=(alpha / 2.0, alpha / 2.0),
    )
    return interval, chain.mode
