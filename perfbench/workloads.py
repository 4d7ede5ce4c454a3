"""The four benchmark workloads, each with its own independent correctness checks.

A workload runs rounds.  A round is a fixed list of operations (public
kallele calls) whose inputs derive from the run seed and the round index;
``run_round`` returns the round's answers, and ``check`` compares answers
with computations that do not use kallele's pool machinery (randomized QMC
over the simplex, exact Dirichlet moments, a quadrature of the posterior)
or with properties the method guarantees (monotonicity, consistency of
reported summaries with per-replicate results).  ``check`` returns a list of
failure messages; an empty list means every answer passed.

Each round also yields ``units`` (the workload's unit of work, for
``ops_per_s``), ``effective`` (the effective draws behind its answers, for
``effective_draws``) and ``layer`` (per-layer figures that no span gives).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.special import gammaln

import kallele.cli
import kallele.inference as inference
from kallele.core import MutationParams, bundled_dataset, homozygosity
from kallele.density import pool_for_sigma_range
from kallele.sampler import SamplerConfig

import calib
from qmc import SimplexQmc, geyer_ess

# Allowed deviation of an estimate from its reference, in combined standard errors.
Z = 5.0
HERE = os.path.dirname(os.path.abspath(__file__))


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def round_seed(seed: int, r: int) -> int:
    return int(seed) * 1000 + r


def _within(value: float, ref: float, se: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= Z * se


@dataclass
class Op:
    """One public call of a round: its label and its answer (None if it raised)."""

    label: str
    answer: object = None
    error: str | None = None
    start: float = 0.0
    end: float = 0.0
    wall: float = 0.0      # seconds on this machine, less the time spent sampling
    scaled: float = 0.0    # reference seconds: wall over the machine's slowdown


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    units: float = 0.0
    effective: float = 0.0
    layer: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def call(self, label: str, fn, *args, **kwargs):
        op = Op(label)
        self.ops.append(op)
        spent, op.start = calib.spent(), perf_counter()
        try:
            op.answer = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        op.end = perf_counter()
        op.wall = op.end - op.start - (calib.spent() - spent)
        return op.answer

    def scale(self) -> None:
        """Set each call's time in reference seconds from the speed sampled during it."""
        for op in self.ops:
            op.scaled = op.wall / calib.slowdown_during(op.start, op.end)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def scaled(self) -> float:
        return sum(op.scaled for op in self.ops)


# ----------------------------------------------------------------- bootstrap

BOOT_GENERATORS = (("lyme", 4.8, 35.1, 4), ("kir", 6.24, 53.5, 8))
BOOT_M = 200
BOOT_POOL = 100_000
# At k=8, theta=6.24 the independence-MH route (sigma above the switch at 50)
# sticks on some seeds, so the KIR replicates are drawn by exact rejection:
# the switch is raised just above the generator's sigma.
BOOT_SAMPLER = {"lyme": None, "kir": SamplerConfig(sigma_switch=60.0)}


class Bootstrap:
    """Parametric bootstrap at the Lyme and KIR generators on a 100k pool."""

    name = "bootstrap"

    def run_round(self, seed: int, r: int, workdir: str) -> Round:
        rnd = Round()
        # The replicate homozygosities are the inputs of the per-replicate
        # solves; record them on the way in (a pass-through, also untraced).
        seen: list[float] = []
        solve = inference.mle_sigma

        def recording(h, *args, **kwargs):
            seen.append(float(h.value))
            return solve(h, *args, **kwargs)

        inference.mle_sigma = recording
        try:
            for i, (label, theta, sigma, k) in enumerate(BOOT_GENERATORS):
                del seen[:]
                res = rnd.call(label, inference.bootstrap, theta, sigma, k, BOOT_M,
                               round_seed(seed, r) * 10 + i,
                               boot_config(label))
                rnd.extra[label] = list(seen)
                rnd.units += BOOT_M if res is not None else 0
        finally:
            inference.mle_sigma = solve
        return rnd

    def summarize(self, rnd: Round) -> None:
        # Median ESS at the converged replicates of each generator, summed.
        rnd.effective = sum(
            float(np.median([e.ess_at_solution for e in op.answer.estimates if e.converged]))
            for op in rnd.ops if op.answer is not None
        )

    def check(self, rnd: Round, refs: dict) -> list[str]:
        out = []
        for op, (label, theta, sigma, k) in zip(rnd.ops, BOOT_GENERATORS):
            if op.answer is not None:
                out += check_bootstrap(label, op.answer, rnd.extra[label],
                                       refs["bootstrap"][label])
        return out


def boot_config(label: str) -> inference.BootstrapConfig:
    if BOOT_SAMPLER[label] is None:
        return inference.BootstrapConfig(pool_n=BOOT_POOL)
    return inference.BootstrapConfig(pool_n=BOOT_POOL, sampler=BOOT_SAMPLER[label])


def percentile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation quantile; an infinite neighbour wins over interpolation."""
    pos = q * (len(sorted_vals) - 1)
    i = math.floor(pos)
    if pos == i or i + 1 >= len(sorted_vals):
        return sorted_vals[min(i, len(sorted_vals) - 1)]
    a, b = sorted_vals[i], sorted_vals[i + 1]
    if math.isinf(b):
        return b
    if math.isinf(a):
        return a
    return a + (pos - i) * (b - a)


def check_bootstrap(label: str, res, hs: list[float], ref: dict) -> list[str]:
    out = []
    est = res.estimates
    if len(hs) != len(est):
        return [f"bootstrap[{label}]: saw {len(hs)} replicate solves for {len(est)} estimates"]
    conv = sorted((h, e.sigma_hat) for h, e in zip(hs, est) if e.converged)
    # On one shared pool g is exactly monotone, so the root is non-increasing
    # in h up to the bisection tolerance.
    for (h1, s1), (h2, s2) in zip(conv, conv[1:]):
        if s2 > s1 + 1e-3:
            out.append(f"bootstrap[{label}]: sigma_hat rises from {s1:.6g} at h={h1:.6g} "
                       f"to {s2:.6g} at h={h2:.6g}")
            break
    above = [h for h, e in zip(hs, est) if e.status == "unbounded_above"]
    below = [h for h, e in zip(hs, est) if e.status == "unbounded_below"]
    if conv and above and max(above) >= conv[0][0]:
        out.append(f"bootstrap[{label}]: unbounded_above replicate at h={max(above):.6g} "
                   f"not below every converged h (min {conv[0][0]:.6g})")
    if conv and below and min(below) <= conv[-1][0]:
        out.append(f"bootstrap[{label}]: unbounded_below replicate at h={min(below):.6g} "
                   f"not above every converged h (max {conv[-1][0]:.6g})")
    n_unb = len(above) + len(below)
    if res.n_unbounded != n_unb:
        out.append(f"bootstrap[{label}]: n_unbounded {res.n_unbounded} != {n_unb} from statuses")
    vals = sorted(e.sigma_hat if e.converged else math.copysign(math.inf, e.sigma_hat) for e in est)
    iv = res.percentile_interval
    a = (1.0 - iv.level) / 2.0
    lo, hi = percentile(vals, a), percentile(vals, 1.0 - a)
    if not (math.isclose(lo, iv.lower, rel_tol=1e-12) and math.isclose(hi, iv.upper, rel_tol=1e-12)):
        out.append(f"bootstrap[{label}]: percentile interval ({iv.lower}, {iv.upper}) != "
                   f"({lo}, {hi}) recomputed from replicates")
    h = np.asarray(hs)
    se = float(h.std(ddof=1)) / math.sqrt(geyer_ess(h))
    if not _within(float(h.mean()), ref["g"], math.hypot(se, ref["se"])):
        out.append(f"bootstrap[{label}]: mean replicate h {h.mean():.6g} vs QMC g {ref['g']:.6g} "
                   f"(se {se:.2g})")
    return out


# -------------------------------------------------------------------- mle-ci

MLE_DATASETS = (("lyme", 4), ("kir", 8))
MLE_POOL = 100_000
CI_POOL = 500_000
CI_RANGE = (-500.0, 2000.0)
CI_ALPHA = 0.05


class MleCi:
    """Joint MLE on both datasets, then the exact monotone CI at theta-hat."""

    name = "mle-ci"

    def run_round(self, seed: int, r: int, workdir: str) -> Round:
        rnd = Round()
        s = round_seed(seed, r)
        for label, k in MLE_DATASETS:
            x = bundled_dataset(label)
            mle = rnd.call(f"{label}.mle", inference.mle_joint, x, s,
                           inference.JointMleConfig(pool_n=MLE_POOL))
            if mle is None or mle.theta_hat is None:
                continue
            res = rnd.call(f"{label}.ci", exact_ci, x, mle.theta_hat, s)
            rnd.units += 1 if res is not None else 0
        return rnd

    def summarize(self, rnd: Round) -> None:
        ess = [op.answer.ess_at_solution for op in rnd.ops
               if op.label.endswith(".mle") and op.answer is not None]
        rnd.effective = float(min(ess)) if ess else 0.0
        # Pool standard errors of the CDF at the endpoints, then drop the pools.
        for op in rnd.ops:
            if op.label.endswith(".ci") and op.answer is not None:
                pool, iv = op.answer
                h = homozygosity(bundled_dataset(op.label[:-3])).value
                op.answer = iv
                rnd.extra[op.label] = [cdf_pool_se(pool, s, h) for s in (iv.lower, iv.upper)]

    def check(self, rnd: Round, refs: dict) -> list[str]:
        out = []
        for label, k in MLE_DATASETS:
            mle = _answer(rnd, f"{label}.mle")
            iv = _answer(rnd, f"{label}.ci")
            if mle is None:
                continue
            out += check_mle(label, k, mle)
            if iv is not None:
                out += check_ci(label, k, mle.theta_hat, iv, rnd.extra[f"{label}.ci"])
        return out


def exact_ci(x, theta: float, seed: int):
    """The monotone-ci path of the CLI: a pool at theta, then the exact interval."""
    pool = pool_for_sigma_range(MutationParams.symmetric(theta, x.k), CI_POOL, seed,
                                sigma_lo=CI_RANGE[0], sigma_hi=CI_RANGE[1])
    iv = inference.monotone_ci(homozygosity(x), pool, CI_ALPHA / 2, CI_ALPHA / 2,
                               inference.MonotoneCiConfig(sigma_range=CI_RANGE))
    return pool, iv


def _answer(rnd: Round, label: str):
    for op in rnd.ops:
        if op.label == label:
            return op.answer
    return None


def cdf_pool_se(pool, sigma: float, h: float) -> float:
    """Delta-method standard error of the pool's self-normalized CDF estimate."""
    lw = pool.b - sigma * pool.h
    w = np.exp(lw - lw.max())
    w /= w.sum()
    ind = pool.h <= h
    f = float(w[ind].sum())
    return float(np.sqrt(np.sum((w * (ind - f)) ** 2)))


_QMC: dict[int, SimplexQmc] = {}


def qmc_for(k: int) -> SimplexQmc:
    if k not in _QMC:
        _QMC[k] = SimplexQmc(k)
    return _QMC[k]


def qmc_loglik(q: SimplexQmc, x: np.ndarray, theta: float, sigma: float) -> float:
    """Log-likelihood of one population at (theta, sigma), normalizer by QMC."""
    k = x.size
    a = theta / k
    log_neutral = gammaln(theta) - k * gammaln(a) + (a - 1.0) * float(np.log(x).sum())
    return log_neutral - sigma * float(x @ x) - float(q.log_normalizer(theta, [sigma])[0])


def qmc_profile(q: SimplexQmc, x: np.ndarray, theta: float, sigma: float) -> float:
    """Profile log-likelihood at theta: Newton on g(sigma) = h from ``sigma``."""
    hx = float(x @ x)
    for _ in range(50):
        g, _ = q.mean_h(theta, sigma)
        m2, _ = q.tilted_mean(theta, sigma, q.h * q.h)
        step = (g - hx) / max(m2 - g * g, 1e-300)
        sigma += step
        if abs(step) < 1e-6:
            break
    return qmc_loglik(q, x, theta, sigma)


def check_mle(label: str, k: int, mle) -> list[str]:
    if not mle.converged or mle.theta_hat is None:
        return [f"mle-ci[{label}]: joint MLE status {mle.status}"]
    out = []
    x = bundled_dataset(label).as_array()
    q = qmc_for(k)
    theta, sigma = mle.theta_hat, mle.sigma_hat
    # First-order condition in sigma: g(theta-hat, sigma-hat) equals the data's h.
    g, gse = q.mean_h(theta, sigma)
    m2, _ = q.tilted_mean(theta, sigma, q.h * q.h)
    pse = math.sqrt(max(m2 - g * g, 0.0) / mle.ess_at_solution)
    if not _within(g, float(x @ x), math.hypot(gse, pse)):
        out.append(f"mle-ci[{label}]: QMC g at (theta, sigma)-hat = ({theta:.4g}, {sigma:.4g}) is "
                   f"{g:.6g}, data h {x @ x:.6g} (se {math.hypot(gse, pse):.2g})")
    # Profile optimality in theta, up to the pool's log-normalizer error on
    # both sides of the comparison.
    grid = np.geomspace(max(0.1, theta / 2), min(50.0, 2 * theta), 9)
    best = max(qmc_profile(q, x, float(t), sigma) for t in grid)
    here = qmc_loglik(q, x, theta, sigma)
    slack = 2.0 * Z / math.sqrt(mle.ess_at_solution)
    if here < best - slack:
        out.append(f"mle-ci[{label}]: log-likelihood {here:.5f} at the MLE, QMC profile reaches "
                   f"{best:.5f} (slack {slack:.3f})")
    return out


def check_ci(label: str, k: int, theta: float, iv, pool_se: list[float]) -> list[str]:
    out = []
    if iv.notes:
        out.append(f"mle-ci[{label}]: CI endpoint pinned at the range bound: {iv.notes}")
    q = qmc_for(k)
    h = homozygosity(bundled_dataset(label)).value
    for sigma, target, pse in ((iv.lower, iv.alpha_split[0], pool_se[0]),
                               (iv.upper, 1.0 - iv.alpha_split[1], pool_se[1])):
        f, qse = q.cdf(theta, sigma, h)
        if not _within(f, target, math.hypot(qse, pse)):
            out.append(f"mle-ci[{label}]: QMC P(H <= h | sigma={sigma:.5g}) = {f:.5g}, "
                       f"endpoint target {target:g} (qmc se {qse:.2g}, pool se {pse:.2g})")
    return out


# ----------------------------------------------------------------- posterior

POST_POOL = 100_000
POST_BURN = 500
POST_CHAINS = (
    # label, chain length, fixed theta
    ("lyme", 2000, None),
    ("kir", 3500, 6.2),
)


class Posterior:
    """A joint (theta, sigma) chain on lyme and a fixed-theta chain on kir."""

    name = "posterior"

    def run_round(self, seed: int, r: int, workdir: str) -> Round:
        rnd = Round()
        for i, (label, length, theta_fixed) in enumerate(POST_CHAINS):
            cfg = inference.PosteriorConfig(pool_n=POST_POOL, burn_in=POST_BURN,
                                            theta_fixed=theta_fixed)
            chain = rnd.call(f"{label}.chain", inference.posterior_sample, bundled_dataset(label),
                             None, length, round_seed(seed, r) * 10 + i, cfg)
            if chain is None:
                continue
            rnd.units += length
            rnd.call(f"{label}.summary", inference.posterior_summary, chain, 0.95)
        return rnd

    def summarize(self, rnd: Round) -> None:
        # Distinct retained states (accepted moves) are the steady measure of
        # mixing; the Geyer ESS of sigma, noisier at these chain lengths,
        # is a per-layer figure.
        rnd.effective = 0.0
        rnd.layer["inference.chain_ess"] = 0.0
        for label, _, _ in POST_CHAINS:
            chain = _answer(rnd, f"{label}.chain")
            if chain is not None:
                rnd.extra[label] = geyer_ess(chain.sigmas)
                rnd.effective += float(chain.accepted.sum())
                rnd.layer["inference.chain_ess"] += rnd.extra[label]

    def check(self, rnd: Round, refs: dict) -> list[str]:
        out = []
        for label, _, _ in POST_CHAINS:
            chain = _answer(rnd, f"{label}.chain")
            summ = _answer(rnd, f"{label}.summary")
            if chain is None or summ is None:
                continue
            out += check_posterior(label, chain, summ[0], rnd.extra[label], refs["posterior"][label])
        return out


def check_posterior(label: str, chain, iv, ess: float, ref: dict) -> list[str]:
    out = []
    (t_lo, t_hi), (s_lo, s_hi) = chain.prior_bounds
    if not (np.all((chain.sigmas >= s_lo) & (chain.sigmas <= s_hi))
            and np.all((chain.thetas >= t_lo) & (chain.thetas <= t_hi))):
        out.append(f"posterior[{label}]: retained draw outside the prior box")
    grid = np.asarray(ref["sigma"])
    cdf = np.asarray(ref["cdf"])
    dens = np.gradient(cdf, grid)
    for name, value, q in (("lower", iv.lower, iv.alpha_split[0]),
                           ("upper", iv.upper, 1.0 - iv.alpha_split[1])):
        quad = float(np.interp(q, cdf, grid))
        # Quantile standard error from the chain's effective size and the
        # quadrature density at the quantile, plus the local grid step.
        d = max(float(np.interp(quad, grid, dens)), 1e-12)
        se = math.sqrt(q * (1.0 - q) / ess) / d + float(np.interp(quad, grid[:-1], np.diff(grid)))
        if not _within(value, quad, se):
            out.append(f"posterior[{label}]: credible {name} {value:.4g} vs quadrature "
                       f"{quad:.4g} (se {se:.2g}, ess {ess:.0f})")
    return out


# -------------------------------------------------------------------- sample

SIM_N = 20_000
# (label, k, theta, sigma, sampler route the sampler's own switch rules pick)
SIM_RUNS = (
    ("neutral", 4, 4.8, 0.0, "neutral"),
    ("rejection", 4, 4.8, 35.1, "rejection"),
    ("mh-dirichlet", 4, 4.8, 200.0, "independence-mh"),
    ("mh-vertex", 4, 4.8, -200.0, "independence-mh"),
)
STUDY_SPEC = {"kind": "instability_prob",
              "parameters": {"k": 10, "theta": 5.0, "sigma_grid": [5, 10, 25, 50],
                             "epsilon": 0.09, "n_per_sigma": 1000}}


class Sample:
    """The CLI: simulate on every sampler route, then the instability study."""

    name = "sample"

    def run_round(self, seed: int, r: int, workdir: str) -> Round:
        rnd = Round()
        s = round_seed(seed, r)
        for label, k, theta, sigma, _ in SIM_RUNS:
            path = os.path.join(workdir, f"{label}.jsonl")
            rnd.call(label, _cli, ["simulate", "--k", str(k), "--theta", str(theta),
                                   "--sigma", str(sigma), "--n", str(SIM_N), "--seed", str(s),
                                   "--out", path])
            rnd.extra[label] = path
        spec = dict(STUDY_SPEC, seed=s, out=os.path.join(workdir, "study"))
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        rnd.call("study", _cli, ["study", spec_path])
        rnd.extra["study"] = os.path.join(spec["out"], "instability_prob.csv")
        p = STUDY_SPEC["parameters"]
        rnd.units = sum(SIM_N for op in rnd.ops[:-1] if op.error is None)
        rnd.units += 2 * len(p["sigma_grid"]) * p["n_per_sigma"] if rnd.ops[-1].error is None else 0
        return rnd

    def summarize(self, rnd: Round) -> None:
        # Read the outputs back now: the next round overwrites them.
        rnd.effective = 0.0
        for op, (label, k, theta, sigma, route) in zip(rnd.ops, SIM_RUNS):
            if op.error is not None:
                continue
            path = rnd.extra[label]
            with open(path) as fh:
                rows = [json.loads(line)["frequencies"] for line in fh]
            with open(path + ".run.json") as fh:
                method = json.load(fh)["outputs"]["sampler"]["method"]
            # Keep only the statistics the checks need, so memory does not
            # grow with the number of rounds.
            rnd.extra[label] = dict(simulate_stats(np.asarray(rows), k, route), method=method)
            if route == "independence-mh":
                rnd.effective += rnd.extra[label]["ess"]
        if rnd.ops[-1].error is None:
            with open(rnd.extra["study"]) as fh:
                lines = fh.read().splitlines()
            head = lines[0].split(",")
            rnd.extra["study"] = [dict(zip(head, line.split(","))) for line in lines[1:]]

    def check(self, rnd: Round, refs: dict) -> list[str]:
        out = []
        for op, run in zip(rnd.ops, SIM_RUNS):
            if op.error is None:
                out += check_simulate(run, rnd.extra[run[0]], refs["sample"])
        if rnd.ops[-1].error is None:
            out += check_study(rnd.extra["study"])
        return out


def _cli(argv: list[str]) -> int:
    # Look the entry point up at call time, so a traced run sees its wrapper.
    # Its summary lines go to /dev/null: the run's own output ends in JSON.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = kallele.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"kallele {' '.join(argv)} exited {rc}")
    return rc


def simulate_stats(x: np.ndarray, k: int, route: str) -> dict:
    """What the checks need from one simulate output: validity, size, mean h and its error."""
    stats = {"n": len(x), "valid": bool(
        x.ndim == 2 and x.shape[1] == k and np.all(x > 0)
        and np.all(np.abs(x.sum(axis=1) - 1.0) <= 1e-9))}
    if stats["valid"]:
        h = np.einsum("ij,ij->i", x, x)
        stats["ess"] = geyer_ess(h) if route == "independence-mh" else float(h.size)
        stats["mean_h"] = float(h.mean())
        stats["se"] = float(h.std(ddof=1)) / math.sqrt(stats["ess"])
    return stats


def check_simulate(run: tuple, stats: dict, refs: dict) -> list[str]:
    label, k, theta, sigma, route = run
    out = []
    if stats["method"] != route:
        out.append(f"sample[{label}]: sampler route {stats['method']}, expected {route}")
    if stats["n"] != SIM_N:
        out.append(f"sample[{label}]: {stats['n']} rows, expected {SIM_N}")
    if not stats["valid"]:
        out.append(f"sample[{label}]: rows are not {k} positive frequencies summing to 1")
        return out
    if sigma == 0.0:
        ref, rse = (theta + k) / (k * (theta + 1.0)), 0.0
    else:
        ref, rse = refs[label]["g"], refs[label]["se"]
    se = math.hypot(stats["se"], rse)
    if not _within(stats["mean_h"], ref, se):
        out.append(f"sample[{label}]: mean h {stats['mean_h']:.6g} vs reference {ref:.6g} "
                   f"(se {se:.2g})")
    return out


def check_study(rows: list[dict]) -> list[str]:
    p = STUDY_SPEC["parameters"]
    got = [float(r["sigma"]) for r in rows]
    if got != [float(s) for s in p["sigma_grid"]]:
        return [f"sample[study]: sigma column {got}"]
    return [f"sample[study]: hetero fraction {r['hetero_hit_fraction']} <= homo "
            f"{r['homo_hit_fraction']} at sigma={r['sigma']}"
            for r in rows if not float(r["hetero_hit_fraction"]) > float(r["homo_hit_fraction"])]


WORKLOADS = {w.name: w for w in (Bootstrap(), MleCi(), Posterior(), Sample())}
