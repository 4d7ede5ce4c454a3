"""Print one SHA-256 per fixed-seed kallele output, to show two versions give the same numbers.

Run it in two checkouts and compare the output::

    (cd old && PYTHONPATH=src python3 tools/same_numbers.py > /tmp/old.txt)
    (cd new && PYTHONPATH=src python3 tools/same_numbers.py > /tmp/new.txt)
    diff /tmp/old.txt /tmp/new.txt && echo same numbers

Each line is ``<sha256>  <output>``.  Floats are hashed through their
exact bits (``repr`` in records, raw bytes in arrays), so any change in any
output, down to the last bit, changes its line.  Outputs: ``simulate``
JSON lines on the four sampler routes and ``sample_selection`` under a
general matrix (the MH route with the neutral proposal), with their reports
less ``n_distinct`` (so that the lines compare with versions that lack the
field), the files that
``kallele simulate`` writes on the four routes at n = 20 000, for a
stuck vertex-mixture chain (sigma = -1e4, thinned by 100) and for
rejection at sigma < 0 on both envelopes (the neutral one at sigma = -1,
k = 4, and the vertex mixture at sigma = -10, k = 10), ``bootstrap``
records at three generators and the first again with 1100 replicates, cold
``mle_sigma`` solves and warm ones through one ``GSigmaTable`` on a fresh
mixture pool from beyond one cap to beyond the other and at both unbounded
fringes, ``core._dirichlet`` itself at k = 3, 4, 8, 10 and 20 (NumPy sums
rows of 8 and more in eight running sums) for a symmetric concentration
low enough that rows are redrawn, two more, and per-row concentrations,
pools built without their draws at k = 8, 10 and 20, the CSVs of a
``sampling_dist``, a ``bootstrap_hist``, an ``mle_curve``, a
``cdf_panel`` and the README's ``instability_prob`` study, single-component pools' base log-weights and proposal
log-densities, the log-normalizer and the log-likelihood under an
overdominance and a general-matrix model, the pool passes (the CDF at four
h values, ``tilt``'s fields, ``g_sigma``, the log-normalizer and the
log-likelihood) over 121 signed sigmas from -1e4 to 1e4 on a plain and a
mixture pool, the joint MLE, the exact CI and
the CI pool's arrays on both bundled datasets, and a joint (theta, sigma)
chain and a fixed-theta chain with their summaries.  Every pool the joint
MLEs and the chains build is hashed too (its h, s, base log-weights,
proposal log-density and concentrations), caught by wrapping
``build_mixture_pool`` in every kallele module that holds it, wherever the
pool policy calls it from, and so is the reweighted pool each joint MLE's
``mle_sigma`` solves on.  Wall time on a 2-vCPU Xeon: about 1 min.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from kallele import Homozygosity, MutationParams, SelectionModel, homozygosity, parse_frequencies
from kallele import cli, density, inference
from kallele.core import _dirichlet, derive_rng
from kallele.density import (
    build_mixture_pool,
    build_pool,
    cdf_homozygosity,
    g_sigma,
    log_likelihood,
    log_normalizer,
    pool_for_sigma_range,
    tilt,
)
from kallele.sampler import SamplerConfig, sample_neutral, sample_selection, write_samples_jsonl
from kallele.study import StudySpec, run_study


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _show(name: str, *parts) -> None:
    print(f"{_digest(*parts)}  {name}", flush=True)


@contextlib.contextmanager
def _built_pools():
    """Yield a list that collects every pool ``build_mixture_pool`` builds in the block."""
    original = density.build_mixture_pool
    built = []

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    holders = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "kallele" and getattr(m, "build_mixture_pool", None) is original]
    for module in holders:
        module.build_mixture_pool = recording
    try:
        yield built
    finally:
        for module in holders:
            module.build_mixture_pool = original


def _report(report) -> str:
    """The report's fields as text, ``n_distinct`` left out."""
    fields = {name: value for name, value in vars(report).items() if name != "n_distinct"}
    return repr(fields)


def _show_pools(label: str, pools) -> None:
    for i, pool in enumerate(pools):
        _show(f"{label} pool {i}", pool.h, pool.s, pool.b, pool.proposal_log_density, list(pool.concentrations))


@contextlib.contextmanager
def _solved_bases():
    """Yield a list that collects the (h, s, base log-weights) of every ``mle_sigma`` solve in the block."""
    original = inference.mle_sigma
    solved = []

    def recording(h, pool, sweep=None):
        solved.append((pool.h, pool.s, pool.b))
        return original(h, pool, sweep)

    inference.mle_sigma = recording
    try:
        yield solved
    finally:
        inference.mle_sigma = original


def simulate(tmp: str) -> None:
    # The four routes of `kallele simulate`: neutral, rejection, MH with a
    # symmetric Dirichlet proposal and MH with the vertex-mixture proposal.
    theta = MutationParams.symmetric(4.8, 4)
    for label, sigma in (("neutral", 0.0), ("rejection", 35.1), ("mh-dirichlet", 200.0), ("mh-vertex", -200.0)):
        if sigma == 0.0:
            points, report = sample_neutral(theta, 5000, 17), None
        else:
            points, report = sample_selection(theta, sigma, 5000, 17)
        path = os.path.join(tmp, f"{label}.jsonl")
        write_samples_jsonl(points, path)
        with open(path, "rb") as fh:
            _show(f"simulate {label}", fh.read(), None if report is None else _report(report))
    matrix = 35.1 * np.eye(4) + 2.0 * (np.ones((4, 4)) - np.eye(4))
    points, report = sample_selection(theta, SelectionModel.from_matrix(matrix), 2000, 17)
    path = os.path.join(tmp, "mh-neutral.jsonl")
    write_samples_jsonl(points, path)
    with open(path, "rb") as fh:
        _show("sample_selection from_matrix", fh.read(), _report(report))
    # `kallele simulate` itself at the benchmark's size, where the MH chains
    # cross a 2^16-proposal block, and a chain stuck near one vertex.
    for label, argv in (
        ("neutral", ["--sigma", "0", "--n", "20000"]),
        ("rejection", ["--sigma", "35.1", "--n", "20000"]),
        ("mh-dirichlet", ["--sigma", "200", "--n", "20000"]),
        ("mh-vertex", ["--sigma=-200", "--n", "20000"]),
        ("mh-vertex stuck", ["--sigma=-1e4", "--n", "2000"]),
        # Rejection at sigma < 0: the neutral envelope where the vertex
        # mixture gains nothing (F = 0.57), and the vertex mixture itself.
        ("rejection neutral envelope", ["--sigma=-1", "--n", "5000"]),
        ("rejection k=10 sigma=-10", ["--k", "10", "--theta", "5", "--sigma=-10", "--n", "1000"]),
    ):
        path = os.path.join(tmp, "cli.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["simulate", "--k", "4", "--theta", "4.8", "--seed", "17", "--out", path, *argv])
        with open(path + ".run.json") as fh:
            sampler = json.load(fh)["outputs"]["sampler"]
        with open(path, "rb") as fh:
            _show(f"cli simulate {label}", rc, fh.read(), [sampler[key] for key in ("method", "acceptance_rate", "n_proposals")])


def bootstrap() -> None:
    for theta, sigma, k, sampler in (
        (4.8, 35.1, 4, SamplerConfig()),
        (6.24, 53.5, 8, SamplerConfig(sigma_switch=60.0)),
        (4.8, -40.0, 4, SamplerConfig()),
    ):
        res = inference.bootstrap(theta, sigma, k, 200, 23, inference.BootstrapConfig(pool_n=100_000, sampler=sampler))
        records = [repr(e) for e in res.estimates]
        _show(f"bootstrap theta={theta} sigma={sigma} k={k}", records, repr(res.as_dict()))
    # The first generator again with 1100 replicates, all solved through one table.
    res = inference.bootstrap(4.8, 35.1, 4, 1100, 23, inference.BootstrapConfig(pool_n=20_000))
    _show("bootstrap theta=4.8 sigma=35.1 k=4 m=1100", [repr(e) for e in res.estimates], repr(res.as_dict()))


def mle_sigma() -> None:
    # On k = 2 a 100k pool is dense enough at its floor for roots past the
    # cap to lie outside the unbounded fringe.  Each h is solved cold and
    # warm, through one table that the solves before it filled.
    pool = build_mixture_pool(MutationParams.symmetric(1.0, 2), (0.5, 0.2, 2.0, 8.0), 100_000, 37, keep_draws=False)
    cases = [(f"root {s:g}", g_sigma(pool, s)) for s in (-2e5, -300.0, -0.5, 0.5, 20.0, 3000.0, 2e5)]
    table = inference.GSigmaTable(pool)
    for label, hv in cases + [("floor", pool.h_min), ("ceiling", pool.h_max)]:
        h = Homozygosity(float(hv), 2)
        cold = inference.mle_sigma(h, pool)
        warm = inference.mle_sigma(h, pool, sweep=table)
        _show(f"mle_sigma {label}", repr(cold), repr(warm))


def drawer() -> None:
    # At a = 0.01 some gamma variates underflow to 0 and their rows are
    # redrawn; per-row concentrations draw each row from its own shapes.
    for k in (3, 4, 8, 10, 20):
        for a in (0.01, 0.7, 8.0):
            _show(f"_dirichlet k={k} a={a}", _dirichlet(np.full(k, a), 20_000, derive_rng(47, k)))
        rows = np.full((20_000, k), 0.01)
        rows[np.arange(20_000), np.arange(20_000) % k] += 1.5
        _show(f"_dirichlet k={k} per-row", _dirichlet(rows, 20_000, derive_rng(48, k)))


def pools() -> None:
    # Single-component pools: at a = theta/k (base log-weights exactly 0),
    # at another a, and for a general per-allele target with its draws
    # dropped; plus reweighting to a symmetric and a general target.
    sym = MutationParams.symmetric(4.8, 4)
    general = MutationParams(mode="general", thetas=(0.8, 1.6, 1.2, 1.2))
    for label, theta, a, keep in (("a=theta/k", sym, None, True), ("a=2", sym, 2.0, True), ("general", general, 1.0, False)):
        pool = build_pool(theta, a, 50_000, 41, keep_draws=keep)
        parts = [pool.b, pool.proposal_log_density]
        if keep:
            parts += [pool.reweighted(MutationParams.symmetric(6.0, 4)).b, pool.reweighted(general).b]
        _show(f"build_pool {label}", *parts)
    # Mixture pools without their draws at larger k, over the exact CI's
    # range; at theta = 0.03, k = 8 the drawer redraws rows.
    for k, theta in ((8, 6.24), (8, 0.03), (10, 5.0), (20, 3.0)):
        pool = pool_for_sigma_range(MutationParams.symmetric(theta, k), 100_000, 53, sigma_lo=-500.0, sigma_hi=2000.0)
        _show(f"pool_for_sigma_range k={k} theta={theta}", pool.h, pool.s, pool.b, pool.proposal_log_density)


def study(tmp: str) -> None:
    params = {"k": 4, "theta": 4.8, "sigma": 35.1, "n_datasets": 200, "pool_n": 100_000}
    outputs = run_study(StudySpec(kind="sampling_dist", parameters=params, seed=23, out=tmp))
    with open(outputs["table"], "rb") as fh:
        _show("study sampling_dist", fh.read())
    params = {"k": 4, "theta": 4.8, "grid_points": 40, "pool_n": 100_000}
    outputs = run_study(StudySpec(kind="mle_curve", parameters=params, seed=23, out=tmp))
    with open(outputs["table"], "rb") as fh:
        _show("study mle_curve", fh.read())
    params = {"k": 4, "theta": 4.8, "sigma": -40.0, "m": 200, "pool_n": 100_000}
    outputs = run_study(StudySpec(kind="bootstrap_hist", parameters=params, seed=23, out=tmp))
    with open(outputs["table"], "rb") as fh:
        _show("study bootstrap_hist", fh.read())
    params = {"k": 4, "theta": 4.8, "h": 0.3, "sigma_values": [-20.0, 0.0, 35.1, 300.0], "pool_n": 100_000}
    outputs = run_study(StudySpec(kind="cdf_panel", parameters=params, seed=23, out=tmp))
    for key in ("table", "summary"):
        with open(outputs[key], "rb") as fh:
            _show(f"study cdf_panel {key}", fh.read())
    # The README's instability_prob spec.
    params = {"k": 10, "theta": 5.0, "sigma_grid": [5, 10, 25, 50, 100], "epsilon": 0.09, "n_per_sigma": 1000}
    outputs = run_study(StudySpec(kind="instability_prob", parameters=params, seed=20, out=tmp))
    with open(outputs["table"], "rb") as fh:
        _show("study instability_prob", fh.read())


def likelihood() -> None:
    # A pool with its draws kept, so the general-matrix model can be evaluated;
    # the log-likelihood is also taken at a theta the pool was not built for.
    theta = MutationParams.symmetric(4.8, 4)
    pool = build_mixture_pool(theta, (1.2, 0.4, 2.0, 8.0), 100_000, 31)
    matrix = 35.1 * np.eye(4) + 2.0 * (np.ones((4, 4)) - np.eye(4))
    x = parse_frequencies("lyme")
    for label, model in (("overdominance", SelectionModel.overdominance(35.1)), ("matrix", SelectionModel.from_matrix(matrix))):
        values = [repr(log_normalizer(pool, model)[0])]
        values += [repr(log_likelihood(x, MutationParams.symmetric(t, 4), model, pool)) for t in (4.8, 6.0)]
        _show(f"log_normalizer and log_likelihood {label}", values)


def passes() -> None:
    # Each pool pass on a signed sigma grid through 0 out to the saturated
    # ends at +-1e4, on a plain pool and on a mixture pool; tilt also on the
    # pool reweighted to another theta, as the joint MLE solves on it.
    theta = MutationParams.symmetric(4.8, 4)
    sigmas = [float(s) for s in np.concatenate([-np.logspace(4, -2, 60), [0.0], np.logspace(-2, 4, 60)])]
    x = parse_frequencies("lyme")
    for label, pool in (
        ("plain", build_pool(theta, None, 100_000, 43)),
        ("mixture", build_mixture_pool(theta, (1.2, 0.4, 2.0, 8.0), 100_000, 43)),
    ):
        for hv in (0.26, 0.3, 0.45, 0.9):
            h = Homozygosity(hv, 4)
            _show(f"cdf_homozygosity {label} h={hv}", [repr(cdf_homozygosity(pool, s, h)) for s in sigmas])
        other = pool.reweighted(MutationParams.symmetric(6.0, 4))
        _show(f"tilt {label}", [repr(tilt(pool, s)) for s in sigmas], [repr(tilt(other, s)) for s in sigmas])
        _show(f"g_sigma {label}", [repr(g_sigma(pool, s)) for s in sigmas])
        models = [SelectionModel.overdominance(s) for s in sigmas]
        _show(f"log_normalizer {label}", [repr(log_normalizer(pool, m)) for m in models])
        values = [repr(log_likelihood(x, MutationParams.symmetric(t, 4), m, pool)) for m in models for t in (4.8, 6.0)]
        _show(f"log_likelihood {label}", values)


def mle_and_ci() -> None:
    for label, theta in (("lyme", 4.8), ("kir", 6.24)):
        x = parse_frequencies(label)
        with _built_pools() as built, _solved_bases() as solved:
            mle = inference.mle_joint(x, 5, inference.JointMleConfig(pool_n=100_000))
        _show(f"mle_joint {label}", repr(mle))
        _show_pools(f"mle_joint {label}", built)
        for i, parts in enumerate(solved):
            _show(f"mle_joint {label} solved pool {i}", *parts)
        pool = pool_for_sigma_range(MutationParams.symmetric(theta, x.k), 200_000, 5, sigma_lo=-500.0, sigma_hi=2000.0)
        _show(f"ci pool {label}", pool.h, pool.s, pool.b, pool.proposal_log_density)
        iv = inference.monotone_ci(homozygosity(x), pool, 0.025, 0.025)
        _show(f"monotone_ci {label}", repr(iv))


def posterior() -> None:
    for label, length, theta_fixed in (("lyme", 2000, None), ("kir", 3500, 6.2)):
        cfg = inference.PosteriorConfig(pool_n=100_000, burn_in=500, theta_fixed=theta_fixed)
        with _built_pools() as built:
            chain = inference.posterior_sample(parse_frequencies(label), None, length, 29, cfg)
        _show(f"posterior chain {label}", chain.thetas, chain.sigmas, chain.accepted, repr(chain.as_dict()))
        _show(f"posterior log_posterior {label}", chain.log_posterior)
        _show(f"posterior_summary {label}", repr(inference.posterior_summary(chain, 0.95)))
        _show_pools(f"posterior {label}", built)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        simulate(tmp)
    bootstrap()
    mle_sigma()
    drawer()
    pools()
    with tempfile.TemporaryDirectory() as tmp:
        study(tmp)
    likelihood()
    passes()
    mle_and_ci()
    posterior()
    return 0


if __name__ == "__main__":
    sys.exit(main())
