"""Print one SHA-256 per fixed-seed kallele output, to show two versions give the same numbers.

Run it in two checkouts and compare the output::

    (cd old && PYTHONPATH=src python3 tools/same_numbers.py > /tmp/old.txt)
    (cd new && PYTHONPATH=src python3 tools/same_numbers.py > /tmp/new.txt)
    diff /tmp/old.txt /tmp/new.txt && echo same numbers

Each line is ``<sha256>  <output>``.  Floats are hashed through their
exact bits (``repr`` in records, raw bytes in arrays), so any change in any
output, down to the last bit, changes its line.  Outputs: ``simulate``
JSON lines on the four sampler routes, ``bootstrap`` records at three
generators and the first again on two threads, the CSVs of a
``sampling_dist`` and an ``mle_curve`` study, the log-normalizer and the
log-likelihood under an overdominance and a general-matrix model, the joint
MLE, the exact CI and the CI pool's arrays on both bundled datasets, and a
joint (theta, sigma) chain and a fixed-theta chain with their summaries.
Wall time on a 2-vCPU Xeon: about 6 s.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from kallele import MutationParams, SelectionModel, homozygosity, parse_frequencies
from kallele import inference
from kallele.density import build_mixture_pool, log_likelihood, log_normalizer, pool_for_sigma_range
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
            _show(f"simulate {label}", fh.read(), None if report is None else repr(report))


def bootstrap() -> None:
    for theta, sigma, k, sampler in (
        (4.8, 35.1, 4, SamplerConfig()),
        (6.24, 53.5, 8, SamplerConfig(sigma_switch=60.0)),
        (4.8, -40.0, 4, SamplerConfig()),
    ):
        res = inference.bootstrap(theta, sigma, k, 200, 23, inference.BootstrapConfig(pool_n=100_000, sampler=sampler))
        records = [repr(e) for e in res.estimates]
        _show(f"bootstrap theta={theta} sigma={sigma} k={k}", records, repr(res.as_dict()))
    # The first generator again, its replicates solved on two threads.
    res = inference.bootstrap(4.8, 35.1, 4, 200, 23, inference.BootstrapConfig(pool_n=100_000, workers=2))
    _show("bootstrap theta=4.8 sigma=35.1 k=4 workers=2", [repr(e) for e in res.estimates], repr(res.as_dict()))


def study(tmp: str) -> None:
    params = {"k": 4, "theta": 4.8, "sigma": 35.1, "n_datasets": 200, "pool_n": 100_000}
    outputs = run_study(StudySpec(kind="sampling_dist", parameters=params, seed=23, out=tmp))
    with open(outputs["table"], "rb") as fh:
        _show("study sampling_dist", fh.read())
    params = {"k": 4, "theta": 4.8, "grid_points": 40, "pool_n": 100_000}
    outputs = run_study(StudySpec(kind="mle_curve", parameters=params, seed=23, out=tmp))
    with open(outputs["table"], "rb") as fh:
        _show("study mle_curve", fh.read())


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


def mle_and_ci() -> None:
    for label, theta in (("lyme", 4.8), ("kir", 6.24)):
        x = parse_frequencies(label)
        mle = inference.mle_joint(x, 5, inference.JointMleConfig(pool_n=100_000))
        _show(f"mle_joint {label}", repr(mle))
        pool = pool_for_sigma_range(MutationParams.symmetric(theta, x.k), 200_000, 5, sigma_lo=-500.0, sigma_hi=2000.0)
        _show(f"ci pool {label}", pool.h, pool.s, pool.b, pool.proposal_log_density)
        iv = inference.monotone_ci(homozygosity(x), pool, 0.025, 0.025)
        _show(f"monotone_ci {label}", repr(iv))


def posterior() -> None:
    for label, length, theta_fixed in (("lyme", 2000, None), ("kir", 3500, 6.2)):
        cfg = inference.PosteriorConfig(pool_n=100_000, burn_in=500, theta_fixed=theta_fixed)
        chain = inference.posterior_sample(parse_frequencies(label), None, length, 29, cfg)
        _show(f"posterior chain {label}", chain.thetas, chain.sigmas, chain.accepted, repr(chain.as_dict()))
        _show(f"posterior log_posterior {label}", chain.log_posterior)
        _show(f"posterior_summary {label}", repr(inference.posterior_summary(chain, 0.95)))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        simulate(tmp)
    bootstrap()
    with tempfile.TemporaryDirectory() as tmp:
        study(tmp)
    likelihood()
    mle_and_ci()
    posterior()
    return 0


if __name__ == "__main__":
    sys.exit(main())
