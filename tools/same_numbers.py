"""Print one SHA-256 per fixed-seed kallele output, to show two versions give the same numbers.

Run it in two checkouts and compare the output::

    (cd old && PYTHONPATH=src python3 tools/same_numbers.py > /tmp/old.txt)
    (cd new && PYTHONPATH=src python3 tools/same_numbers.py > /tmp/new.txt)
    diff /tmp/old.txt /tmp/new.txt && echo same numbers

Each line is ``<sha256>  <output>``.  Floats are hashed through their
exact bits (``repr`` in records, raw bytes in arrays), so any change in any
output, down to the last bit, changes its line.  Outputs: ``simulate``
JSON lines on the four sampler routes, ``bootstrap`` records at three
generators, the joint MLE, the exact CI and the CI pool's arrays on both
bundled datasets, and a joint (theta, sigma) chain and a fixed-theta chain
with their summaries.  Wall time on a 2-vCPU Xeon: about 30 s.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from kallele import MutationParams, homozygosity, parse_frequencies
from kallele import inference
from kallele.density import pool_for_sigma_range
from kallele.sampler import SamplerConfig, sample_neutral, sample_selection, write_samples_jsonl


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
    mle_and_ci()
    posterior()
    return 0


if __name__ == "__main__":
    sys.exit(main())
