"""The benchmark's correctness checks pass on real answers and reject perturbed ones.

Each workload runs one round at reduced size; the test then shifts one
answer (a replicate's sigma-hat, a CI endpoint, a credible endpoint, a mean
homozygosity) and expects the check to report it.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import calib  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return W.load_references()


def one_round(work, tmp_path, **sizes):
    saved = {name: getattr(W, name) for name in sizes}
    for name, value in sizes.items():
        setattr(W, name, value)
    try:
        rnd = work.run_round(3, 0, str(tmp_path))
        work.summarize(rnd)
    finally:
        for name, value in saved.items():
            setattr(W, name, value)
    assert rnd.failed == 0, [op.error for op in rnd.ops]
    return rnd


def test_bootstrap_check(refs, tmp_path):
    rnd = one_round(W.Bootstrap(), tmp_path, BOOT_M=100)
    assert W.Bootstrap().check(rnd, refs) == []
    res, hs, ref = rnd.ops[0].answer, rnd.extra["lyme"], refs["bootstrap"]["lyme"]
    assert W.check_bootstrap("lyme", res, hs, ref) == []

    # A shifted sigma-hat at the median replicate breaks monotonicity in h.
    order = np.argsort(hs)
    conv = [i for i in order if res.estimates[i].converged]
    j = conv[len(conv) // 2]
    est = list(res.estimates)
    est[j] = dataclasses.replace(est[j], sigma_hat=est[j].sigma_hat + 10.0)
    shifted = dataclasses.replace(res, estimates=est)
    assert any("rises" in f for f in W.check_bootstrap("lyme", shifted, hs, ref))

    iv = dataclasses.replace(res.percentile_interval, upper=res.percentile_interval.upper * 1.01)
    assert any("percentile" in f for f in
               W.check_bootstrap("lyme", dataclasses.replace(res, percentile_interval=iv), hs, ref))
    assert any("unbounded" in f for f in
               W.check_bootstrap("lyme", dataclasses.replace(res, n_unbounded=res.n_unbounded + 1),
                                 hs, ref))
    assert any("mean replicate h" in f for f in
               W.check_bootstrap("lyme", res, hs, dict(ref, g=ref["g"] + 0.02)))


def test_mle_ci_check(refs, tmp_path):
    rnd = one_round(W.MleCi(), tmp_path, CI_POOL=200_000)
    assert W.MleCi().check(rnd, refs) == []
    mle = W._answer(rnd, "lyme.mle")
    assert W.check_mle("lyme", 4, dataclasses.replace(mle, sigma_hat=mle.sigma_hat + 5.0))
    assert W.check_mle("lyme", 4, dataclasses.replace(mle, theta_hat=mle.theta_hat * 5.0))

    for label, k in W.MLE_DATASETS:
        theta = W._answer(rnd, f"{label}.mle").theta_hat
        iv = W._answer(rnd, f"{label}.ci")
        se = rnd.extra[f"{label}.ci"]
        assert W.check_ci(label, k, theta, iv, se) == []
        assert W.check_ci(label, k, theta, dataclasses.replace(iv, upper=iv.upper * 1.15), se)
        assert W.check_ci(label, k, theta, dataclasses.replace(iv, lower=iv.lower - 5.0), se)


def test_posterior_check(refs, tmp_path):
    rnd = one_round(W.Posterior(), tmp_path,
                    POST_CHAINS=(("lyme", 1600, None), ("kir", 1600, 6.2)))
    assert W.Posterior().check(rnd, refs) == []
    for label in ("lyme", "kir"):
        chain = W._answer(rnd, f"{label}.chain")
        iv, _ = W._answer(rnd, f"{label}.summary")
        ess, ref = rnd.extra[label], refs["posterior"][label]
        # Tail quantiles of a short chain are loose; the tolerance follows the ESS.
        assert W.check_posterior(label, chain, dataclasses.replace(iv, upper=iv.upper * 2.5),
                                 ess, ref)
        sig = chain.sigmas.copy()
        sig[0] = 1001.0
        outside = dataclasses.replace(chain, sigmas=sig)
        assert any("prior box" in f for f in W.check_posterior(label, outside, iv, ess, ref))
    iv, _ = W._answer(rnd, "kir.summary")
    assert W.check_posterior("kir", W._answer(rnd, "kir.chain"),
                             dataclasses.replace(iv, lower=iv.lower + 15.0),
                             rnd.extra["kir"], refs["posterior"]["kir"])


def test_sample_check(refs, tmp_path):
    rnd = one_round(W.Sample(), tmp_path, SIM_N=5000)
    saved = W.SIM_N
    W.SIM_N = 5000
    try:
        assert W.Sample().check(rnd, refs) == []
        for run in W.SIM_RUNS:
            label, k, _, _, route = run
            # The round keeps statistics only; read its output back to perturb it.
            with open(tmp_path / f"{label}.jsonl") as fh:
                rows = np.asarray([json.loads(line)["frequencies"] for line in fh])
            method = rnd.extra[label]["method"]

            def check(x):
                return W.check_simulate(run, dict(W.simulate_stats(x, k, route), method=method),
                                        refs["sample"])

            assert check(rows) == []
            assert any("mean h" in f for f in check(0.9 * rows + 0.1 / k))  # 10% toward the centroid
            bad = rows.copy()
            bad[0, 0] = 0.0
            assert any("positive" in f for f in check(bad))
    finally:
        W.SIM_N = saved
    rows = [dict(r) for r in rnd.extra["study"]]
    rows[-1]["hetero_hit_fraction"], rows[-1]["homo_hit_fraction"] = (
        rows[-1]["homo_hit_fraction"], rows[-1]["hetero_hit_fraction"])
    assert W.check_study(rows)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_sampling_time_is_left_out_of_calls():
    rnd = W.Round()
    calib.start()
    try:
        rnd.call("sleep", time.sleep, 0.35)
    finally:
        calib.stop()
    op = rnd.ops[0]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # About three samples fall inside the call; their time is not the call's.
    assert sum(op.start <= t <= op.end for t in calib._times) >= 2
    assert 0.3 < op.wall <= op.end - op.start - 0.002
    rnd.scale()
    assert op.scaled == op.wall / calib.slowdown_during(op.start, op.end)
