"""kallele benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a kallele checkout:

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 20 --trace 0

The run measures set-up (fresh interpreters importing ``kallele.cli``),
then repeats whole rounds of the workload for ``--seconds`` (at least one
round; another starts only if the rounds so far say it will end in time),
then checks every answer.  ``--trace 0`` reports the end-to-end metrics,
each a median over rounds, with times in reference seconds: raw times over
the machine's slowdown sampled during each call (see ``calib.py``).
``--trace 1`` runs each round twice on the same
inputs, untraced and traced (alternating which goes first), and reports
the per-layer metrics of the traced rounds plus the tracing overhead
(traced minus untraced round time, raw); its spans go to ``.perfbench-out/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
OUT_DIR = ".perfbench-out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "ops_per_s": "1/s", "effective_draws": "draws"}
LAYER_UNITS = {
    "core.wrap_s": "s",
    "density.builds": "count", "density.build_draws": "draws", "density.build_s": "s",
    "density.passes": "count", "density.pass_s": "s", "density.pass_bytes_computed": "B",
    "inference.solves": "count", "inference.solve_s": "s", "inference.passes_per_solve": "count",
    "inference.table_s": "s", "inference.profile_evals": "count", "inference.joint_s": "s",
    "inference.ci_s": "s", "inference.cdf_evals": "count", "inference.chain_self_s": "s",
    "inference.summary_s": "s", "inference.chain_ess": "draws",
    "sampler.draw_s": "s", "sampler.proposals": "count", "sampler.accepted_per_proposal": "ratio",
    "sampler.tuning_s": "s", "sampler.jsonl_write_s": "s",
    "study.run_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def measure_setup(root: str, src: str) -> float:
    """Median time, in reference seconds, of a fresh interpreter that imports kallele.cli."""
    import calib

    env = dict(os.environ, PYTHONPATH=src)
    times = []
    # The child runs while this process waits, so the speed is sampled
    # around it, not during it.
    after = calib.slowdown()
    for _ in range(SETUP_REPEATS):
        before = after
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import kallele.cli"], cwd=root, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - t0
        after = calib.slowdown()
        times.append(wall * 2.0 / (before + after))
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One thread of work: BLAS and OpenMP pools get one thread each, here and
    # in the set-up interpreters.  Set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kallele", "__init__.py")):
        print(f"error: no kallele sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    setup_s = measure_setup(root, src)

    import kallele
    if not os.path.abspath(kallele.__file__).startswith(src + os.sep):
        print(f"error: imported kallele from {kallele.__file__}, not {src}", file=sys.stderr)
        return 2
    import calib
    import workloads
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    tracer = Tracer()
    marks = []

    def timed_round(r: int, trace: bool):
        lo = len(tracer.spans)
        if trace:
            # Traced calls are not sampled, so that their spans hold only kallele.
            calib.stop()
            tracer.install()
        try:
            rnd = work.run_round(args.seed, r, workdir)
        finally:
            if trace:
                tracer.uninstall()
                marks.append((lo, len(tracer.spans)))
                calib.start()
        work.summarize(rnd)
        return rnd

    plain, traced = [], []
    start = perf_counter()
    calib.start()
    try:
        r = 0
        # Whole rounds only: start another while it is expected to end in time.
        while not plain or (perf_counter() - start) * (r + 1) / r <= args.seconds:
            # A traced run repeats each round traced, alternating which goes first.
            order = ((False, True) if r % 2 == 0 else (True, False)) if args.trace else (False,)
            for trace in order:
                (traced if trace else plain).append(timed_round(r, trace))
            r += 1
        calib.stop()
        for rnd in plain:
            rnd.scale()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds = plain + traced
        failures = [f for rnd in rounds for f in work.check(rnd, refs)]
    finally:
        calib.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for rnd in rounds:
        for op in rnd.ops:
            if op.error is not None:
                print(f"failed: {work.name}/{op.label}: {op.error}", file=sys.stderr)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    if args.trace:
        per_round = [layer_metrics(tracer.spans, lo, hi) for lo, hi in marks]
        for m, rnd in zip(per_round, traced):
            m.update(rnd.layer)
        values = {name: statistics.median(m.get(name, 0.0) for m in per_round)
                  for name in LAYER_UNITS}
        values["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in zip(plain, traced))
        units = LAYER_UNITS
        tracer.dump(os.path.join(out_dir, f"trace-{work.name}-{args.seed}.jsonl"), marks)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(rnd.scaled for rnd in plain),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": statistics.median(rnd.units / rnd.scaled for rnd in plain),
            "effective_draws": statistics.median(rnd.effective for rnd in plain),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": sum(len(rnd.ops) for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(f"{work.name}: seed {args.seed}, round times "
          + " ".join(f"{rnd.wall:.3f}" for rnd in plain) + " s, in reference seconds "
          + " ".join(f"{rnd.scaled:.3f}" for rnd in plain)
          + (", traced " + " ".join(f"{rnd.wall:.3f}" for rnd in traced) + " s" if traced else ""))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    with open(os.path.join(out_dir, f"result-{work.name}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, calls=[[(op.label, op.wall, op.scaled) for op in rnd.ops]
                                      for rnd in plain]), fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
