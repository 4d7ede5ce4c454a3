"""Spans around the calls into each kallele module, recorded from outside the package.

kallele's modules import each other's functions by name (``from .density
import g_sigma``), so a wrapper must replace the name in every module that
holds it, not only in the module that defines it.  ``Tracer.install`` does
that for the functions listed in ``TRACED`` and restores the originals on
``uninstall``.  Spans live in memory as ``[name, start, end, parent, attr]``
lists; ``attr`` carries a count taken from the call (draws built, draws
read, proposals made).  ``layer_metrics`` turns one round's spans into the
per-layer metrics, with self time taken as a span minus its children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

MODULES = ("kallele", "kallele.core", "kallele.density", "kallele.sampler",
           "kallele.inference", "kallele.study", "kallele.cli")

# Arrays of pool length each pass function reads, for density.pass_bytes_computed.
PASS_ARRAYS = {
    "density.g_sigma": 2,            # b, h
    "density.cdf_homozygosity": 3,   # b, h for the weights, h for the mask
    "density.log_normalizer": 3,     # b, h, then b for the base normalizer
    "density.log_likelihood": 4,     # s and proposal density for b, h, b
}
BUILDS = ("density.pool_for_sigma_range", "density.build_pool", "density.build_mixture_pool")
DRAWS = ("sampler.sample_neutral", "sampler.sample_selection", "sampler._selection_arrays")


def _pool_draws(pos: int):
    def attr(args, kwargs, out):
        pool = args[pos] if len(args) > pos else kwargs["pool"]
        return pool.n
    return attr


def _built_draws(args, kwargs, out):
    return out.n


def _sampler_counts(args, kwargs, out):
    if isinstance(out, tuple):
        rep = out[1]
        return (rep.n_proposals, rep.acceptance_rate * rep.n_proposals)
    return (len(out), len(out))


# (defining module, attribute, replace it in the defining module too, attr function)
TRACED = (
    ("kallele.density", "g_sigma", True, _pool_draws(0)),
    ("kallele.density", "cdf_homozygosity", True, _pool_draws(0)),
    ("kallele.density", "log_normalizer", True, _pool_draws(0)),
    ("kallele.density", "log_likelihood", True, _pool_draws(3)),
    # Builders call each other inside density; trace only the outside calls.
    ("kallele.density", "pool_for_sigma_range", False, _built_draws),
    ("kallele.density", "build_pool", False, _built_draws),
    ("kallele.density", "build_mixture_pool", False, _built_draws),
    ("kallele.inference", "mle_sigma", True, None),
    ("kallele.inference", "GSigmaTable", True, None),
    ("kallele.inference", "mle_joint", True, None),
    ("kallele.inference", "monotone_ci", True, None),
    ("kallele.inference", "bootstrap", True, None),
    ("kallele.inference", "posterior_sample", True, None),
    ("kallele.inference", "posterior_summary", True, None),
    ("kallele.sampler", "sample_neutral", True, _sampler_counts),
    ("kallele.sampler", "sample_selection", True, _sampler_counts),
    # sample_selection calls it inside sampler; trace the outside callers.
    ("kallele.sampler", "_selection_arrays", False, _sampler_counts),
    ("kallele.sampler", "write_samples_jsonl", True, None),
    ("kallele.study", "run_study", True, None),
    ("kallele.cli", "main", True, None),
)


class Tracer:
    """In-memory span recorder; one thread of work, so a plain stack gives parents."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attr=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if attr is not None:
                rec[4] = attr(args, kwargs, out)
            return out

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = [sys.modules[m] for m in MODULES]
        for home, attr, in_home, count in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(f"{home.split('.')[1]}.{attr}", original, count)
            for mod in mods:
                if getattr(mod, attr, None) is original and (in_home or mod.__name__ != home):
                    self._replace(mod, attr, wrapped)
        point = sys.modules["kallele.core"].SimplexPoint
        self._replace(point, "__init__", self.wrap("core.SimplexPoint", point.__init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def dump(self, path: str, round_marks: list[tuple[int, int]]) -> None:
        """Write spans as JSON lines, each tagged with its traced round."""
        with open(path, "w") as fh:
            for r, (lo, hi) in enumerate(round_marks):
                for i in range(lo, hi):
                    name, t0, t1, parent, attr = self.spans[i]
                    fh.write(json.dumps({"round": r, "id": i, "name": name, "start": t0,
                                         "end": t1, "parent": parent, "attr": attr}) + "\n")


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics from the spans with index in [lo, hi) (one round)."""
    dur = {}
    child_time = {}
    for i in range(lo, hi):
        name, t0, t1, parent, _ = spans[i]
        dur[i] = t1 - t0
        if parent >= lo:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    def names(i):
        return spans[i][0]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= lo else None

    def total(pred):
        return sum(dur[i] for i in dur if pred(names(i)))

    def self_time(pred):
        return sum(dur[i] - child_time.get(i, 0.0) for i in dur if pred(names(i)))

    def count(pred):
        return sum(1 for i in dur if pred(names(i)))

    passes = [i for i in dur if names(i) in PASS_ARRAYS]
    solves = count(lambda n: n == "inference.mle_sigma")
    solve_passes = sum(1 for i in passes if parent_name(i) == "inference.mle_sigma")
    draws = [i for i in dur if names(i) in DRAWS]
    proposals = sum(spans[i][4][0] for i in draws)
    accepted = sum(spans[i][4][1] for i in draws)
    tuning = sum(dur[i] for i in dur
                 if (names(i) in PASS_ARRAYS or names(i) in BUILDS) and parent_name(i) in DRAWS)
    return {
        "core.wrap_s": total(lambda n: n == "core.SimplexPoint"),
        "density.builds": count(lambda n: n in BUILDS),
        "density.build_draws": sum(spans[i][4] for i in dur if names(i) in BUILDS),
        "density.build_s": total(lambda n: n in BUILDS),
        "density.passes": len(passes),
        "density.pass_s": sum(dur[i] for i in passes),
        "density.pass_bytes_computed": sum(8 * PASS_ARRAYS[names(i)] * spans[i][4] for i in passes),
        "inference.solves": solves,
        "inference.solve_s": total(lambda n: n == "inference.mle_sigma"),
        "inference.passes_per_solve": solve_passes / solves if solves else 0.0,
        "inference.table_s": total(lambda n: n == "inference.GSigmaTable"),
        "inference.profile_evals": sum(
            1 for i in dur if names(i) == "inference.mle_sigma"
            and parent_name(i) in ("inference.mle_joint", "inference.posterior_summary")
        ),
        "inference.joint_s": total(lambda n: n == "inference.mle_joint"),
        "inference.ci_s": total(lambda n: n == "inference.monotone_ci"),
        "inference.cdf_evals": count(lambda n: n == "density.cdf_homozygosity"),
        "inference.chain_self_s": self_time(lambda n: n == "inference.posterior_sample"),
        "inference.summary_s": total(lambda n: n == "inference.posterior_summary"),
        "sampler.draw_s": self_time(lambda n: n in DRAWS),
        "sampler.proposals": proposals,
        "sampler.accepted_per_proposal": accepted / proposals if proposals else 0.0,
        "sampler.tuning_s": tuning,
        "sampler.jsonl_write_s": total(lambda n: n == "sampler.write_samples_jsonl"),
        "study.run_s": total(lambda n: n == "study.run_study"),
        "cli.self_s": self_time(lambda n: n == "cli.main"),
    }
