"""Span tracer for otoclab's layers, installed from outside the package.

The CLI binds layer functions with ``from ... import``, so each wrapper
replaces every binding of the original function in every loaded otoclab
module, not only the one in the defining module.  Spans nest
(``variance_otoc`` contains ``evolve_batch``, ``phase_portrait`` contains
``integrate``, ``husimi_second_moments`` contains ``husimi_centroid``
contains ``husimi_norm``), and each span's self time -- its duration minus
the time of its child spans -- is charged to one per-layer metric, so the
self times plus ``cli.self_s`` add up to the traced wall time.

Spans are kept in memory and written as JSON lines by ``write``.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
from otoclab.analysis import MIN_FIT_SAMPLES


def _candidates(a) -> int:
    """Windows auto_window scores: at least MIN_FIT_SAMPLES samples and a
    span >= min_span, computed with the same float comparisons."""
    t = a["series"].times
    if a["search"] is not None:
        t = t[(t >= a["search"][0]) & (t <= a["search"][1])]
    k = MIN_FIT_SAMPLES - 1
    return int(sum(np.count_nonzero(t[i + k:] - t[i] >= a["min_span"])
                   for i in range(t.size)))


def _write_counts(a, result) -> dict:
    return {"output.files": 1, "output.bytes": os.path.getsize(a["path"])}


# (module, function, metric charged with the self time, exact counts)
SPANS = [
    ("otoclab.fock", "build_iho", "fock.build_s",
     lambda a, r: {"fock.build_calls": 1}),
    ("otoclab.fock", "build_hiho", "fock.build_s",
     lambda a, r: {"fock.build_calls": 1}),
    ("otoclab.fock", "coherent_state", "fock.coherent_s",
     lambda a, r: {"fock.coherent_states": 1}),
    ("otoclab.evolution", "diagonalize", "evolution.eigh_s",
     lambda a, r: {"evolution.eigh_calls": 1,
                   "evolution.eigh_dim3": a["H"].shape[0] ** 3}),
    ("otoclab.evolution", "evolve_batch", "evolution.evolve_batch_s",
     lambda a, r: {"evolution.evolve_batch_madds": r.shape[0] ** 2 * r.shape[1]}),
    ("otoclab.evolution", "variance_otoc", "evolution.observables_s", None),
    ("otoclab.evolution", "photon_series", "evolution.observables_s", None),
    ("otoclab.evolution", "evolve", "evolution.evolve_s", None),
    ("otoclab.husimi", "husimi_q", "husimi.q_s",
     lambda a, r: {"husimi.q_work": r.values.size * a["state"].shape[0]}),
    ("otoclab.husimi", "husimi_norm", "husimi.diagnostics_s", None),
    ("otoclab.husimi", "husimi_centroid", "husimi.diagnostics_s", None),
    ("otoclab.husimi", "husimi_second_moments", "husimi.diagnostics_s", None),
    ("otoclab.husimi", "count_local_maxima", "husimi.diagnostics_s", None),
    ("otoclab.classical", "lyapunov_tangent", "classical.lyapunov_s",
     lambda a, r: {"classical.lyapunov_steps": int(round(a["t_total"] / a["dt"]))}),
    ("otoclab.classical", "integrate", "classical.integrate_s",
     lambda a, r: {"classical.integrate_steps": r.times.size - 1}),
    ("otoclab.classical", "phase_portrait", "classical.integrate_s", None),
    ("otoclab.analysis", "auto_window", "analysis.auto_window_s",
     lambda a, r: {"analysis.auto_window_candidates": _candidates(a)}),
    ("otoclab.analysis", "fit_exponential", "analysis.fit_s", None),
    ("otoclab.output", "write_csv", "output.write_s", _write_counts),
    ("otoclab.output", "write_json", "output.write_s", _write_counts),
    ("otoclab.output", "write_grid", "output.write_s", _write_counts),
    ("otoclab.output", "write_gnuplot", "output.write_s", _write_counts),
    ("otoclab.config", "load", "config.load_s", None),
    ("otoclab.config", "parse", "config.load_s", None),
    ("otoclab.config", "ExperimentConfig.validate", "config.load_s", None),
]

SELF_METRICS = sorted({m for _, _, m, _ in SPANS})


class Tracer:
    """Wraps the functions in SPANS while installed and records spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_s = 0.0  # summed duration of spans with no parent
        self._stack: list[list] = []  # [span index, child time]
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, metric: str, count):
        sig = inspect.signature(fn)
        spans, stack, self_s = self.spans, self._stack, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0]
            spans.append({"name": name, "parent": parent})
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[frame[0]].update(start=t0, end=t1)
                self_s[metric] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for k, v in count(bound.arguments, result).items():
                    self.counts[k] += v
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "otoclab" or n.startswith("otoclab.")]
        for mod_name, qualname, metric, count in SPANS:
            owner = sys.modules[mod_name]
            if "." in qualname:  # a method: patch the class attribute
                cls_name, attr = qualname.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                attr = qualname
                targets = mods
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, qualname, metric, count)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and the exact counts made so far (a count
        whose function never ran is absent) for a traced region of
        ``wall_s`` seconds; ``cli.self_s`` is the part no span covers."""
        out = {m: self.self_s.get(m, 0.0) for m in SELF_METRICS}
        out.update(self.counts)
        eigh = self.counts.get("evolution.eigh_calls", 0)
        out["evolution.states_per_eigh"] = (
            self.counts.get("fock.coherent_states", 0) / eigh if eigh else 0.0)
        out["cli.self_s"] = wall_s - self.top_s
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
