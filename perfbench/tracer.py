"""Span tracing of letd from outside the package.

`Tracer.installed()` swaps public letd functions for wrappers that record
one span per call (name, start, end, parent id) and a few counters, and
puts the originals back on exit.  A function is patched under every
module attribute that holds it, i.e. wherever callers look it up; names
that a letd version does not have are skipped, so the tracer survives
renames (the affected layer then reads 0).  Spans stay in memory until
`save` writes them out.
"""
from __future__ import annotations

import contextlib
import json
import time

import numpy as np

# function name -> layer; looked up in every letd module namespace
LAYER_OF = {
    "build_laplacian_1d": "matfunc.factorization",
    "build_laplacian_2d": "matfunc.factorization",
    "spectral_factorization": "matfunc.factorization",
    "spectral_factorization_2d": "matfunc.factorization",
    "make_workspace": "steppers.workspace",
    "run_monodomain": "steppers.monodomain",
    "build_local_pieces": "schwarz.pieces",
    "build_local_pieces_2d": "schwarz.pieces",
    "assemble_forcing": "geometry.forcing",
    "assemble_forcing_2d": "geometry.forcing",
    "method1_advance": "schwarz.driver",
    "method1_march": "schwarz.driver",
    "method2_solve": "schwarz.driver",
    "initial_traces": "schwarz.exchange",
    "estimate_contraction": "analysis",
    "linf_norms": "analysis",
    "observed_order": "analysis",
    # the harness's own exact-solution, error-norm and decay-row helpers
    "_exact_blocks_1d": "analysis",
    "_final_error_2d": "analysis",
    "_decay_from_log": "analysis",
    "run_experiment": "harness",
    "main": "harness",
}
MODULES = ("matfunc", "geometry", "steppers", "schwarz", "analysis", "harness")
LAYERS = (
    "matfunc.dst", "matfunc.factorization", "steppers.workspace", "schwarz.pieces",
    "geometry.forcing", "schwarz.driver", "schwarz.exchange", "steppers.monodomain",
    "analysis", "harness", "harness.write",
)
COUNTERS = ("matfunc.dst.calls", "matfunc.dst.values", "geometry.forcing.calls",
            "schwarz.exchange.calls", "schwarz.sweeps", "schwarz.levels",
            "schwarz.unconverged")


def _window_lengths(steps: int, window_steps) -> list:
    win = window_steps or steps
    return [min(win, steps - s) for s in range(0, steps, win)]


class Tracer:
    """Spans and counters of one traced workload run."""

    def __init__(self) -> None:
        self.layers: list = []  # index into LAYERS, one per span
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, fn, layer, after=None):
        layers, starts, ends, parents, stack = (
            self.layers, self.starts, self.ends, self.parents, self._stack)
        code = LAYERS.index(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(layers)
            layers.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # counters read from arguments and return values ------------------------

    def _after_dst(self, args, kwargs, out):
        self.counts["matfunc.dst.calls"] += 1
        self.counts["matfunc.dst.values"] += int(np.size(args[1]))

    def _after_call(self, key):
        def after(args, kwargs, out):
            self.counts[key] += 1
        return after

    def _after_advance(self, args, kwargs, out):
        # one time level: each sweep steps every piece once
        log = out[1]
        self.counts["schwarz.sweeps"] += log.iterations
        self.counts["schwarz.levels"] += log.iterations * len(args[0])
        self.counts["schwarz.unconverged"] += not log.converged

    def _after_waveform(self, args, kwargs, out):
        pieces, timegrid, config = args[0], args[2], args[3]
        log = out[1]
        logs = log.windows or (log,)
        lengths = _window_lengths(timegrid.steps, config.window_steps)
        self.counts["schwarz.sweeps"] += log.iterations
        self.counts["schwarz.levels"] += sum(
            w.iterations * n * len(pieces) for w, n in zip(logs, lengths))
        self.counts["schwarz.unconverged"] += not log.converged

    @contextlib.contextmanager
    def installed(self, letd):
        """Patch letd while the block runs; always restore the originals."""
        after = {
            "assemble_forcing": self._after_call("geometry.forcing.calls"),
            "assemble_forcing_2d": self._after_call("geometry.forcing.calls"),
            "initial_traces": self._after_call("schwarz.exchange.calls"),
            "method1_advance": self._after_advance,
            "method2_solve": self._after_waveform,
        }
        modules = [getattr(letd, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            for name, layer in LAYER_OF.items():
                fn = mod.__dict__.get(name)
                if callable(fn) and getattr(fn, "__module__", "").startswith("letd."):
                    wrappers.setdefault(id(fn), self._wrap(fn, layer, after.get(name)))
        saved = []
        try:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers:
                        saved.append((mod, attr, val))
                        setattr(mod, attr, wrappers[id(val)])
            # from_modes delegates to to_modes, so each transform counts once
            for cls in vars(letd.matfunc).values():
                if isinstance(cls, type) and "to_modes" in vars(cls):
                    fn = vars(cls)["to_modes"]
                    saved.append((cls, "to_modes", fn))
                    cls.to_modes = self._wrap(fn, "matfunc.dst", self._after_dst)
            result_cls = getattr(letd.harness, "ExperimentResult", None)
            if result_cls is not None and "write" in vars(result_cls):
                saved.append((result_cls, "write", vars(result_cls)["write"]))
                result_cls.write = self._wrap(vars(result_cls)["write"], "harness.write")
            yield self
        finally:
            for obj, attr, val in reversed(saved):
                setattr(obj, attr, val)

    # aggregation -----------------------------------------------------------

    def self_times(self) -> dict:
        """Layer -> summed span duration minus the time its child spans cover."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        inner = parents >= 0
        np.add.at(child, parents[inner], dur[inner])
        sums = np.bincount(np.asarray(self.layers, dtype=np.int64), weights=dur - child,
                           minlength=len(LAYERS))
        return {name: float(value) for name, value in zip(LAYERS, sums)}

    def save(self, path, extra: dict) -> None:
        """Write the recorded spans (times relative to the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        np.savez(
            path,
            layer_names=np.array(LAYERS),
            layer=np.asarray(self.layers, dtype=np.int16),
            start=np.asarray(self.starts) - t0,
            end=np.asarray(self.ends) - t0,
            parent=np.asarray(self.parents, dtype=np.int64),
            meta=np.array(json.dumps(extra)),
        )
