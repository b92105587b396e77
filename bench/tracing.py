"""Spans around calls into modemb's public functions, installed from outside.

Most modemb modules import names with ``from .x import y``, so a wrapper
has to replace the name in every loaded modemb module that holds the
original function: ``transform`` lives in ``grid`` but is also a global of
``norms``, ``families`` and ``partitions``. Functions whose names start
with an underscore stay unwrapped, so their time counts as the caller's
self time. A function captured in a data structure at import time (for
example the ``lattice_comb`` entry of ``experiments._FAMILY_BUILDERS``)
keeps its original reference and is not traced.

``StepClock`` uses the same wrapping, plus ``numpy.fft``, for untraced
runs: it only counts calls, so that each run can be cut into the same steps.

A span is (name, start ns, end ns, parent index). Spans stay in memory and
are written out once the run ends. The run is single-threaded, so spans
nest strictly and every span's self time (duration minus its children's
durations) sums, over all spans, to the root span's duration exactly.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

import numpy as np

import reference

LAYERS = ("cli", "experiments", "families", "partitions", "norms", "grid", "oracle")
ROOT = "bench.workload"


def _public_functions():
    """(layer, name, function) for every public function of the layer modules."""
    for layer in LAYERS:
        module = sys.modules[f"modemb.{layer}"]
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                yield layer, name, obj


def _patch_everywhere(wrappers: dict) -> list:
    """Replace each function (keyed by id) with its wrapper in every loaded
    modemb module that binds it; return what was replaced."""
    patched = []
    holders = [m for n, m in sys.modules.items() if n == "modemb" or n.startswith("modemb.")]
    for module in holders:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)
    return patched


def _restore(patched: list) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
    patched.clear()


def _count_boxes(tracer, args, kwargs, result):
    _points, norms = result
    tracer.counts["norms.boxes_total"] += len(norms)
    tracer.counts["norms.boxes_active"] += int(np.count_nonzero(norms))


def _count_transform(tracer, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    if result is not f:  # the call changed side, so it ran an FFT
        tracer.counts["grid.fft_calls"] += 1
        tracer.counts["grid.fft_samples"] += f.spec.n ** f.spec.d


def _count_cells(tracer, args, kwargs, result):
    tracer.counts["oracle.cells"] += len(result)


# Counts taken from a wrapped call's arguments and return value.
_ON_RETURN = {
    "norms.box_piece_norms": _count_boxes,
    "grid.transform": _count_transform,
    "oracle.classify_region": _count_cells,
}


class Tracer:
    """Records one run's spans and counts; ``install`` wraps the layers."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        on_return = _ON_RETURN.get(span_name)
        errors = f"{layer}.errors"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[errors] += 1
                raise
            finally:
                tracer._close(index)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        wrappers = {id(fn): self._wrap(layer, name, fn) for layer, name, fn in _public_functions()}
        self._patched = _patch_everywhere(wrappers)

    def uninstall(self) -> None:
        _restore(self._patched)

    def run_root(self, fn, *args):
        """Call fn(*args) inside the root span."""
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def self_times_ns(self) -> list[int]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        selfs = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= durations[i]
        return selfs

    def write(self, path) -> None:
        spans = [list(span) for span in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as handle:
            json.dump({"trace_id": self.trace_id,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": spans}, handle)
            handle.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced run (all times in seconds).

        ``*_self_s`` and ``*.synth_s``/``*.build_s``/``*.transform_s`` are self
        times. The oracle calls no other traced layer, so its
        ``decide_s``/``classify_region_s`` are inclusive of the oracle
        helpers those entry points call.
        """
        selfs = self.self_times_ns()
        self_by_name: Counter = Counter()
        incl_by_name: Counter = Counter()
        calls: Counter = Counter()
        self_by_layer: Counter = Counter()
        for name, start, end, own in zip(self.names, self.starts, self.ends, selfs):
            self_by_name[name] += own
            incl_by_name[name] += end - start
            calls[name] += 1
            self_by_layer[name.split(".", 1)[0]] += own

        def sec(ns):
            return ns / 1e9

        root_ns = incl_by_name[ROOT]
        c = self.counts
        decide_s = sec(incl_by_name["oracle.decide"])
        classify_s = sec(incl_by_name["oracle.classify_region"])
        metrics = {
            "trace.spans": len(self.names),
            "bench.self_s": sec(self_by_name[ROOT]),
            "cli.self_s": sec(self_by_layer["cli"]),
            "experiments.self_s": sec(self_by_layer["experiments"]),
            "families.synth_s": sec(self_by_layer["families"]),
            "families.calls": sum(n for name, n in calls.items()
                                  if name.startswith("families.family_")),
            "partitions.build_s": sec(self_by_name["partitions.build_uniform"]
                                      + self_by_name["partitions.build_dyadic"]),
            "norms.box_pieces_s": sec(self_by_name["norms.box_piece_norms"]),
            "norms.box_pieces_share": (self_by_name["norms.box_piece_norms"] / root_ns
                                       if root_ns else 0.0),
            "norms.boxes_total": c["norms.boxes_total"],
            "norms.boxes_active": c["norms.boxes_active"],
            "norms.box_active_ratio": (c["norms.boxes_active"] / c["norms.boxes_total"]
                                       if c["norms.boxes_total"] else 0.0),
            "norms.modulation_self_s": sec(self_by_name["norms.modulation_norm"]),
            "norms.besov_self_s": sec(self_by_name["norms.besov_norm"]),
            "norms.triebel_self_s": sec(self_by_name["norms.triebel_norm"]),
            "grid.transform_s": sec(self_by_name["grid.transform"]),
            "grid.transform_calls": calls["grid.transform"],
            "grid.fft_calls": c["grid.fft_calls"],
            "grid.fft_samples": c["grid.fft_samples"],
            "grid.lp_norm_s": sec(self_by_name["grid.lp_norm"]),
            "grid.lq_seq_norm_s": sec(self_by_name["grid.lq_seq_norm"]),
            "oracle.decide_s": decide_s,
            "oracle.decide_calls": calls["oracle.decide"],
            "oracle.decide_per_s": calls["oracle.decide"] / decide_s if decide_s else 0.0,
            "oracle.classify_region_s": classify_s,
            "oracle.cells": c["oracle.cells"],
            "oracle.cells_per_s": c["oracle.cells"] / classify_s if classify_s else 0.0,
        }
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = c[f"{layer}.errors"]
        return metrics


# numpy.fft entry points; modemb looks them up on the module at call time.
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                 "rfft", "irfft", "rfftn", "irfftn")
MIN_STEP_NS = 2_000_000


class StepClock:
    """Cuts an untraced run into steps of at least ``MIN_STEP_NS``.

    An event is a call into a public function of a layer module or into a
    ``numpy.fft`` function; the clock counts them. Without a ``plan`` it
    learns one: a step ends at the first event at least ``MIN_STEP_NS``
    after the previous step ended, and that event's index becomes a
    boundary. Given the plan of a learning run, it records the time at each
    boundary, so every run of the same deterministic workload is cut at the
    same points and step k of one run can be compared with step k of
    another.

    The clock also runs ``reference.probe`` at a boundary whenever
    ``reference.PROBE_GAP_NS`` have passed since the last probe; the plan
    fixes at which boundaries. Probe time is left out of the steps.
    """

    def __init__(self, plan: dict | None = None):
        self.learning = plan is None
        plan = plan or {"boundaries": [], "probes": []}
        self.boundaries: list[int] = plan["boundaries"]
        self.probe_at: list[int] = plan["probes"]
        self.events = 0
        self.times: list[int] = []
        self.probes_ns: list[int] = []
        self._k = 0
        self._next = self.boundaries[0] if self.boundaries else -1
        self._next_probe = self.probe_at[0] if self.probe_at else -1
        self._last = self._last_probe = 0
        self._excluded = 0  # ns spent in probes, left out of every time
        self._patched: list = []

    def plan(self) -> dict:
        return {"boundaries": self.boundaries, "probes": self.probe_at}

    def _now(self) -> int:
        return time.perf_counter_ns() - self._excluded

    def _run_probe(self) -> None:
        took = reference.probe()
        self.probes_ns.append(took)
        self._excluded += took

    def tick(self) -> None:
        self.events += 1
        if self.learning:
            now = self._now()
            if now - self._last >= MIN_STEP_NS:
                self.boundaries.append(self.events)
                self.times.append(now)
                self._last = now
                if now - self._last_probe >= reference.PROBE_GAP_NS:
                    self.probe_at.append(self.events)
                    self._last_probe = now
                    self._run_probe()
        elif self.events == self._next:
            self.times.append(self._now())
            self._k += 1
            self._next = self.boundaries[self._k] if self._k < len(self.boundaries) else -1
            if self.events == self._next_probe:
                self._run_probe()
                done = len(self.probes_ns)
                self._next_probe = self.probe_at[done] if done < len(self.probe_at) else -1

    def _wrap(self, fn):
        tick = self.tick

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(fn) for _layer, _name, fn in _public_functions()}
        self._patched = _patch_everywhere(wrappers)
        for name in FFT_FUNCTIONS:
            original = getattr(np.fft, name)
            self._patched.append((np.fft, name, original))
            setattr(np.fft, name, self._wrap(original))

    def uninstall(self) -> None:
        _restore(self._patched)

    def run(self, fn, *args):
        """Call fn(*args); return its result and the step durations in ns,
        probe time left out."""
        start = self._last = self._now()
        self._last_probe = start - reference.PROBE_GAP_NS  # probe at the first boundary
        result = fn(*args)
        end = self._now()
        marks = [start, *self.times, end]
        return result, [b - a for a, b in zip(marks, marks[1:])]
