"""Outside-in tracer: spans around calls into terraslope's public functions.

The library is not changed.  :meth:`Tracer.install` wraps every public plain
function of the layer modules and rebinds each module attribute that holds
one of them, including the copies other modules imported (for example
``terraslope.correction.window_stack`` and the package-level re-exports).
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``run`` the benchmark iteration that
caused it.  Spans stay in memory and are written out at the end.

Probes compute counters from a call's arguments and return value.  Their
time is recorded as a ``trace.probe`` span beside the probed call, so it is
taken out of the parent's self time and shows as tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

#: The package modules, one layer each.
LAYERS = ("raster", "slope", "partition", "correction", "losses", "metrics", "simulate", "cli")
#: Public functions left unwrapped: a context manager, not a call with a duration.
EXCLUDED = {"atomic_output"}
PROBE = "trace.probe"

Probe = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self, probes: dict[str, Probe] | None = None):
        self.spans: list[tuple] = []
        #: Names of the wrapped functions, ``<layer>.<function>``.
        self.functions: list[str] = []
        self.run = 0
        self._probes = probes or {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, package: str = "terraslope") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers, self.functions = {}, []
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in EXCLUDED
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                    self.functions.append(f"{layer}.{name}")
        for module in [importlib.import_module(package), *modules.values()]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if probe is not None:
                probe(args, kwargs, result)
                spans.append((PROBE, end, clock(), parent, self.run))
            return result

        return traced

    def write(self, path: Path, **meta) -> None:
        """Write the spans as JSON, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": rows}), encoding="ascii")


def self_times(spans: list[tuple]) -> tuple[dict[str, float], Counter]:
    """Total self time and call count per span name.

    A span's self time is its duration minus the part of its interval that
    the union of its children's intervals covers.
    """
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
        calls[name] += 1
    return dict(totals), calls


class MechanismCounters:
    """Counters computed from what the layers return.

    Per ``run_pipeline`` call: the range hit rate of stages 2 and 3 (share
    of jointly valid pixels whose ground truth lies in the ``pixel_range``
    output), the upper-plane share of the stage 2 and 3 partitions (share of
    planes at or above the pixel's current estimate), the per-stage MAE, and
    the bytes of the plane and probability volumes the stages returned.
    Also the bytes of ASCII grids read and written.
    """

    def __init__(self, arms: tuple):
        self._arm = {(p, c): label for label, p, c in arms}
        self._ranges: list = []
        self._above: list[float | None] = []
        self.pipelines = 0
        self.volume_bytes = 0
        self.io_bytes: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    def names(self) -> set[str]:
        """Every counter in ``samples``, also those a workload never reaches."""
        hit = "partition.range_hit_rate"
        return (
            {f"simulate.stage_mae_m.stage{k}" for k in (1, 2, 3)}
            | {f"{kind}.stage{k}" for kind in (hit, "partition.above_share") for k in (2, 3)}
            | {f"{hit}.{arm}.stage{k}" for arm in self._arm.values() for k in (2, 3)}
        )

    def probes(self) -> dict[str, Probe]:
        return {
            "partition.equal_partition": self._equal,
            "partition.slope_guided_partition": self._guided,
            "partition.pixel_range": lambda args, kwargs, ranges: self._ranges.append(ranges),
            "simulate.oracle_matcher": self._matcher,
            "simulate.run_pipeline": self._pipeline,
            "raster.read_ascii_grid": lambda args, kwargs, grid: self._io("read", args[0]),
            "raster.write_ascii_grid": lambda args, kwargs, _: self._io("write", args[1]),
        }

    def _io(self, kind: str, path) -> None:
        self.io_bytes[kind] += Path(path).stat().st_size

    def _equal(self, args, kwargs, planes) -> None:
        self._partition(planes, lambda: (args[0].low + args[0].high) / 2.0)

    def _guided(self, args, kwargs, planes) -> None:
        self._partition(planes, lambda: args[0].values)

    def _partition(self, planes, center: Callable[[], np.ndarray]) -> None:
        self.volume_bytes += planes.planes.nbytes
        if not self._above:  # stage 1 sweeps the global range
            self._above.append(None)
            return
        # Every pixel has the same plane count, so the pooled share is the
        # mean of the per-pixel shares.
        above = (planes.planes >= center()[:, :, None]) & planes.mask[:, :, None]
        valid_planes = np.count_nonzero(planes.mask) * planes.plane_count
        self._above.append(np.count_nonzero(above) / valid_planes)

    def _matcher(self, args, kwargs, probs) -> None:
        self.volume_bytes += probs.probs.nbytes

    def _pipeline(self, args, kwargs, result) -> None:
        gt, stages = args[0], args[2]
        arm = self._arm[(stages[-1].use_slope_partition, stages[-1].use_height_correction)]
        for stage, ranges in enumerate(self._ranges, start=2):
            valid = ranges.mask & gt.mask
            truth = gt.values[valid]
            hit = (truth >= ranges.low[valid]) & (truth <= ranges.high[valid])
            rate = float(hit.mean())
            self.samples[f"partition.range_hit_rate.stage{stage}"].append(rate)
            self.samples[f"partition.range_hit_rate.{arm}.stage{stage}"].append(rate)
        for stage, share in enumerate(self._above[1:], start=2):
            self.samples[f"partition.above_share.stage{stage}"].append(share)
        for stage, report in enumerate(result.reports, start=1):
            self.samples[f"simulate.stage_mae_m.stage{stage}"].append(report.mae)
        self.pipelines += 1
        self._ranges, self._above = [], []
