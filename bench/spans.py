"""In-memory span recording for the benchmark's traced runs.

A span is (name, start, end, parent span, op id).  Spans are kept in
flat arrays while the run goes and written out once at its end.  The
recorder wraps callables at module boundaries at run time, from the
benchmark's own files: the calls a workload makes through its
``Library`` object, plus a fixed set of library names that sit on the
boundary between two layers (:data:`LIBRARY_BOUNDARIES`).  Untraced
runs never build a recorder, so they wrap nothing.

A span's self time is its duration minus the time its child spans
cover.  Calls run on one thread and nest, so the children of one span
never overlap and the time they cover is the sum of their durations.
The root span of each op is ``bench.op``; its self time is the
benchmark's own time, so layer self times plus ``bench.op`` add up to
the traced op time.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

from polaray.symbols import MatrixSymbol

ROOT = "bench.op"

# the package re-exports the function transport under the submodule's name
_transport_module = importlib.import_module("polaray.transport")
_wavepacket_module = importlib.import_module("polaray.wavepacket")

# (owner, attribute, span name): library names between two layers
LIBRARY_BOUNDARIES = (
    (MatrixSymbol, "eval", "symbols.eval"),
    (MatrixSymbol, "eval_raw", "symbols.eval"),
    (MatrixSymbol, "diff_x", "symbols.derive"),
    (MatrixSymbol, "diff_k", "symbols.derive"),
    (MatrixSymbol, "matmul", "symbols.derive"),
    (_transport_module, "kernel_residual", "principal_type.kernel"),
    (_wavepacket_module, "windowed_spectrum", "wavepacket.spectrum"),
    (_wavepacket_module, "standard_basis", "gauge"),
)


def _trace_ray_name(args, kwargs) -> str:
    return "rays.adaptive" if kwargs.get("method") == "adaptive" else "rays.rk4"


def _file_bytes(result, args, kwargs) -> dict:
    return {"serialization.bytes_written": os.path.getsize(args[0])}


def _ray_steps(result, args, kwargs) -> dict:
    return {f"{_trace_ray_name(args, kwargs)}_steps": len(result) - 1}


def _grid_points(result, args, kwargs) -> dict:
    grid = result.grid
    return {"wavepacket.synth_points": grid.time_slices * int(np.prod(grid.samples))}


# Library attribute -> (span name or function of the call, counter function)
CALL_SPANS = {
    "decompose_principal_type": ("principal_type.decompose", None),
    "trace_ray": (_trace_ray_name, _ray_steps),
    "transport": ("transport", lambda r, a, k: {"transport.samples": len(r)}),
    "project_wavefront": (
        "transport.wavefront",
        lambda r, a, k: {"transport.wavefront_in": len(a[0]), "transport.wavefront_kept": len(r)},
    ),
    "physical_polarizations": ("gauge", None),
    "synthesize": ("wavepacket.synth", _grid_points),
    "estimate_polarization_set": (
        "wavepacket.estimate",
        lambda r, a, k: {"wavepacket.estimates": len(r)},
    ),
    "straightness_track": ("wavepacket.track", None),
    "compare": ("wavepacket.compare", None),
    "write_orbit_csv": ("serialization.write", _file_bytes),
    "write_gridfield": ("serialization.write", _file_bytes),
    "write_estimates_json": ("serialization.write", _file_bytes),
    "read_orbit_csv": ("serialization.read", None),
    "read_gridfield": ("serialization.read", None),
    "roundtrip": ("serialization.roundtrip", None),
    "cli_run": ("cli", None),
}


class SpanRecorder:
    """Flat-array store of spans and per-op counters."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, dict[int, float]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def calls(self, name: str) -> int:
        """Number of spans recorded under ``name``."""
        if name not in self.ids:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name, dtype=np.int32) == self.ids[name]))

    def _name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Run one op under a root span."""
        self._op = op_id
        idx = self._open(self._name_id(ROOT))
        try:
            return fn()
        finally:
            self._close(idx)

    def count(self, values: dict) -> None:
        for key, value in values.items():
            per_op = self.counters.setdefault(key, {})
            per_op[self._op] = per_op.get(self._op, 0) + value

    def wrap(self, name, fn, counter=None):
        """Wrap fn in a span; ``name`` may be a function of the call."""
        fixed = None if callable(name) else self._name_id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.count(counter(result, args, kwargs))
            return result

        return wrapper

    def install(self, lib) -> None:
        """Wrap the workload's library calls and the library boundaries."""
        for attr, (name, counter) in CALL_SPANS.items():
            self._patch(lib, attr, name, counter)
        for owner, attr, name in LIBRARY_BOUNDARIES:
            self._patch(owner, attr, name, None)

    def _patch(self, owner, attr, name, counter) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered,
        }

    def save(self, path: str) -> None:
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: spans[k] for k in ("name", "parent", "op", "start", "end", "self")},
        )


# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "symbols.eval_s": "symbols.eval",
    "symbols.derive_s": "symbols.derive",
    "principal_type.decompose_s": "principal_type.decompose",
    "principal_type.kernel_s": "principal_type.kernel",
    "rays.rk4_s": "rays.rk4",
    "rays.adaptive_s": "rays.adaptive",
    "transport.s": "transport",
    "transport.wavefront_s": "transport.wavefront",
    "wavepacket.synth_s": "wavepacket.synth",
    "wavepacket.spectrum_s": "wavepacket.spectrum",
    "wavepacket.estimate_self_s": "wavepacket.estimate",
    "wavepacket.track_s": "wavepacket.track",
    "wavepacket.compare_s": "wavepacket.compare",
    "serialization.write_s": "serialization.write",
    "serialization.read_s": "serialization.read",
    "serialization.roundtrip_s": "serialization.roundtrip",
    "gauge.s": "gauge",
    "cli.run_s": "cli",
    "bench.self_s": ROOT,
}
# per-layer metric -> span whose calls it counts
CALLS = {
    "symbols.eval_calls": "symbols.eval",
    "symbols.derive_calls": "symbols.derive",
    "principal_type.kernel_calls": "principal_type.kernel",
    "wavepacket.spectrum_calls": "wavepacket.spectrum",
    "gauge.calls": "gauge",
    "cli.calls": "cli",
}
# counters reported as they are, with their units
COUNTERS = {
    "rays.rk4_steps": "count/op",
    "rays.adaptive_steps": "count/op",
    "transport.samples": "count/op",
    "transport.wavefront_in": "count/op",
    "transport.wavefront_kept": "count/op",
    "wavepacket.estimates": "count/op",
    "serialization.bytes_written": "B/op",
}


def layer_metrics(recorder: SpanRecorder, untraced_p50_s: float, traced_p50_s: float) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, from spans and counters.

    Times and counts are means per traced op.  ``_s`` metrics are self
    times; ``us_per_step``, ``us_per_sample`` and ``synth_mpts_per_s``
    use the inclusive duration of the named spans.
    """
    spans = recorder.arrays()
    ops = recorder.calls(ROOT)

    def per_op(span: str, field: str) -> float:
        mask = spans["name"] == recorder.ids.get(span, -1)
        return float(spans[field][mask].sum()) / ops

    def counter(key: str) -> float:
        return float(sum(recorder.counters.get(key, {}).values())) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {name: (per_op(span, "self"), "s/op") for name, span in SELF_TIMES.items()}
    m.update({name: (recorder.calls(span) / ops, "count/op") for name, span in CALLS.items()})
    m.update({name: (counter(name), unit) for name, unit in COUNTERS.items()})
    steps = counter("rays.rk4_steps") + counter("rays.adaptive_steps")
    ray_time = per_op("rays.rk4", "duration") + per_op("rays.adaptive", "duration")
    m["rays.us_per_step"] = (1e6 * ratio(ray_time, steps), "us")
    m["transport.us_per_sample"] = (
        1e6 * ratio(per_op("transport", "duration"), counter("transport.samples")),
        "us",
    )
    m["wavepacket.synth_mpts_per_s"] = (
        1e-6 * ratio(counter("wavepacket.synth_points"), per_op("wavepacket.synth", "duration")),
        "Mpt/s",
    )
    all_self = sum(per_op(span, "self") for span in recorder.names)
    m["bench.accounted"] = (ratio(all_self, per_op(ROOT, "duration")), "ratio")
    m["bench.trace_overhead"] = (ratio(traced_p50_s, untraced_p50_s), "ratio")
    m["bench.traced_ops"] = (float(ops), "count")
    m["bench.spans"] = (len(recorder) / ops, "count/op")
    return m
