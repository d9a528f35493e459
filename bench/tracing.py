"""Spans recorded from outside the package, and the self times derived from them.

The worker wraps the public functions below at every ``freqgcn`` module
attribute bound to them (``freqgcn.training`` imports ``model_forward`` by
name, so both ``freqgcn.model.model_forward`` and
``freqgcn.training.model_forward`` are replaced). Nothing under ``src/`` is
edited. Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = {
    "pose": ("load_sequence", "interpolate_missing", "normalize_sequence"),
    "frequency": (
        "extract_features", "fft_bluestein", "bin_spectrum",
        "read_features_csv", "write_features_csv",
    ),
    "graph": ("build_feature_graph",),
    "model": ("model_forward", "backward", "load_model", "save_model"),
    "training": ("train", "evaluate"),
}


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = -1

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])

    def exit(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter_ns()


class Patches:
    """Replaces each traced function at every binding in the loaded freqgcn modules."""

    def __init__(self, recorder: Recorder):
        self._bindings = []
        for layer, names in TRACED.items():
            module = sys.modules[f"freqgcn.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = _wrap(recorder, f"{layer}.{name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "freqgcn" or mod_name.startswith("freqgcn."):
                        for attr, value in vars(mod).items():
                            if value is original:
                                self._bindings.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)


def _wrap(recorder: Recorder, span_name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.enter(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    return traced


def per_request(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """{request: {span name: {"ms", "self_ms", "calls"}}}.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because one thread runs a request.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
    )
    for (name, start, end, _, request), children in zip(spans, child_ns):
        entry = out[request][name]
        entry["ms"] += (end - start) / 1e6
        entry["self_ms"] += (end - start - children) / 1e6
        entry["calls"] += 1
    return out
