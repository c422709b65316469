"""Span tracer installed from outside the program.

``Tracer.install`` wraps the public functions that every layer module
defines, and the public methods of its classes, by replacing the
module and class attributes that callers look up.  A function imported by
name into another module (``apps`` imports ``evolve_blocks`` from
``pipeline``) is replaced in every layer module that holds it.
``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped to count calls and
matrix sizes; each call is charged to the innermost open layer span.

Each span records its name, layer, start, end, parent and the id of the
top-level call it belongs to.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "apps", "operators", "pipeline", "oracle", "costs")

# pipeline functions whose self time is reported on its own; the rest of the
# pipeline layer is pipeline.self_s
PIPELINE_STAGES = {
    "evolve_blocks": "pipeline.evolve_s",
    "warp_extend": "pipeline.lift_s",
    "dft_p": "pipeline.fwd_s",
    "idft_p": "pipeline.inv_s",
    "recover_integrate": "pipeline.recover_s",
    "recover_point": "pipeline.recover_s",
    "project_positive": "pipeline.recover_s",
}

# self time of every other span goes to its layer's metric
_LAYER_SELF = {
    "cli": "cli.self_s",
    "apps": "apps.self_s",
    "operators": "operators.s",
    "pipeline": "pipeline.self_s",
    "oracle": "oracle.s",
    "costs": "costs.s",
}

SELF_TIME_METRICS = tuple(_LAYER_SELF.values()) + tuple(dict.fromkeys(PIPELINE_STAGES.values()))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.eigh: list[tuple[int, str, int]] = []  # (call id, layer, n)
        self.evolves: list[tuple[int, int, int]] = []  # (call id, modes, state dim)
        self.call_id = 0  # id of the latest top-level call
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"schrodingerize.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, name, wrapped[id(obj)])
        for name in ("eigh", "eigvalsh"):
            self._set(np.linalg, name, self._count_eigh(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, layer, label)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, label))

    def _wrap(self, func, layer: str, name: str):
        tracer = self
        signature = inspect.signature(func) if name == "evolve_blocks" else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                tracer.call_id += 1
            span = {
                "call": tracer.call_id,
                "id": len(tracer.spans),
                "parent": stack[-1]["id"] if stack else None,
                "layer": layer,
                "name": name,
            }
            tracer.spans.append(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                tracer.evolves.append(
                    (tracer.call_id, bound["d_matrix"].count, bound["pair"].h.dimension)
                )
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count_eigh(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(a, *args, **kwargs):
            # evolve_blocks may call this from worker threads; the span stack
            # is only changed by the calling thread, which is waiting.
            stack = tracer._stack
            layer = stack[-1]["layer"] if stack else "outside"
            tracer.eigh.append((tracer.call_id, layer, int(np.shape(a)[-1])))
            return func(a, *args, **kwargs)

        return wrapper

    def call_metrics(self, call_id: int) -> dict:
        """Self times and counters of one top-level call."""
        spans = [s for s in self.spans if s["call"] == call_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {name: 0.0 for name in SELF_TIME_METRICS}
        for s in spans:
            self_s = s["end"] - s["start"] - child_time[s["id"]]
            key = _LAYER_SELF[s["layer"]]
            if s["layer"] == "pipeline":
                key = PIPELINE_STAGES.get(s["name"], key)
            out[key] += self_s
        roots = [s for s in spans if s["parent"] is None]
        out["trace.root_s"] = sum(s["end"] - s["start"] for s in roots)
        for layer in LAYERS:
            out[f"{layer}.eigh_calls"] = 0
        out["outside.eigh_calls"] = 0
        out["pipeline.eigh_n3"] = 0
        for cid, layer, n in self.eigh:
            if cid == call_id:
                out[f"{layer}.eigh_calls"] += 1
                if layer == "pipeline":
                    out["pipeline.eigh_n3"] += n**3
        evolves = [(modes, dim) for cid, modes, dim in self.evolves if cid == call_id]
        out["pipeline.modes"] = sum(modes for modes, _ in evolves)
        out["pipeline.state_dim"] = max((dim for _, dim in evolves), default=0)
        out["pipeline.lifted_mb"] = max((16 * m * d for m, d in evolves), default=0) / 2**20
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
