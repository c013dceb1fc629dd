"""Outside-in span tracing of privsum's layers.

The tracer replaces each layer's public functions at the module names
where their callers bind them (for example `privsum.aggregation.substream`
or `privsum.audit.sample_projection`) with a wrapper that records one span
per call: (id, name, parent, op, start, end). Nothing in `src/` changes.
Spans live in compact arrays while the benchmark runs and are written out
once, at the end. A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "op"

# layer span name -> the privsum modules whose binding of that name is wrapped
BINDINGS: dict[str, tuple[str, ...]] = {
    "rng.substream": ("rng", "harness", "aggregation", "verification", "audit", "cli"),
    "core.as_vector": ("core", "sharing", "verification", "aggregation", "audit"),
    "core.sample_projection": ("verification", "audit"),
    "core.calibrate": ("cli",),
    "sharing.share_vector": ("harness", "audit", "cli"),
    "sharing.truncate_share": ("harness", "verification"),
    "sharing.simulate_share_view": ("cli",),
    "verification.project_reply": ("aggregation", "audit"),
    "verification.verifier0_decide": ("aggregation", "audit"),
    "verification.session_matrix": ("aggregation",),
    "aggregation.run_aggregation": ("harness",),
    "harness.run_scenario": ("harness", "audit"),
    "harness.build_submission": ("harness",),
    "harness.scenario_client_ids": ("harness",),
    "harness.measured_traffic": ("harness",),
    "transcript.encode_vector": ("aggregation", "verification"),
    "transcript.encode_matrix": ("aggregation", "verification"),
    "transcript.encode_quantized": ("aggregation", "verification"),
    "transcript.encode_reply_batch": ("aggregation",),
    "transcript.encode_id_set": ("aggregation",),
    "transcript.encode_accept": ("verification",),
    "audit.norm_verification_rate": ("audit",),
    "audit.conditioned_projection_privacy": ("audit",),
    "audit.two_sample_closeness": ("audit",),
    "audit.privacy_loss_mc": ("audit",),
    "cli.main": ("cli",),
}
# bytes a call computes, from its bound arguments and result, for the layers
# whose cost is one large array; recorded per span beside its times
WORK = {
    "core.sample_projection": lambda call, result: float(result.entries.nbytes),
    "audit.conditioned_projection_privacy":
        lambda call, result: 8.0 * call["samples"] * call["params"].k * call["params"].d,
}
# methods are wrapped on their class
METHOD_BINDINGS: dict[str, tuple[str, str]] = {
    "transcript.sha256": ("transcript", "Transcript"),
}


class Tracer:
    """Collects spans from wrapped privsum functions while installed."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._ids = array("q")
        self._name = array("i")
        self._parent = array("q")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._work = array("d")
        self._next = 0
        self._stack: list[int] = [-1]
        self._op_id = -1
        # (owner, attribute, original, wrapper) for every wrapped binding
        self._bindings: list[tuple[object, str, object, object]] = []
        for name, modules in BINDINGS.items():
            attr = name.split(".", 1)[1]
            for mod_name in modules:
                mod = importlib.import_module(f"privsum.{mod_name}")
                self._bind(mod, attr, getattr(mod, attr), name)
        for name, (mod_name, cls_name) in METHOD_BINDINGS.items():
            cls = getattr(importlib.import_module(f"privsum.{mod_name}"), cls_name)
            attr = name.split(".", 1)[1]
            self._bind(cls, attr, cls.__dict__[attr], name)

    def _bind(self, owner, attr: str, original, name: str) -> None:
        if name not in self.names:
            self.names.append(name)
        traced = self._wrap(self.names.index(name), original)
        self._bindings.append((owner, attr, original, traced))

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _leave(self, sid: int, parent: int, name_id: int, t0: float, t1: float,
               work: float = 0.0) -> None:
        self._stack.pop()
        self._ids.append(sid)
        self._name.append(name_id)
        self._parent.append(parent)
        self._op.append(self._op_id)
        self._start.append(t0)
        self._end.append(t1)
        self._work.append(work)

    def _wrap(self, name_id: int, fn):
        enter, leave = self._enter, self._leave
        work = WORK.get(self.names[name_id])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid, parent, name_id, t0, perf_counter())

        if work is None:
            return traced
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced_work(*args, **kwargs):
            sid, parent = enter()
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                done = 0.0 if result is None else work(
                    signature.bind(*args, **kwargs).arguments, result)
                leave(sid, parent, name_id, t0, t1, done)

        return traced_work

    @contextmanager
    def op(self, op_id: int):
        """Trace one benchmark op: install the wrappers and open its root span."""
        self._install()
        self._op_id = op_id
        sid, parent = self._enter()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._leave(sid, parent, 0, t0, perf_counter())
            self._uninstall()

    def _install(self) -> None:
        for owner, attr, _, traced in self._bindings:
            setattr(owner, attr, traced)

    def _uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays ordered by span id, with self time per span."""
        order = np.argsort(np.frombuffer(self._ids, dtype=np.int64), kind="stable")
        parent = np.frombuffer(self._parent, dtype=np.int64)[order]
        start = np.frombuffer(self._start, dtype=np.float64)[order]
        end = np.frombuffer(self._end, dtype=np.float64)[order]
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self._name, dtype=np.int32)[order],
            "parent": parent,
            "op": np.frombuffer(self._op, dtype=np.int32)[order],
            "start": start,
            "end": end,
            "self": dur - child,
            "work": np.frombuffer(self._work, dtype=np.float64)[order],
        }

    def per_op(self) -> dict[str, np.ndarray]:
        """Op ids, and per op and span name the calls, self seconds and work."""
        sp = self.spans()
        ops, row = np.unique(sp["op"], return_inverse=True)
        shape = (ops.size, len(self.names))
        out = {"ops": ops, "calls": np.zeros(shape, dtype=np.int64),
               "self": np.zeros(shape), "work": np.zeros(shape)}
        np.add.at(out["calls"], (row, sp["name"]), 1)
        np.add.at(out["self"], (row, sp["name"]), sp["self"])
        np.add.at(out["work"], (row, sp["name"]), sp["work"])
        return out

    def write(self, path) -> None:
        sp = self.spans()
        np.savez(path, names=np.array(self.names), **sp)
