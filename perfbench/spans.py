"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces the public functions in LAYERS with wrappers, in
every loaded `rml_lab` module that holds them (so `rml`'s own `_race_draw`
name is covered as well as `numerics._race_draw`).  Each wrapped call records
one span: name id, start, end, parent span and, for batch functions, the
number of input rows.  Spans stay in compact arrays while the run goes on and
are written out once, at the end.  `uninstall()` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer -> functions wrapped; the span and metric name is "<layer>.<function>"
# with leading underscores dropped.
LAYERS = {
    "trainer": ("train_ce", "train_rml", "train_rml_semi", "separate", "write_metrics_csv"),
    "model": ("forward", "loss_and_grad", "sgd_step", "ema_update", "accuracy",
              "save_checkpoint"),
    "rml": ("refresh_cache", "regroup_median", "batch_weights"),
    "numerics": ("_race_draw",),
    "verify": ("check_prop1", "check_prop2", "check_mom_robustness", "check_cor1",
               "mom_estimate"),
    "noise": ("inject_symmetric", "inject_pairflip", "inject_instance_dependent"),
    "data": ("make_blobs", "split", "standardize"),
}
# Functions whose second positional argument is a feature batch: its row
# count goes into the span.
ROW_COUNTED = ("model.forward", "model.loss_and_grad")
TRAIN_LOOPS = ("trainer.train_ce", "trainer.train_rml", "trainer.train_rml_semi")
OP = "bench.op"         # one benchmark operation, the root of its spans
CHECK = "bench.check"   # the benchmark's own checks, kept out of every layer


class Tracer:
    def __init__(self):
        self.names = [OP, CHECK]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.rows = array("q")
        self.stack = [-1]
        self.refreshes = []        # LossCache objects returned by refresh_cache
        self.read_caches = set()   # ids of caches some batch_weights call read
        self.on_refresh = None     # callback(args, result), run as a check span
        self._patched = []         # (module, attribute, original)

    # -- recording ---------------------------------------------------------------

    def open(self, name_id: int, rows: int = 0) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1])
        self.rows.append(rows)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (OP or CHECK)."""
        idx = self.open(self.names.index(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts_rows = name in ROW_COUNTED

        if name == "rml.refresh_cache":
            def wrapper(*args, **kwargs):
                idx = self.open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                self.refreshes.append(result)
                if self.on_refresh is not None:
                    with self.span(CHECK):
                        self.on_refresh(args, result)
                return result
        elif name == "rml.batch_weights":
            def wrapper(cache, *args, **kwargs):
                self.read_caches.add(id(cache))
                idx = self.open(name_id)
                try:
                    return fn(cache, *args, **kwargs)
                finally:
                    self.close(idx)
        else:
            def wrapper(*args, **kwargs):
                rows = len(args[1]) if counts_rows else 0
                idx = self.open(name_id, rows)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "rml_lab" or key.startswith("rml_lab.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"rml_lab.{layer}"]
            for attr in functions:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr.lstrip('_')}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- derived figures -----------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        rows = np.frombuffer(self.rows, dtype=np.int64)
        return names, parents, duration, rows

    def per_name(self) -> dict:
        """name -> (calls, rows, inclusive seconds, self seconds)."""
        names, parents, duration, rows = self.arrays()
        covered = np.zeros(duration.size)
        child = parents >= 0
        np.add.at(covered, parents[child], duration[child])
        own = duration - covered
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        row_sum = np.bincount(names, weights=rows, minlength=size)
        total = np.bincount(names, weights=duration, minlength=size)
        self_s = np.bincount(names, weights=own, minlength=size)
        return {name: (int(calls[i]), int(row_sum[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def refresh_read_ratio(self) -> float:
        """Share of refreshes whose cache a later batch_weights call read;
        0 when the run made no refresh."""
        if not self.refreshes:
            return 0.0
        read = sum(id(cache) in self.read_caches for cache in self.refreshes)
        return read / len(self.refreshes)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_ids=np.array(self.name_ids),
                 parents=np.array(self.parents), starts=np.array(self.starts),
                 ends=np.array(self.ends), rows=np.array(self.rows))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
    stats = tracer.per_name()
    out = {"trainer.self_s": (sum(stats[n][3] for n in TRAIN_LOOPS), "s")}

    def add(name: str, *fields: str):
        calls, rows, total, own = stats[name]
        values = {"calls": (calls, "count"), "rows": (rows, "count"),
                  "total_s": (total, "s"), "s": (own, "s")}
        for field in fields:
            out[f"{name}_{field}"] = values[field]

    add("trainer.separate", "calls", "s")
    add("trainer.write_metrics_csv", "s")
    add("model.forward", "calls", "rows", "s")
    add("model.loss_and_grad", "calls", "rows", "s")
    for name in ("sgd_step", "ema_update", "accuracy", "save_checkpoint"):
        add(f"model.{name}", "s")
    add("rml.refresh_cache", "calls", "total_s", "s")
    out["rml.refresh_read_ratio"] = (tracer.refresh_read_ratio(), "ratio")
    add("rml.regroup_median", "calls", "s")
    add("rml.batch_weights", "calls", "s")
    add("numerics.race_draw", "calls", "s")
    for name in ("check_prop1", "check_prop2", "check_mom_robustness", "check_cor1"):
        add(f"verify.{name}", "s")
    add("verify.mom_estimate", "calls", "s")
    for name in ("inject_symmetric", "inject_pairflip", "inject_instance_dependent"):
        add(f"noise.{name}", "s")
    for name in ("make_blobs", "split", "standardize"):
        add(f"data.{name}", "s")
    return out
