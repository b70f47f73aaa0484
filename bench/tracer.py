"""Span tracing of parhox's layers from outside the package.

`Tracer.install()` wraps the public module-level functions of each parhox
layer (plus `Instance.__init__`) and rebinds every `parhox.*` module
attribute that refers to a wrapped function, so a call made through a
`from .homology import free_resolution` binding is traced too.  Hot
per-element helpers stay unwrapped; their time lands in their caller's self
time.

A span is (name, start, end, parent span id).  Spans stay in memory; `dump`
writes them when the run ends.  A span's self time is its duration minus
the durations of its child spans and minus the time the tracer spent
counting sizes for those children.
"""

import collections
import functools
import inspect
import json
import sys
import time

LAYERS = ["groups", "fields", "factor_sets", "algebras", "linalg",
          "partial_actions", "partial_algebras", "instance", "problems",
          "homology", "spectral"]

# called per element or per row, far too often to wrap
HOT = {"linalg.matvec", "linalg.zeros", "linalg.identity", "linalg.transpose",
       "linalg.mat_add", "linalg.mat_scale", "linalg.mat_eq",
       "linalg.is_zero_matrix", "fields.ensure_same_field"}

ROOT = "other"          # the benchmark's own item span; its self time is
                        # whatever no wrapped function claims


# -- size counters: (counts, args, result) -> None ------------------------

def _count_rank(counts, args, out):
    M = args[1]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    counts["linalg.rank.cells"] += rows * cols
    counts["linalg.rank.nnz"] += sum(1 for row in M for a in row if a)


def _count_bar(counts, args, out):
    dims = out[0].dims
    counts["homology.bar_complex.cells"] += sum(
        dims[q - 1] * dims[q] for q in range(1, len(dims)))


def _count_resolution(counts, args, out):
    counts["homology.free_resolution.rank_sum"] += sum(out.ranks)


def _count_kpar(counts, args, out):
    counts["partial_algebras.kpar_dim"] += out.dim
    counts["partial_algebras.completion_rounds"] += sum(
        1 for entry in out.completion_log if entry[0] == "completion-round")


def _count_exel(counts, args, out):
    counts["groups.exel_size"] += out.size


COUNTERS = {"linalg.rank": _count_rank,
            "homology.bar_complex": _count_bar,
            "homology.free_resolution": _count_resolution,
            "partial_algebras.build_kpar_sigma": _count_kpar,
            "groups.enumerate_exel": _count_exel}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, excluded]
        self.counts = collections.defaultdict(int)
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def root(self, fn):
        """Run fn() under the benchmark's own root span."""
        return self._wrap(ROOT, fn)()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                t0 = time.perf_counter()
                counter(self.counts, args, out)
                parent = self.spans[sid][3]
                if parent >= 0:
                    self.spans[parent][4] += time.perf_counter() - t0
            return out
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer function and rebind all parhox references."""
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"parhox.{layer}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in HOT:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[obj] = self._wrap(name, obj)
        instance_cls = sys.modules["parhox.instance"].Instance
        init = instance_cls.__init__
        instance_cls.__init__ = self._wrap("instance.Instance", init)
        self._undo.append((instance_cls, "__init__", init))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("parhox"):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    # -- results ----------------------------------------------------------

    def self_times(self, first=0):
        """{name: [self seconds, calls]} over spans[first:]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans[first:]:
            if s[3] >= first:
                child[s[3]] += s[2] - s[1]
        out = {}
        for i in range(first, len(spans)):
            name, t0, t1, _, excluded = spans[i]
            rec = out.setdefault(name, [0.0, 0])
            rec[0] += (t1 - t0) - child[i] - excluded
            rec[1] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)
            fh.write("\n")
