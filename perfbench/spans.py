"""Span tracer that times calls into ncu2's layers from outside the package.

Tracing wraps the public functions and methods listed in ``LAYERS`` for
the duration of a traced pass and restores them afterwards; nothing in
``src/ncu2`` changes.  Every wrapped call is a span with a name, start,
end, parent span and request id.  Self time is a span's duration minus
the time covered by its child spans, so the self times of all spans of
one request add up to the request's wall time.

Aggregates (calls and self seconds per layer) are exact for every call.
Span records are kept in memory up to ``MAX_SPANS`` and written out when
the run ends; a theta-mult request makes tens of thousands of Scalar
calls, so later spans are counted in the aggregates but not stored, and
the trace file says how many were dropped.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time

# (metric prefix, module, class or None, attribute names timed under the prefix)
LAYERS = (
    ("scalars.Scalar.mul", "ncu2.scalars", "Scalar", ("__mul__", "__rmul__")),
    ("scalars.Scalar.add", "ncu2.scalars", "Scalar", ("__add__", "__radd__")),
    ("scalars.Scalar.inv", "ncu2.scalars", "Scalar", ("inv",)),
    ("scalars.Scalar.shift_args", "ncu2.scalars", "Scalar", ("shift_args",)),
    ("u2.AElement.mul", "ncu2.u2", "AElement", ("__mul__",)),
    ("u2.AElement.add", "ncu2.u2", "AElement", ("__add__", "__radd__")),
    ("theta.theta", "ncu2.theta", None, ("theta",)),
    ("theta.ThetaMatrix.matmul", "ncu2.theta", "ThetaMatrix", ("__matmul__",)),
    ("theta.derive", "ncu2.theta", None, ("derive",)),
    ("shifts.FuncExpr.mul", "ncu2.shifts", "FuncExpr", ("__mul__", "__rmul__")),
    ("shifts.FuncExpr.shift_args", "ncu2.shifts", "FuncExpr", ("shift_args",)),
    ("parser.evaluate", "ncu2.parser", None, ("evaluate",)),
    ("cli.main", "ncu2.cli", None, ("main",)),
    ("glweyl.GlWeylElement.mul", "ncu2.glweyl", "GlWeylElement", ("__mul__",)),
    ("spinreps.radius_residual", "ncu2.spinreps", None, ("radius_residual",)),
    ("spinreps.ch_residual", "ncu2.spinreps", None, ("ch_residual",)),
    ("hedgehog.hedgehog_reduce", "ncu2.hedgehog", None, ("hedgehog_reduce",)),
    ("hedgehog.march", "ncu2.hedgehog", None, ("march",)),
    ("identities.inputs", "ncu2.identities", None, ("random_central", "random_monomial_element")),
)

# spans the benchmark itself opens: the request root and the CLI child's
# import of the package
REQUEST = "request"
CLI_IMPORT = "cli.import"
MARCH_NODES = "hedgehog.march.nodes"
# span records kept in memory; a theta-mult pass makes hundreds of thousands
MAX_SPANS = 300_000

# where a SingularStepError message says the march stopped
NODE_RE = re.compile(r"at node (\d+)")


def _march_nodes(result, exc):
    """Lattice nodes a march call computed, from its result or its error."""
    if result is not None:
        return len(result.r)
    m = NODE_RE.search(str(exc)) if exc is not None else None
    return int(m.group(1)) + 1 if m else 0


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [span id, name, start, child seconds]
        self.spans = []  # (id, name, start, end, parent id, request id)
        self.dropped = 0
        self.agg = {}  # name -> [calls, self seconds]
        self.counts = {}  # name -> integer count
        self.request_id = None
        self._next_id = 0
        self._saved = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        sid, name, start, child = frame
        dur = end - start
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        else:
            parent = None
        rec = self.agg.get(name)
        if rec is None:
            rec = self.agg[name] = [0, 0.0]
        rec[0] += 1
        rec[1] += dur - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent, self.request_id))
        else:
            self.dropped += 1
        return dur

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installing wrappers -------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        on_return = _march_nodes if name == "hedgehog.march" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._exit(frame)
                if on_return is not None:
                    tracer.count(MARCH_NODES, on_return(result, exc))

        return traced

    def install(self):
        """Wrap every layer in LAYERS, including names other modules imported."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, modname, clsname, attrs in LAYERS:
            mod = importlib.import_module(modname)
            owner = getattr(mod, clsname) if clsname else mod
            wrappers = {}  # aliases such as __radd__ = __add__ share a wrapper
            for attr in attrs:
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
                if clsname is None:
                    self._patch_imports(mod, original, wrappers[id(original)])

    def _patch_imports(self, mod, original, wrapped):
        """Rebind names other ncu2 modules imported with ``from ... import``."""
        for other in list(sys.modules.values()):
            if other is mod or not getattr(other, "__name__", "").startswith("ncu2"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._saved.append((other, attr, original))
                    setattr(other, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results -------------------------------------------------------

    def merge(self, data: dict):
        """Add a CLI child's dump under the span that is open here.

        perf_counter reads CLOCK_MONOTONIC, which all processes share, so
        the child's start and end times sit on this process's time line.
        """
        for name, (calls, self_s) in data["agg"].items():
            rec = self.agg.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        for name, n in data["counts"].items():
            self.count(name, n)
        self.dropped += data["dropped"]
        offset = self._next_id
        parent = self.stack[-1][0] if self.stack else None
        for sid, name, start, end, sparent, _ in data["spans"]:
            self._next_id = max(self._next_id, offset + sid + 1)
            rec = (offset + sid, name, start, end, parent if sparent is None else offset + sparent, self.request_id)
            if len(self.spans) < MAX_SPANS:
                self.spans.append(rec)
            else:
                self.dropped += 1

    def dump(self) -> dict:
        return {
            "agg": self.agg,
            "counts": self.counts,
            "dropped": self.dropped,
            "spans": self.spans,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


class _Span:
    __slots__ = ("tracer", "name", "frame", "seconds")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.seconds = self.tracer._exit(self.frame)
        return False


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, _, _, _ in LAYERS:
        if name == "identities.inputs":
            # input generation belongs to set-up, not to a request
            out.append((f"{name}.calls", "count"))
            out.append((f"{name}.self_s", "s"))
        else:
            out.append((f"{name}.calls", "count/req"))
            out.append((f"{name}.self_s", "s/req"))
    out += [
        ("cli.import_s", "s/req"),
        (MARCH_NODES, "count/req"),
        ("hedgehog.march.us_per_node", "us"),
        ("trace.overhead_frac", "frac"),
    ]
    return out
