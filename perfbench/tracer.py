"""Spans and counters around rcm-lab's public functions, from outside.

The tracer replaces module attributes (every ``rcm_lab.*`` module that holds
a traced function, including by-name imports such as
``rcm_lab.experiments.census``) with thin wrappers.  Nothing under ``src/``
is edited, and every wrapper returns the wrapped function's result unchanged.
Spans stay in memory until the run ends.
"""

import collections
import json
import sys
import time

import numpy as np

# (span name, module that defines the function, attribute name, how the
# wrapper counts work).  Span names use the module's public name; the
# leading underscore of ``_quadcore`` is dropped so every metric name starts
# with a letter.
TARGETS = (
    ("experiments.run_sweep", "rcm_lab.experiments", "run_sweep", None),
    ("experiments.run_trial", "rcm_lab.experiments", "run_trial", None),
    ("models.realize", "rcm_lab.models", "realize", None),
    ("simulate.sample_poisson", "rcm_lab.simulate", "sample_poisson", None),
    ("simulate.build_graph", "rcm_lab.simulate", "build_graph", "graph"),
    ("simulate.census", "rcm_lab.simulate", "census", None),
    ("simulate.boundary_coupling", "rcm_lab.simulate", "boundary_coupling",
     None),
    ("pairrng.pair_uniform", "rcm_lab.pairrng", "pair_uniform", "draws"),
    ("connfn.integral_constant", "rcm_lab.connfn", "integral_constant", None),
    ("connfn.effective_cutoff", "rcm_lab.connfn", "effective_cutoff", None),
    ("quadrature.expected_isolated_square", "rcm_lab.quadrature",
     "expected_isolated_square", None),
    ("quadrature.expected_isolated_torus", "rcm_lab.quadrature",
     "expected_isolated_torus", None),
    ("quadrature.expected_components_order2", "rcm_lab.quadrature",
     "expected_components_order2", None),
    ("quadcore.batched_quad", "rcm_lab._quadcore", "batched_quad",
     "integrand"),
    ("quadcore.adaptive_quad", "rcm_lab._quadcore", "adaptive_quad",
     "integrand"),
    ("quadcore.fixed_tensor_quad", "rcm_lab._quadcore", "fixed_tensor_quad",
     "integrand"),
)


class Tracer:
    """Records (name, start, end, parent) spans and named counters."""

    def __init__(self):
        self.names = []
        self.spans = []          # [name index, start, end, parent span index]
        self.counts = collections.Counter()
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, idx, name, fn, how):
        tracer = self

        def counted(f):
            def integrand(*args):
                tracer.counts[name + ".points"] += np.broadcast(*args).size
                return f(*args)
            return integrand

        def wrapper(*args, **kwargs):
            if how == "integrand":
                args = (counted(args[0]),) + args[1:]
            elif how == "draws":
                stream = kwargs.get("stream", args[3] if len(args) > 3 else None)
                if stream is None or stream == tracer.edge_stream:
                    tracer.counts[name + ".draws"] += np.broadcast(
                        args[1], args[2]).size
            span = tracer._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if how == "graph":
                tracer.counts["simulate.nodes"] += int(out.points.n)
                tracer.counts["simulate.edges"] += int(out.edges.shape[0])
            return out

        return wrapper

    def install(self):
        """Swap every traced function for its wrapper in all rcm_lab modules."""
        from rcm_lab.pairrng import STREAM_EDGE
        self.edge_stream = STREAM_EDGE
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "rcm_lab"
                                         or k.startswith("rcm_lab."))]
        for name, home, attr, how in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapped = self._wrapper(len(self.names), name, original, how)
            self.names.append(name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def remove(self):
        """Put every original function back."""
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def totals(self, first=0):
        """Per span name: (calls, total seconds, self seconds), over the
        spans from index ``first`` on."""
        child = collections.defaultdict(float)
        for name, t0, t1, parent in self.spans[first:]:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = collections.Counter()
        total = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for idx, (name, t0, t1, _) in enumerate(self.spans[first:], first):
            label = self.names[name]
            calls[label] += 1
            total[label] += t1 - t0
            own[label] += (t1 - t0) - child[idx]
        return calls, total, own

    def dump(self, path):
        """Write every span as JSON (name, start, end, parent index)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
