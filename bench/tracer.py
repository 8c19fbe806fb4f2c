"""Call-site tracing for the benchmark's traced run.

The tracer wraps public functions of the ssgamma layers from outside the
package.  A function is replaced at every name the package resolves it
by: each module attribute (or class attribute, for methods) that is the
same object as the original.  So `coset_decompose` is wrapped both in
`ssgamma.matrices` and where `ssgamma.integrals` imported it, and
`ExactScalar.__mul__` also under its alias `__rmul__`.  A target that no
longer exists is recorded as absent instead of failing the run.

Two kinds of wrapper:
  * "span": records (name, start, end, parent, operation, found) per
    call.  Used for functions called at most tens of thousands of times
    per run, so the spans fit in memory.
  * "count": only counts calls.  Used for the hot arithmetic and
    character functions, called up to a million times per run.

Calls made while the tracer is paused (the benchmark's own result
checks) are neither counted nor timed.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

SPAN = "span"
COUNT = "count"

#: (metric prefix, module, attribute, kind)
TARGETS = (
    ("integrals.phi_eval", "ssgamma.integrals", "phi_eval", SPAN),
    ("integrals.phi_star_eval", "ssgamma.integrals", "phi_star_eval", SPAN),
    ("integrals.gamma_so", "ssgamma.integrals", "gamma_so", SPAN),
    ("integrals.scan_support", "ssgamma.integrals", "scan_support", SPAN),
    ("integrals.jpss_gl_gamma", "ssgamma.integrals", "jpss_gl_gamma", SPAN),
    ("matrices.coset_decompose", "ssgamma.matrices", "coset_decompose", SPAN),
    ("matrices.coset_decompose_gl", "ssgamma.matrices", "coset_decompose_gl", SPAN),
    ("matrices.mat_inv", "ssgamma.matrices", "mat_inv", SPAN),
    ("characters.psi_eval", "ssgamma.characters", "psi_eval", COUNT),
    ("characters.tame_eval", "ssgamma.characters", "tame_eval", COUNT),
    ("scalars.ExactScalar.mul", "ssgamma.scalars", "ExactScalar.__mul__", COUNT),
    ("scalars.ExactScalar.add", "ssgamma.scalars", "ExactScalar.__add__", COUNT),
    ("cyclotomic.CyclotomicNumber.mul", "ssgamma.cyclotomic", "CyclotomicNumber.__mul__", COUNT),
    ("cyclotomic.CyclotomicNumber.reduced", "ssgamma.cyclotomic", "CyclotomicNumber.reduced", COUNT),
    ("padic.rational_valuation", "ssgamma.padic", "rational_valuation", COUNT),
)

#: spans that carry a found ratio (result is not None)
FOUND = ("matrices.coset_decompose", "matrices.coset_decompose_gl")


def _lookup(module_name: str, attr: str):
    """(owner, original) for a module function or a class method; None if gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    if "." in attr:
        cls_name, member = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        fn = vars(cls).get(member) if isinstance(cls, type) else None
        return (cls, fn) if callable(fn) else None
    fn = getattr(module, attr, None)
    return (None, fn) if callable(fn) else None


class Tracer:
    """Spans and counters in memory; inactive until `active` is set."""

    def __init__(self):
        self.active = False
        self.counts = Counter()
        self.spans = []  # [name, start, end, parent index, operation id, found]
        self.absent = []
        self._stack = []
        self._op = None

    # -- installation ---------------------------------------------------

    def install(self):
        package = [m for n, m in list(sys.modules.items()) if n == "ssgamma" or n.startswith("ssgamma.")]
        for name, module_name, attr, kind in TARGETS:
            found = _lookup(module_name, attr)
            if found is None:
                self.absent.append(name)
                continue
            owner, orig = found
            wrapper = self._spanned(orig, name) if kind == SPAN else self._counted(orig, name)
            holders = [owner] if owner is not None else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                out = fn(*args, **kwargs)
                span[5] = out is not None
                return out

        return wrapper

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A span around the enclosed block (a no-op while inactive)."""
        if not self.active:
            yield [None] * 6
            return
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self._op, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id, kind):
        """The root span of one benchmark operation."""
        self._op = op_id
        try:
            with self.span("op." + kind):
                yield
        finally:
            self._op = None

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, points) -> dict:
        """Per-layer counts, times and ratios from the spans and counters.

        points: the SO domain points the run enumerated, computed from its
        configs.  Every cell is warm, so the integrals-layer self time of
        the gamma_so calls made directly by cell operations is assembly."""
        calls, secs, found = Counter(), Counter(), Counter()
        children = {}
        for idx, (name, start, end, parent, _, hit) in enumerate(self.spans):
            calls[name] += 1
            secs[name] += end - start
            found[name] += hit
            children.setdefault(parent, []).append(idx)

        def duration(idx):
            return self.spans[idx][2] - self.spans[idx][1]

        def layer_self(idx):
            """Span duration minus the time of its maximal descendants in
            other layers (the layer is the first dotted part of the name)."""
            layer = self.spans[idx][0].split(".")[0]
            total = duration(idx)
            for c in children.get(idx, ()):
                total -= duration(c)
                if self.spans[c][0].split(".")[0] == layer:
                    total += layer_self(c)
            return total

        def is_cell_call(span):
            return span[0] == "integrals.gamma_so" and span[3] is not None and self.spans[span[3]][0] == "op.cell"

        def present(name):
            return name not in self.absent

        out = {"integrals.points": points, "cli.render_s": secs["cli.render"]}
        if present("integrals.gamma_so"):
            out["integrals.assemble_s"] = sum(layer_self(i) for i, s in enumerate(self.spans) if is_cell_call(s))
        for name in ("integrals.scan_support", "integrals.jpss_gl_gamma"):
            if present(name):
                out[name + "_s"] = secs[name]
        if present("matrices.coset_decompose"):
            out["integrals.box_hit_ratio"] = (points - calls["matrices.coset_decompose"]) / points
        for name in ("matrices.coset_decompose", "matrices.coset_decompose_gl", "matrices.mat_inv"):
            if present(name):
                out[name + ".calls"] = calls[name]
                out[name + ".s"] = secs[name]
                if name in FOUND:
                    out[name + ".found_ratio"] = found[name] / calls[name] if calls[name] else 0.0
        for name, _, _, kind in TARGETS:
            if kind == COUNT and present(name):
                out[name + ".calls"] = self.counts[name]
        return out

    def counts_snapshot(self) -> dict:
        """Every deterministic count, for the two-run self-check."""
        snap = dict(self.counts)
        for name, *_ in self.spans:
            snap[name] = snap.get(name, 0) + 1
        snap["found"] = sum(1 for s in self.spans if s[5] and s[0] in FOUND)
        return dict(sorted(snap.items()))

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op, hit in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, op, hit]) + "\n")
