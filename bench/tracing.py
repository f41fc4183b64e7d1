"""Spans and counters recorded around calls into the nilzeta layers.

A probe replaces one module attribute with a wrapper.  Each probe patches
the name its caller looks up: ``zeta`` calls ``rf_sum_common`` through its
own import, so the probe patches ``nilzeta.zeta.rf_sum_common``, not
``nilzeta.arith.rf_sum_common``.  Nothing inside ``src/`` is edited.

A span is ``[name, start, end, parent, request]``; ``parent`` is the index
of the enclosing span or -1, and ``request`` identifies the operation (one
d=4 call or one CLI request) that caused it.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its spans' duration
minus the part covered by child spans.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import weakref
from collections import Counter

# (patched attribute, span name or None for a plain call counter, count
# hook).  Span names carry the layer that does the work, which is not
# always the module that was patched.
PROBES = (
    # zeta: the assembly and its checks
    ("nilzeta.zeta.zeta_padic", "zeta.zeta_padic", None),
    ("nilzeta.zeta.enumerate_Wd", "zeta.enumerate_Wd", None),
    ("nilzeta.zeta.SigmaContext", None, "zeta.sigma_contexts"),
    ("nilzeta.zeta.region_of_wpair", None, "zeta.pairs"),
    ("nilzeta.zeta.check_functional_equation",
     "zeta.check_functional_equation", None),
    ("nilzeta.zeta.pole_report", "zeta.pole_report", None),
    # arith, as zeta, cli and arith itself look it up
    ("nilzeta.zeta.rf_sum_common", "arith.rf_sum_common", None),
    ("nilzeta.zeta.rf_normalize", "arith.rf_normalize", "assembly"),
    ("nilzeta.arith.rf_normalize", "arith.rf_normalize", None),
    ("nilzeta.arith.poly_exact_div", None, "arith.poly_exact_div_calls"),
    ("nilzeta.arith.rf_series_coeffs", "arith.rf_series_coeffs", None),
    ("nilzeta.zeta.rf_equal", "arith.rf_equal", None),
    ("nilzeta.cli.rf_equal", "arith.rf_equal", None),
    # cones, as zeta and the monoid look it up
    ("nilzeta.zeta.decompose_region_by_face", "cones.decompose",
     "cones.pieces"),
    ("nilzeta.cones.extreme_rays", "cones.extreme_rays", "cones.rays"),
    ("nilzeta.cones.DiophantineMonoid.face_lattice", "cones.face_lattice",
     "cones.faces"),
    ("nilzeta.cones.box_points", "cones.box_points", "cones.box_points"),
    # combinat, as zeta and the pair sampler look it up
    ("nilzeta.zeta.gaussian_multinomial", "combinat.gaussian", None),
    ("nilzeta.zeta.gaussian_binomial", "combinat.gaussian", None),
    ("nilzeta.combinat.omega_of_pair", None, "combinat.omega_calls"),
    # oracle, as cli and oracle itself look it up
    ("nilzeta.cli.count_subalgebras", "oracle.count_subalgebras",
     "oracle.hnf_lattices"),
    ("nilzeta.oracle.count_subalgebras", "oracle.count_subalgebras",
     "oracle.hnf_lattices"),
    ("nilzeta.oracle.gss_partial", "oracle.gss_partial", None),
    # the CLI's result cache, looked up as zmod.load_result
    ("nilzeta.zeta.load_result", "cli.load_result", None),
    ("nilzeta.zeta.store_result", "cli.store_result", "cli.cache_bytes"),
)


class Tracer:
    """Owns the spans, counts and installed probes of one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._patched = []
        self._faces_seen = weakref.WeakSet()

    def install(self):
        """Patch every probe into the nilzeta modules."""
        for path, name, count in PROBES:
            owner_path, attr = path.rsplit(".", 1)
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            hook = self._hook(count) if count else None
            if name is None:
                wrapper = self._counter(original, count)
            else:
                wrapper = self._span(name, original, hook)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       **extra}, fh)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts
        # a division that raises NotDivisible is wasted work
        wasted = (importlib.import_module("nilzeta.arith").NotDivisible
                  if key == "arith.poly_exact_div_calls" else ())

        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except wasted:
                counts["arith.not_divisible"] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, key):
        """The count hook of one probe: (result, call args) -> None."""
        c = self.counts
        if key == "assembly":
            spans, stack = self.spans, self._stack

            def hook(_result, args):
                # zeta also normalizes elsewhere (reduced sums, pole checks);
                # only the call made directly by zeta_padic normalizes its
                # cross-pair sum
                if stack and spans[stack[-1]][0] == "zeta.zeta_padic":
                    c["arith.assembly_den_factors"] += sum(
                        args[0].den.values())
                    c["arith.assembly_num_terms"] += len(args[0].num.terms)
        elif key == "cones.pieces":
            def hook(result, _args):
                c[key] += sum(len(cells) for _, cells in result)
        elif key == "cones.faces":
            seen = self._faces_seen

            def hook(result, args):
                # face_lattice is memoized per monoid; count each once
                if args[0] not in seen:
                    seen.add(args[0])
                    c[key] += len(result)
        elif key == "oracle.hnf_lattices":
            hnf_count = importlib.import_module("nilzeta.oracle").hnf_count

            def hook(result, args):
                d, p, n = args[:3]
                c[key] += hnf_count(d + d * (d - 1) // 2, n, p)
                c["oracle.subalgebras"] += result
        elif key == "cli.cache_bytes":
            cache_path = importlib.import_module("nilzeta.zeta").cache_path

            def hook(_result, args):
                cache_dir, res = args[:2]
                c["cli.stores"] += 1
                c[key] += os.path.getsize(
                    cache_path(cache_dir, res.d, res.kind))
        else:
            def hook(result, _args):
                c[key] += len(result)
        return hook


def _resolve(path):
    """The module, or class inside a module, named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


def self_times(spans):
    """Per span name: (self seconds, span count).

    Self time is a span's duration minus its direct children's durations;
    spans are properly nested because each process is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _req in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _parent, _req), inner in zip(spans, child):
        s, n = out.get(name, (0.0, 0))
        out[name] = (s + (end - start) - inner, n + 1)
    return out

