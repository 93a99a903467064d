"""Spans and counts at the package's layer boundaries, recorded from outside.

`Tracer.install` replaces module-level functions that callers look up at
call time with wrappers; `Tracer.remove` puts the originals back.  Each
wrapper records a span (layer name, start, end, parent span) in flat
arrays that stay in memory until `Tracer.save` writes them out.  A
layer's self time is the duration of its spans minus the part covered by
their child spans.  A hook whose function no longer exists is reported as
absent and its layer reads zero.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

# Layers whose self time and call count are reported.
LAYERS = (
    "optics.coefficients",
    "scattering.delta_total",
    "scattering.delta_polynomial",
    "energy.roots",
    "special.li4",
    "special.integrate",
    "energy.node",
    "energy.integrand",
    "energy.route",
    "cli",
)

# |z| from which li4 takes its long unit-circle series.
LI4_UNIT_CIRCLE = 0.999


class Tracer:
    def __init__(self):
        self.span_name = array("b")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.depth = 0
        self.panels = [0, 0, 0]  # by depth: unused, outer, inner
        self.evals = [0, 0, 0]
        self.li4_unit_circle = 0
        self.route_frames = []
        self.polylog_attempts = 0
        self.polylog_kept = 0
        self.fallbacks = 0
        self.wasted_ns = 0
        self.patches = []
        self.absent = []

    # -- span recording ------------------------------------------------------

    def _spanned(self, layer, fn):
        nid = LAYERS.index(layer)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def _li4(self, fn):
        spanned = self._spanned("special.li4", fn)

        @functools.wraps(fn)
        def wrapper(z):
            if abs(z) >= LI4_UNIT_CIRCLE:
                self.li4_unit_circle += 1
            return spanned(z)

        return wrapper

    def _integrate(self, fn, integrand_layer):
        """Adaptive integrator: a span per call, a span and a count per integrand call."""
        spanned = self._spanned("special.integrate", fn)
        evals = self.evals

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            self.depth += 1
            level = min(self.depth, 2)
            g_spanned = self._spanned(integrand_layer, g)

            def counted(x):
                evals[level] += 1
                return g_spanned(x)

            try:
                return spanned(counted, *args, **kwargs)
            finally:
                self.depth -= 1

        return wrapper

    def _panel(self, fn):
        panels = self.panels

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            panels[min(self.depth, 2)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _route(self, fn, route):
        """One evaluation route; its time is charged to the enclosing auto call."""
        spanned = self._spanned("energy.route", fn)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.route_frames[-1] if self.route_frames else None
            if frame is not None:
                if route == "polylog":
                    self.polylog_attempts += 1
                elif any(r == "polylog" for r, _ in frame):
                    self.fallbacks += 1
            start = clock()
            try:
                return spanned(*args, **kwargs)
            finally:
                if frame is not None:
                    frame.append((route, clock() - start))

        return wrapper

    def _energy_ratio(self, fn):
        """The public entry point: decides which route results were thrown away."""
        spanned = self._spanned("energy.route", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = []
            self.route_frames.append(frame)
            kept = None
            try:
                result = spanned(*args, **kwargs)
                kept = result.method
                return result
            finally:
                self.route_frames.pop()
                for route, ns in frame:
                    if route != kept:
                        self.wasted_ns += ns
                if kept == "polylog" and any(r == "polylog" for r, _ in frame):
                    self.polylog_kept += 1

        return wrapper

    # -- installing hooks ----------------------------------------------------

    def _patch(self, module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            if module is not None:
                self.absent.append(f"{module.__name__}.{attr}")
            return None
        wrapper = make(original)
        setattr(module, attr, wrapper)
        self.patches.append((module, attr, original))
        return wrapper

    def install(self, package):
        """Wrap the layer boundaries of an imported ``casimir_plates``."""
        import importlib

        modules = {}
        for name in ("energy", "special", "cli"):
            try:
                modules[name] = importlib.import_module(f"{package.__name__}.{name}")
            except ImportError:
                self.absent.append(f"{package.__name__}.{name}")
        energy = modules.get("energy")
        special = modules.get("special")
        cli = modules.get("cli")
        for attr, layer in (
            ("coefficients", "optics.coefficients"),
            ("delta_total", "scattering.delta_total"),
            ("delta_polynomial", "scattering.delta_polynomial"),
            ("_inverse_roots", "energy.roots"),
        ):
            self._patch(energy, attr, functools.partial(self._spanned, layer))
        self._patch(energy, "li4", self._li4)
        self._patch(energy, "_integrate_floor", lambda f: self._integrate(f, "energy.node"))
        self._patch(special, "_integrate_floor", lambda f: self._integrate(f, "energy.integrand"))
        self._patch(special, "_panel", self._panel)
        self._patch(energy, "energy_ratio_polylog", lambda f: self._route(f, "polylog"))
        self._patch(energy, "energy_ratio_quadrature", lambda f: self._route(f, "quadrature"))
        entry = self._patch(energy, "energy_ratio", self._energy_ratio)
        if entry is not None and hasattr(package, "energy_ratio"):
            self.patches.append((package, "energy_ratio", package.energy_ratio))
            package.energy_ratio = entry
        self._patch(cli, "main", functools.partial(self._spanned, "cli"))

    def remove(self):
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int8)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        starts = np.frombuffer(self.span_start, dtype=np.int64)
        ends = np.frombuffer(self.span_end, dtype=np.int64)
        return names, parents, starts, ends

    def metrics(self, wall_s):
        """Per-layer metrics of everything recorded since construction."""
        names, parents, starts, ends = self._arrays()
        dur = (ends - starts) * 1e-9
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = np.bincount(names, weights=dur - covered, minlength=len(LAYERS))
        calls = np.bincount(names, minlength=len(LAYERS))
        layer = {n: (int(calls[i]), float(self_time[i])) for i, n in enumerate(LAYERS)}
        out = {}
        for n in ("optics.coefficients", "scattering.delta_total",
                  "scattering.delta_polynomial", "energy.roots", "special.li4"):
            out[f"{n}.calls"] = layer[n][0]
            out[f"{n}.self_s"] = layer[n][1]
        out["special.li4.unit_circle_calls"] = self.li4_unit_circle
        out["special.integrate.outer_panels"] = self.panels[1]
        out["special.integrate.inner_panels"] = self.panels[2]
        out["special.integrate.outer_evals"] = self.evals[1]
        out["special.integrate.inner_evals"] = self.evals[2]
        for n in ("special.integrate", "energy.node", "energy.integrand", "energy.route", "cli"):
            out[f"{n}.self_s"] = layer[n][1]
        out["energy.route.polylog_attempts"] = self.polylog_attempts
        out["energy.route.fallbacks"] = self.fallbacks
        out["energy.route.polylog_kept_ratio"] = (
            self.polylog_kept / self.polylog_attempts if self.polylog_attempts else 1.0
        )
        out["energy.route.wasted_s"] = self.wasted_ns * 1e-9
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - float(self_time.sum())
        return out

    def save(self, path):
        """Write every span to ``path`` (numpy .npz) and return the path."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names, parents, starts, ends = self._arrays()
        np.savez(
            path,
            layer_names=np.array(LAYERS),
            name=names,
            parent=parents,
            start_ns=starts,
            end_ns=ends,
            absent=np.array(self.absent, dtype=str),
        )
        return path
