"""Spans around the public functions of every abelharm layer, from outside.

The modules bind each other's public functions by import (``cli`` imports
almost all of them, ``halfplane`` imports ``phase_sum``, ``summability``
imports ``radial_integrate``), so a wrapper placed only in the defining
module would miss most calls.  :meth:`Tracer.install` therefore rebinds
the same function object in every ``abelharm.*`` namespace that holds it,
and :meth:`Tracer.uninstall` puts the originals back.

Each span records its calls, inclusive time and self time (inclusive time
minus the inclusive time of traced calls made inside it), plus a size
count taken from the arguments where the layer has one.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _points(arr) -> int:
    return int(np.size(arr))


def _interval_terms(F, z) -> int:
    return _points(z) * int(np.count_nonzero(F.support.contains(F.grid.axis())))


# size counts per span, computed from the call's arguments:
# terms = evaluation points x lattice points, points = transform length,
# padded_points = zero-padded convolution length, addends = values summed
SIZES = {
    "spectral.phase_sum": ("terms", lambda xi, weights, z, scale: _points(z) * _points(xi)),
    "halfplane.cauchy_represent": ("terms", lambda f, side, t, x: _points(x) * f.grid.points),
    "spectral.forward_ft": ("points", lambda f: f.grid.points),
    "spectral.inverse_ft": ("points", lambda F: F.grid.points),
    "sampled.convolve": ("padded_points", lambda f, g: (2 * f.grid.points) ** f.grid.n),
    "sampled.integrate": ("addends", lambda f: f.grid.size),
    "summability.abel_mean": ("addends", lambda h, t: h.grid.size),
    "summability.gauss_mean": ("addends", lambda h, s: h.grid.size),
    "growth.evaluate_entire": ("terms", _interval_terms),
}


class SpanStats:
    __slots__ = ("calls", "incl_s", "self_s", "size")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.size = 0


class Tracer:
    """Collects span statistics while installed; one instance per traced pass."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        # (parent span, child span) -> calls, for ratios such as retries
        self.child_calls: dict[tuple, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, child inclusive time]
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        clock, stack, stats, child_calls = time.perf_counter, self._stack, self.stats, self.child_calls
        sizer = SIZES[name][1] if name in SIZES else None
        signature = inspect.signature(fn) if sizer else None

        def traced(*args, **kwargs):
            if stack:
                child_calls[(stack[-1][0], name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st = stats[name]
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - frame[1]
                if sizer:
                    bound = signature.bind(*args, **kwargs)
                    st.size += sizer(*bound.args)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public function of every ``abelharm.*`` module."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "abelharm" or name.startswith("abelharm.")}
        wrappers = {}
        for modname, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrappers[id(fn)] = self.wrap(f"{modname.split('.')[-1]}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        # the suite table is read at call time, so its entries become
        # spans of their own and cli.run's self time is assembly only
        cli = modules.get("abelharm.cli")
        if cli is not None:
            table = cli._SUITE_FN
            for suite, fn in list(table.items()):
                self._undo.append((table, suite, fn))
                table[suite] = self.wrap(f"cli.suite.{suite}", fn)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
