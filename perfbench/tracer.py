"""In-process call tracer for the ``corridorcov`` package.

``install()`` wraps every public function and every public method of every
public class defined in the package's modules, then rebinds each alias to
the wrapper in every loaded ``corridorcov`` module, because functions such
as ``evaluate_sinr`` are imported by name into ``monte_carlo``, ``heatmap``,
``sweep`` and ``cli``. Each wrapper counts its calls and points and adds up
its total time and its self time (total minus the time spent in wrapped
children). Parent-to-child call counts are kept too, so a layer's work can
be attributed to its caller.

Stats are keyed ``<module>.<qualname>``, e.g. ``oracle.evaluate_sinr`` or
``propagation.CosineBeam.gain``. Recursion into the same wrapper would be
counted twice in its total; the package has none.
"""

from __future__ import annotations

import enum
import functools
import inspect
import os
import sys
import time

import numpy as np

PACKAGE = "corridorcov"
MODULES = ("geometry", "propagation", "closed_form", "oracle", "monte_carlo",
           "sweep", "heatmap", "cli")


# Work counted as "points" where it is not the size of the first array
# argument: grid cells for the row-block loops, samples for Monte Carlo and
# cells written for the artifact writers. Each takes the bound arguments.
_POINTS = {
    "oracle.coverage_by_quadrature": lambda a: a["n_x"] * a["n_z"],
    "heatmap.sinr_field": lambda a: a["nx"] * a["nz"],
    "monte_carlo.estimate_outage": lambda a: a["m"].n_samples,
    "heatmap.write_csv": lambda a: a["field"].nx * a["field"].nz,
    "heatmap.write_ppm": lambda a: a["field"].nx * a["field"].nz,
}

# Functions with an output `path` argument; the file's size is recorded.
_WRITERS = ("heatmap.write_csv", "heatmap.write_ppm")


def _array_points(args) -> int:
    for arg in args:
        if isinstance(arg, np.ndarray):
            return int(arg.size)
    return 0


class Tracer:
    """Per-wrapper counters: calls, points, bytes written, total and self
    time in nanoseconds, plus parent-to-child call counts."""

    def __init__(self):
        self.stats: dict[str, dict[str, int]] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []   # [name, child_ns] per open call
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(
            name, {"calls": 0, "points": 0, "bytes": 0,
                   "total_ns": 0, "self_ns": 0})
        points = _POINTS.get(name)
        writer = name in _WRITERS
        signature = inspect.signature(fn)
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if points is None:
                    stat["points"] += _array_points(args)
                else:
                    bound = signature.bind(*args, **kwargs).arguments
                    stat["points"] += points(bound)
                    if writer and os.path.exists(bound["path"]):
                        stat["bytes"] += os.path.getsize(bound["path"])
                stat["calls"] += 1
                stat["total_ns"] += elapsed
                stat["self_ns"] += elapsed - frame[1]
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1

        return wrapper

    def install(self) -> None:
        """Wrap the package's public callables and rebind every alias."""
        modules = [sys.modules.get(f"{PACKAGE}.{m}") for m in MODULES]
        if any(m is None for m in modules):
            raise RuntimeError("import corridorcov.cli before installing")
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        w = self._wrap(f"{short}.{obj.__qualname__}.{meth}", fn)
                        self._originals.append((obj, meth, fn))
                        setattr(obj, meth, w)
        package_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    def report(self) -> dict:
        """Stats of every wrapper that was called, and the call edges."""
        return {
            "stats": {k: dict(v) for k, v in self.stats.items() if v["calls"]},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items(),
                                              key=lambda e: (str(e[0][0]), e[0][1]))],
        }
