"""Spans around hermevp's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, op id) in memory.  A
function imported with ``from .x import f`` is a separate binding in every
module that imported it, so every ``hermevp`` module attribute that is the
original object gets the wrapper; methods are wrapped on their class.
Internal calls that look a name up at call time, such as
``solve_smallest`` calling ``residual_norms``, are caught the same way.
A target missing from the program is recorded as absent, not an error.

Self time is a span's duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _points(args, kwargs, result):
    return {"points": len(result)}


def _dofs(args, kwargs, result):
    return {"dofs": result[0].n}


def _solve(args, kwargs, result):
    return {"dofs": args[0].n, "modes": len(result.eigenvalues),
            "iterations": result.iterations}


# (span name, module, attribute path, counter function or None)
TARGETS = (
    ("mesh.build_mesh", "hermevp.mesh", "build_mesh", None),
    ("element.shape_table", "hermevp.element", "shape_table", None),
    ("element.hermite_interpolant", "hermevp.element", "hermite_interpolant",
     None),
    ("element.PiecewiseFunction.call", "hermevp.element",
     "PiecewiseFunction.__call__", _points),
    ("assembly.assemble", "hermevp.assembly", "assemble", _dofs),
    ("assembly.SymBandMatrix.norm_inf", "hermevp.assembly",
     "SymBandMatrix.norm_inf", None),
    ("assembly.SymBandMatrix.matvec", "hermevp.assembly",
     "SymBandMatrix.matvec", None),
    ("assembly.FEFunction.call", "hermevp.assembly", "FEFunction.__call__",
     _points),
    ("eigensolver.solve_smallest", "hermevp.eigensolver", "solve_smallest",
     _solve),
    ("eigensolver.residual_norms", "hermevp.eigensolver", "residual_norms",
     None),
    ("analysis.convergence_study", "hermevp.analysis", "convergence_study",
     None),
    ("analysis.compute_reference", "hermevp.analysis", "compute_reference",
     None),
    ("analysis.energy_norm_error", "hermevp.analysis", "energy_norm_error",
     None),
    ("analysis.discrete_max_error", "hermevp.analysis", "discrete_max_error",
     None),
    ("analysis.sample_points", "hermevp.analysis", "sample_points", None),
    ("analysis.interp_rate_study", "hermevp.analysis", "interp_rate_study",
     None),
    ("cli.main", "hermevp.cli", "main", None),
    ("cli.resolve_coefficients", "hermevp.cli", "resolve_coefficients", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(int)
        self.absent = []
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.clock()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result
        return traced

    def install(self):
        for name, module_name, path, counter in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, counter)
            self._patch(owner, attr, original, wrapped)
            if not outer:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or mod is None or not (
                            mod_name == "hermevp"
                            or mod_name.startswith("hermevp.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Self time of every span, in span order."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def summary(self):
        """Per target: calls, total self time and counter totals."""
        stats = {name: {"calls": 0, "self_s": 0.0}
                 for name, *_ in self.targets if name not in self.absent}
        for span, self_s in zip(self.spans, self.self_times()):
            stats[span.name]["calls"] += 1
            stats[span.name]["self_s"] += self_s
        for key, value in self.counters.items():
            name, stat = key.rsplit(".", 1)
            stats[name][stat] = value
        return stats
