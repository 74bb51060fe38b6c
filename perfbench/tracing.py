"""Span recorder installed around the public functions of ``cavreset``.

The package is not modified.  `install` wraps every public function of each
module and rebinds the wrapper under every name that refers to the
original, in every ``cavreset`` module and in the package namespace,
because ``design``, ``scenarios`` and ``cli`` import functions by name.  A
few methods that write artefacts are wrapped on their classes, and a few
hot helpers only count calls.  Spans and counts are recorded only while
`enabled` is set, which the harness does around each timed call, so its own
verification work is never attributed to a layer.  `uninstall` restores
the originals.  An untraced run never calls `install`.

Each span holds (id, parent id, operation id, name, start ns, end ns) and is
kept in memory; `aggregate` turns the spans into per-name call counts,
inclusive time and self time (inclusive time minus time covered by child
spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pathlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("core", "pulses", "dynamics", "design", "optimize", "fitting", "synth", "scenarios", "cli")

#: Hot helpers that only count calls: a span each would dominate their cost.
COUNTED_ONLY = {"core.chi_shift", "core.complex_rate", "pulses.wrap_phase"}

_MIN_STEPS_PER_SEGMENT = 10  # propagate_ode's floor on steps per segment


def _rk4_steps(schedule, dt: float, floor: int) -> int:
    """Steps the package's fixed-step RK4 takes over `schedule` (computed)."""
    return sum(max(floor, int(math.ceil(seg.duration / dt - 1e-12))) for seg in schedule)


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _is_io(name: str) -> bool:
    """Artefact writers: the wrapped class methods plus synth's CSV writer."""
    return name.startswith("io.") or name == "synth.write_samples_csv"


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    scenario_wall: dict = field(default_factory=lambda: defaultdict(list))
    op_id: int = 0
    enabled: bool = False  # spans and counts are kept only while True
    _stack: list = field(default_factory=list)
    _names: list = field(default_factory=list)
    _next: int = 1
    _saved: list = field(default_factory=list)

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stack = self._stack
        names = self._names
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else 0
            if before is not None:
                before(args, kwargs)
            stack.append(sid)
            names.append(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                names.pop()
                spans.append((sid, parent, self.op_id, name, start, end))
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name):
        """(before, after) hooks that derive work counts at a boundary."""
        c = self.counters
        if name == "dynamics.ode_final_alpha":
            def before(args, kwargs):
                c["dynamics.rk4_steps"] += _rk4_steps(_arg(args, kwargs, 1, "schedule"), _arg(args, kwargs, 3, "dt", 0.05), 1)
            return before, None
        if name == "dynamics.propagate_ode":
            def before(args, kwargs):
                c["dynamics.rk4_steps"] += _rk4_steps(_arg(args, kwargs, 1, "schedule"), _arg(args, kwargs, 3, "dt", 0.05), _MIN_STEPS_PER_SEGMENT)
            return before, None
        if name == "optimize.nelder_mead":
            def after(args, kwargs, result, _ns):
                c["optimize.nelder_mead.evals"] += result.evaluations
                target = _arg(args, kwargs, 3, "f_target")
                c["optimize.nelder_mead.target_met"] += int(target is not None and result.fun <= target)
            return None, after
        if name == "optimize.levenberg_marquardt":
            def after(args, kwargs, result, _ns):
                c["optimize.levenberg_marquardt.nfev"] += result.nfev
            return None, after
        if name == "design.residual_map":
            def before(args, kwargs):
                c["design.residual_map.cells"] += len(_arg(args, kwargs, 4, "amp_grid")) * len(_arg(args, kwargs, 5, "phase_grid"))
                c["maps.kerr_calls"] += int(args[0].kerr_coeff != 0.0)
            return before, None
        if name in ("design.sspe_analytic", "design.sspe_optimize", "design.clear_optimize", "design.compare_schemes"):
            def before(args, kwargs):
                if not self._inside_design():
                    c["design.entry_calls"] += 1
                    c["design.kerr_entry_calls"] += int(args[0].kerr_coeff != 0.0)
            return before, None
        if name.startswith("fitting.fit_") or name == "fitting.exp_decay_fit":
            def after(args, kwargs, result, _ns):
                c["fitting.converged"] += int(bool(result.converged))
            return None, after
        if name == "scenarios.run_scenario":
            def after(args, kwargs, result, ns):
                self.scenario_wall[_arg(args, kwargs, 0, "name")].append(ns * 1e-9)
            return None, after
        return None, None

    def _inside_design(self) -> bool:
        return any(name.startswith("design.") for name in self._names)

    def install(self, package) -> None:
        """Wrap the package's public functions and rebind every alias."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED_ONLY:
                    wrappers[id(obj)] = (obj, self._count(name, obj))
                else:
                    before, after = self._hooks(name)
                    wrappers[id(obj)] = (obj, self._span(name, obj, before, after))
        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

        # artefact writers and segment construction live on classes
        for cls, attr, name in (
            (package.Trajectory, "write_csv", "io.trajectory_csv"),
            (package.ResidualMap, "write_csv", "io.map_csv"),
            (package.ResidualMap, "write_sidecar", "io.map_sidecar"),
            (pathlib.Path, "write_text", "io.write_text"),
        ):
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._span(name, orig))
        segment = package.DriveSegment
        orig = segment.__dict__["__post_init__"]
        self._saved.append((segment, "__post_init__", orig))
        segment.__post_init__ = self._count("pulses.segments", orig)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        child_ns = defaultdict(int)
        for sid, parent, _op, _name, start, end in self.spans:
            if parent:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        names = {sid: name for sid, _p, _o, name, _s, _e in self.spans}
        io_s = 0.0
        for sid, parent, _op, name, start, end in self.spans:
            dur = end - start
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur * 1e-9
            row["self_s"] += (dur - child_ns[sid]) * 1e-9
            if _is_io(name) and not _is_io(names.get(parent, "")):
                io_s += dur * 1e-9
        out["io"]["total_s"] = io_s
        return out
