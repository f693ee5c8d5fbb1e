"""Span and count tracing of the bergman_orlicz layers, from outside the package.

`Tracer.install()` wraps every public function of each package module, and
the public methods of the classes each module defines, in a span named after
the module.  A function imported into other modules with ``from .x import
y`` is bound once per importing namespace, so each of those bindings is
replaced too; otherwise calls through them go uncounted.  Spans stay in
memory as per-module self-time totals: a span's self time is its duration
minus the time covered by the spans it opened.

Counts are taken at the same boundaries.  Those that need the arguments or
the result of a call (points fed to a closure, bisection steps of a
`LuxResult`, cache hits of `Field2D.values`) are computed here from the
public objects.  A hook target or result field that is missing raises
`TraceGap`, so a reshaped package gives a broken trace, never a count of 0
that reads as a gain.  The one exception is a module in `REMOVABLE`.
"""

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("quadrature", "growth", "halfplane", "lattice", "orlicz",
           "bergman", "atoms", "carleson", "kernels")

# Modules a ROADMAP item deletes: once gone, their spans and counts read 0.
# kernels: item 5 replaces it with lattice arithmetic and an inline atom sum.
REMOVABLE = ("kernels",)

COUNTS = (
    "carleson.berezin_points", "carleson.membership_stages",
    "orlicz.lux_solves", "orlicz.lux_steps", "orlicz.seq_solves",
    "orlicz.modular_passes",
    "quadrature.box_calls", "quadrature.graded_strips",
    "quadrature.halfplane_calls", "quadrature.line_calls",
    "quadrature.field_blocks", "quadrature.field_evals",
    "quadrature.field_hits",
    "growth.phi_calls", "growth.phi_points", "growth.inverse_calls",
    "bergman.fn_points", "bergman.atom_pairs",
    "kernels.pairs",
    "lattice.points", "lattice.samples",
    "atoms.trials", "atoms.decompositions",
    "halfplane.integrate_calls",
)

_QUAD_DRIVERS = ("integrate_box", "integrate_box_graded",
                 "integrate_halfplane", "integrate_1d_line", "integrate_1d")

# Every callable a count is taken at, as "<module>.<qualified name>".
HOOKS = (
    "carleson.berezin_fn", "orlicz.luxembourg", "orlicz.seq_luxembourg",
    *(f"quadrature.{name}" for name in _QUAD_DRIVERS),
    "quadrature.Field2D.values",
    "growth.inverse", "growth.inverse_vec", "growth.GrowthFunction.__call__",
    "bergman.AnalyticFn.__call__",
    "kernels.atom_sum_eval", "kernels.min_separation", "kernels.cover_counts",
    "lattice.build", "lattice.covering_report",
    "atoms.equivalence_experiment", "atoms.decompose_l2",
    "halfplane.integrate", "halfplane.integrate_disk",
)


class TraceGap(Exception):
    """The package lacks a module, callable or result field a count needs."""


def _size(z):
    return int(np.size(z))


class Tracer:
    """Per-module self time and layer counts for one traced section.

    Only calls made while `active` is true are recorded; checks run with
    it false so that their own library calls do not count.
    """

    def __init__(self):
        self.active = False
        self.self_ns = {m: 0 for m in MODULES}
        self.counts = {c: 0 for c in COUNTS}
        self._stack = []  # open spans as [module, name, child_ns]
        self._patched = []
        self._hooked = set()  # "<module>.<qualified name>" of each wrapped callable

    def reset(self):
        self.self_ns = {m: 0 for m in MODULES}
        self.counts = {c: 0 for c in COUNTS}

    # ------------------------------------------------------------ spans

    def _parent(self):
        return tuple(self._stack[-1][:2]) if self._stack else (None, None)

    def _span(self, module, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._parent()
        frame = [module, name, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - t0
            self._stack.pop()
            self.self_ns[module] += dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur
        try:
            self._count(module, name, parent, args, out)
        except (AttributeError, KeyError, TypeError, IndexError) as e:
            raise TraceGap(f"{module}.{name}: {e!r}") from e
        return out

    def _wrap(self, module, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span(module, name, fn, args, kwargs)

        return wrapper

    # ----------------------------------------------------------- counts

    def _count(self, module, name, parent, args, out):
        c = self.counts
        key = f"{module}.{name}"
        if key == "carleson.berezin_fn.<closure>":
            c["carleson.berezin_points"] += _size(args[0])
        elif key == "orlicz.luxembourg":
            c["orlicz.lux_solves"] += 1
            c["orlicz.lux_steps"] += int(out.iterations)
            if parent == ("carleson", "berezin_membership"):
                c["carleson.membership_stages"] += 1
        elif key == "orlicz.seq_luxembourg":
            c["orlicz.seq_solves"] += 1
        elif module == "quadrature" and name in _QUAD_DRIVERS:
            if parent[0] == "orlicz":
                c["orlicz.modular_passes"] += 1
            if name == "integrate_box":
                c["quadrature.box_calls"] += 1
                if parent == ("quadrature", "integrate_box_graded"):
                    c["quadrature.graded_strips"] += 1
            elif name == "integrate_halfplane":
                c["quadrature.halfplane_calls"] += 1
            elif name == "integrate_1d_line":
                c["quadrature.line_calls"] += 1
        elif key in ("growth.inverse", "growth.inverse_vec"):
            c["growth.inverse_calls"] += 1
        elif key == "growth.GrowthFunction.__call__":
            c["growth.phi_calls"] += 1
            c["growth.phi_points"] += _size(args[1])
        elif key == "bergman.AnalyticFn.__call__":
            fn_obj, z = args[0], args[1]
            n = _size(getattr(z, "z", z))
            c["bergman.fn_points"] += n
            if fn_obj.kind == "atom_sum":
                c["bergman.atom_pairs"] += n * _size(fn_obj.params["centers"])
        elif module == "kernels":
            if name == "atom_sum_eval":
                c["kernels.pairs"] += _size(args[0]) * _size(args[1])
            elif name == "min_separation":
                n = _size(args[0])
                c["kernels.pairs"] += n * (n - 1) // 2
            elif name == "cover_counts":
                c["kernels.pairs"] += _size(args[0]) * _size(args[2])
        elif key == "lattice.build":
            c["lattice.points"] += len(out.points)
        elif key == "lattice.covering_report":
            c["lattice.samples"] += int(out.samples)
        elif key == "atoms.equivalence_experiment":
            c["atoms.trials"] += int(out["trials"])
        elif key == "atoms.decompose_l2":
            c["atoms.decompositions"] += 1
        elif key in ("halfplane.integrate", "halfplane.integrate_disk"):
            c["halfplane.integrate_calls"] += 1

    def _field_values(self, fn):
        """Field2D.values: a block per call, node evaluations on misses."""
        tracer = self

        @functools.wraps(fn)
        def values(field, rect, order):
            if tracer.active:
                cache = field._cache  # None when the field does not cache
                hit = cache is not None and (rect, order) in cache
                tracer.counts["quadrature.field_blocks"] += 1
                if hit:
                    tracer.counts["quadrature.field_hits"] += 1
                out = tracer._span("quadrature", "Field2D.values", fn,
                                   (field, rect, order), {})
                if not hit:
                    tracer.counts["quadrature.field_evals"] += _size(out)
                return out
            return fn(field, rect, order)

        return values

    def _berezin_fn(self, fn):
        """carleson.berezin_fn: the returned closure is a carleson span."""
        tracer = self

        @functools.wraps(fn)
        def berezin_fn(*args, **kwargs):
            closure = tracer._span("carleson", "berezin_fn", fn, args, kwargs)
            return tracer._wrap("carleson", "berezin_fn.<closure>", closure)

        return berezin_fn

    # ---------------------------------------------------------- install

    def install(self, package):
        """Wrap the package's public callables in every namespace holding them.

        Raises `TraceGap` when a module other than a `REMOVABLE` one, or a
        callable in `HOOKS`, is missing.
        """
        mods = {}
        for m in MODULES:
            modname = f"{package.__name__}.{m}"
            try:
                mods[m] = importlib.import_module(modname)
            except ModuleNotFoundError as e:
                if m not in REMOVABLE or e.name != modname:
                    raise TraceGap(f"module {m}: {e}") from e
        namespaces = [package] + [
            v for k, v in sorted(vars(package).items())
            if inspect.ismodule(v) and v.__name__.startswith(package.__name__)]
        replace = {}
        for m, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None)
                # kernels re-exports the functions of the backend it selected
                owned = home == mod.__name__ or (
                    m == "kernels" and inspect.isfunction(obj)
                    and str(home).startswith(package.__name__ + "."))
                if name.startswith("_") or not owned:
                    continue
                if inspect.isfunction(obj):
                    self._hooked.add(f"{m}.{name}")
                    if (m, name) == ("carleson", "berezin_fn"):
                        replace[id(obj)] = (obj, self._berezin_fn(obj))
                    else:
                        replace[id(obj)] = (obj, self._wrap(m, name, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(m, obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, name, obj))
                    setattr(ns, name, hit[1])
        missing = [h for h in HOOKS
                   if h not in self._hooked and h.split(".")[0] in mods]
        if missing:
            self.uninstall()
            raise TraceGap(f"hook targets missing: {', '.join(missing)}")

    def _wrap_methods(self, module, cls):
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if name.startswith("_") and name != "__call__":
                continue
            if (module, cls.__name__, name) == ("quadrature", "Field2D", "values"):
                wrapped = self._field_values(obj)
            else:
                wrapped = self._wrap(module, f"{cls.__name__}.{name}", obj)
            self._hooked.add(f"{module}.{cls.__name__}.{name}")
            self._patched.append((cls, name, obj))
            setattr(cls, name, wrapped)

    def uninstall(self):
        for ns, name, obj in reversed(self._patched):
            setattr(ns, name, obj)
        self._patched.clear()
