"""Span tracing for the traced benchmark pass.

``install`` wraps the public functions of every sphvar module named in
``TARGETS``, in every sphvar namespace that binds them, and methods on their
class.  Each call records a span (name, start, end, parent) in flat arrays;
nothing is written until the pass ends.  Wrappers return results unchanged.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# module -> qualified names; method names carry their class
TARGETS = {
    "geometry": ("lattice_points", "Cone.dual_generators",
                 "Cone.from_inequalities", "Cone.intersect", "feasible",
                 "row_echelon", "solve_linear"),
    "rootdata": ("root_datum", "RootDatum.simple_root_expansion",
                 "RootDatum.dominant_char"),
    "chars": ("kostant_counts", "sym_powers_upto", "decompose", "irrep_char",
              "freudenthal_multiplicity"),
    "spherical": ("SphericalDatum.__post_init__", "validate_colored_cone",
                  "is_affine", "is_wavefront", "negligible_orbit_check",
                  "affine_closure_data", "enumerate_orbits", "aut_lineality"),
    "engine": ("basic_function_smooth", "basic_function_borel",
               "basic_function_pp", "basic_function_transport",
               "transport_height", "basic_function_graded",
               "minuscule_satake", "pp_shifts"),
    "oracle": ("translate_invariance_mismatches", "random_unimodular",
               "mat_det", "TruncSeries.__mul__", "orbit_invariant",
               "transition_counts", "mat_inv", "satake_mismatches"),
    "catalog": ("basic_table", "list_entries"),
    "cli": ("main", "parse_document"),
}

# Time under any of these spans, counted once; each is checked against the
# share the workload is meant to isolate (see README.md).
GROUPS = {
    "geometry.lattice_points.incl_share": ("geometry.lattice_points",),
    "oracle.mul_sampler.incl_share": ("oracle.TruncSeries.__mul__",
                                      "oracle.random_unimodular"),
    "chars_rootdata.incl_share": tuple(
        "%s.%s" % (m, f) for m in ("chars", "rootdata") for f in TARGETS[m]),
}


def metric_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for mod, funcs in TARGETS.items():
        for f in funcs:
            names += ["%s.%s.calls" % (mod, f), "%s.%s.self_s" % (mod, f)]
    names += ["catalog.list_entries.first_s",
              "geometry.lattice_points.points_out",
              "geometry.lattice_points.us_per_point",
              "oracle.random_unimodular.accept_ratio"]
    names += ["%s.self_share" % mod for mod in TARGETS]
    names += list(GROUPS)
    names += ["trace.coverage", "trace.overhead", "trace.spans"]
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.ops_start = 0
        self.points_out = 0

    def mark_ops_start(self):
        """Spans from here on belong to the timed ops, not to set-up."""
        self.ops_start = len(self.name_of)
        self.points_out = 0

    def wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            raise TypeError("cannot time a generator: %s" % name)
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self.stack
        clock = time.perf_counter_ns
        counts_points = name == "geometry.lattice_points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
                if counts_points:
                    self.points_out += len(res)
                return res
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def summary(self, wall):
        """Per-layer metrics of the op spans, as shares of the pass's op time
        ``wall``; ``trace.overhead`` needs an untraced pass and is added by
        the caller."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(self.ops_start, n):
            k = self.name_of[i]
            calls[k] += 1
            self_ns[k] += dur[i] - child[i]
        by_name = {name: (calls[k], self_ns[k] / 1e9)
                   for k, name in enumerate(self.names)}
        out = {}
        for mod, funcs in TARGETS.items():
            mod_self = 0.0
            for f in funcs:
                c, s = by_name["%s.%s" % (mod, f)]
                out["%s.%s.calls" % (mod, f)] = c
                out["%s.%s.self_s" % (mod, f)] = s
                mod_self += s
            out["%s.self_share" % mod] = mod_self / wall
        # the first call builds and validates the catalog during set-up
        first = self.names.index("catalog.list_entries")
        out["catalog.list_entries.first_s"] = next(
            (dur[i] / 1e9 for i in range(n) if self.name_of[i] == first), 0.0)
        lp_self = by_name["geometry.lattice_points"][1]
        out["geometry.lattice_points.points_out"] = self.points_out
        out["geometry.lattice_points.us_per_point"] = (
            lp_self * 1e6 / self.points_out if self.points_out else 0.0)
        ru = self.names.index("oracle.random_unimodular")
        det = self.names.index("oracle.mat_det")
        dets = sum(1 for i in range(self.ops_start, n)
                   if self.name_of[i] == det and self.parent[i] >= 0
                   and self.name_of[self.parent[i]] == ru)
        out["oracle.random_unimodular.accept_ratio"] = (
            calls[ru] / dets if dets else 0.0)
        for metric, members in GROUPS.items():
            out[metric] = self._covered(members, dur) / 1e9 / wall
        top = sum(dur[i] for i in range(self.ops_start, n)
                  if self.parent[i] < 0)
        out["trace.coverage"] = top / 1e9 / wall
        out["trace.spans"] = n - self.ops_start
        return out

    def _covered(self, members, dur):
        """Time inside spans named in members, nested ones counted once."""
        ids = {k for k, name in enumerate(self.names) if name in members}
        inside = bytearray(len(dur))
        total = 0
        for i in range(len(dur)):
            p = self.parent[i]
            mine = self.name_of[i] in ids
            inside[i] = mine or (p >= 0 and inside[p])
            if mine and not (p >= 0 and inside[p]) and i >= self.ops_start:
                total += dur[i]
        return total

    def write(self, path):
        """All spans, one per line: name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            fh.write("# name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name_of)):
                fh.write("%s\t%d\t%d\t%d\n" % (
                    self.names[self.name_of[i]], self.start[i], self.end[i],
                    self.parent[i]))


def install(tracer):
    """Import every traced module and wrap every target in place."""
    for mod_name in TARGETS:
        importlib.import_module("sphvar." + mod_name)
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "sphvar" or name.startswith("sphvar.")}
    for mod_name, funcs in TARGETS.items():
        mod = mods["sphvar." + mod_name]
        for qual in funcs:
            name = "%s.%s" % (mod_name, qual)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__,
                                                                name)))
                else:
                    setattr(cls, attr, tracer.wrap(raw, name))
                continue
            orig = getattr(mod, qual)
            wrapped = tracer.wrap(orig, name)
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapped)
