"""Per-layer instrumentation applied from outside the library.

Two instruments, used in separate passes over the same job list:

* :class:`SpanTracer` wraps the library's public functions and methods in
  timing spans.  Each span adds its self time (its duration minus the time
  of the spans it caused) to its layer.  Spans are aggregated in memory per
  job and per layer, so a pass with millions of calls keeps a bounded
  footprint; the job itself is the root span.
* :func:`count_calls` runs a pass under ``cProfile`` and reads exact call
  counts for functions too frequent to wrap (scalar arithmetic, window
  enumeration, group products, leg products, coproduct cuts, double
  products).  The counts repeat exactly for the same code and seed.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, owner, attribute names); owner None means a module function
SPAN_LAYERS = {
    "exact.rank": ("exact", None, ("rank_of_sparse_columns", "rank", "is_bijective")),
    "exact.solve": ("exact", None, ("solve_linear", "kernel", "kernel_of_sparse_rows", "inverse")),
    "exact.psd": ("exact", None, ("hermitian_psd",)),
    "algebras.component": ("algebras", "GradedAlgebra", ("component",)),
    "algebras.multiply": ("algebras", "GradedAlgebra", ("multiply",)),
    "algebras.leg": ("algebras", "TensorElement",
                     ("mul_leg1_left", "mul_leg1_right", "mul_leg2_left", "mul_leg2_right")),
    "algebras.check": ("algebras", None, ("check_graded_algebra",)),
    "hopf.t1_t2": ("hopf", None, ("check_t1_t2",)),
    "hopf.coassoc": ("hopf", None, ("check_coassociativity",)),
    "hopf.counit": ("hopf", None, ("check_counit",)),
    "hopf.antipode": ("hopf", None, ("check_antipode",)),
    "hopf.star": ("hopf", None, ("check_star",)),
    "hopf.integral": ("hopf", None,
                      ("solve_left_integral", "solve_right_integral", "check_integral_membership")),
    "hopf.modular": ("hopf", None,
                     ("modular_element", "modular_automorphism", "check_faithful",
                      "check_positive_integral")),
    "cograded.check": ("cograded", None, ("check_cograded",)),
    "cograded.crossing": ("cograded", None, ("check_crossing", "check_admissible")),
    "cograded.deform": ("cograded", None, ("deform", "mirror_check")),
    "double.build": ("double", None, ("build_double",)),
    "double.axioms": ("double", None, ("check_double_axioms",)),
    "double.twist": ("double", None, ("check_twist",)),
    "double.twist_map": ("double", "TwistCalculus", ("r", "r_inv")),
    "double.pairing": ("double", None,
                       ("check_pairing", "induced_grading_check", "build_module_actions")),
    "double.integral": ("double", None, ("double_right_integral",)),
    "double.dual": ("double", None, ("reduced_dual",)),
    "specfile.load": ("specfile", None, ("load_structure", "load_spec_file")),
    "specfile.export": ("specfile", None, ("structure_to_doc", "save_spec")),
    "specfile.digest": ("specfile", None, ("spec_digest",)),
    "cli.verify": ("cli", None, ("cmd_verify",)),
    "cli.double": ("cli", None, ("cmd_double",)),
    "cli.dual": ("cli", None, ("cmd_dual",)),
    "report.render": ("report", "CertificateReport", ("text", "to_json", "digest")),
}

# layers whose time is reported under another layer's name
MERGED_LAYERS = {"double.twist_map": "double.twist"}

# names the span metrics are reported under (self time, and entry counts for these)
SELF_METRICS = sorted({MERGED_LAYERS.get(k, k) for k in SPAN_LAYERS})
ENTRY_COUNT_METRICS = ("exact.rank", "exact.solve")

# check_cograded entries that the verify pipeline drops as already computed
CANONICAL_MAP_PREFIXES = ("T1-block", "T2-block")


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cogradedhopf" or name.startswith("cogradedhopf."))]


class SpanTracer:
    """Wraps library entry points in spans; aggregates self time per layer."""

    def __init__(self, lib):
        self.lib = lib
        self.self_s = defaultdict(float)
        self.entries = Counter()
        self.counters = Counter()
        self.job_gaps = []  # (job, wall, sum of self times) per traced job
        self._stack = []
        self._patches = []  # (holder, attribute, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, fn, after=None):
        stack, self_s, entries = self._stack, self.self_s, self.entries
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                entries[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def job(self, name, fn):
        """Run ``fn`` as the root span of job ``name``; returns its result."""
        before = sum(self.self_s.values())
        traced = self._wrap("job", fn)
        start = time.perf_counter()
        try:
            return traced()
        finally:
            wall = time.perf_counter() - start
            self.job_gaps.append((name, wall, sum(self.self_s.values()) - before))

    # -- hooks for byte and entry counts ----------------------------------

    def _count_read(self, args, result):
        self.counters["specfile.bytes_read"] += os.path.getsize(args[0])

    def _count_written(self, args, result):
        self.counters["specfile.bytes_written"] += os.path.getsize(args[0])

    def _count_rendered(self, args, result):
        self.counters["report.entries"] += len(args[0].entries)

    def _count_cograded(self, args, result):
        if not any(frame[0] == "cli.verify" for frame in self._stack):
            return  # only the verify pipeline drops entries of check_cograded
        names = [e.name for e in result.entries]
        self.counters["cograded.computed"] += len(names)
        self.counters["cograded.kept"] += sum(
            1 for n in names if not n.startswith(CANONICAL_MAP_PREFIXES))

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = _library_modules()
        after_hooks = {
            "load_spec_file": self._count_read,
            "save_spec": self._count_written,
            "check_cograded": self._count_cograded,
            # text() digests too, so each rendered certificate counts once
            "digest": self._count_rendered,
        }
        for layer, (mod_name, owner, attrs) in SPAN_LAYERS.items():
            module = getattr(self.lib, mod_name)
            layer = MERGED_LAYERS.get(layer, layer)
            for attr in attrs:
                after = after_hooks.get(attr)
                if owner is not None:
                    cls = getattr(module, owner)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(layer, original, after))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, after)
                # patch every binding made by ``from .x import name`` as well
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def remove(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self):
        out = {"%s.self_s" % layer: self.self_s.get(layer, 0.0) for layer in SELF_METRICS}
        for layer in ENTRY_COUNT_METRICS:
            out["%s.calls" % layer] = self.entries.get(layer, 0)
        for name in ("specfile.bytes_read", "specfile.bytes_written", "report.entries"):
            out[name] = self.counters.get(name, 0)
        computed = self.counters.get("cograded.computed", 0)
        kept = self.counters.get("cograded.kept", 0)
        out["cograded.kept_ratio"] = kept / computed if computed else 1.0
        out["trace.job_self_s"] = self.self_s.get("job", 0.0)
        out["trace.self_sum_gap_s"] = max(
            (abs(wall - total) for _, wall, total in self.job_gaps), default=0.0)
        return out

    def self_sums_match(self, tolerance=1e-3):
        """Each job's span self times add up to its wall time."""
        return all(abs(wall - total) <= tolerance * max(wall, 1e-3)
                   for _, wall, total in self.job_gaps)


def unit_of(metric):
    """The unit a per-layer metric is reported in."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.startswith("specfile.bytes"):
        return "bytes"
    return "count"


def _code_key(fn):
    code = getattr(fn, "__code__", None) or fn.__func__.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def counted_functions(lib):
    """Metric name -> the library functions whose calls it sums."""
    gr = lib.exact.GaussianRational
    ga, te = lib.algebras.GradedAlgebra, lib.algebras.TensorElement
    mha, ds = lib.hopf.MhaStructure, lib.double.DoubleStructure
    table_group = lib.groups.cyclic_group(2)
    integers = lib.groups.integers_group()
    return {
        "exact.scalar.mul": [gr.__mul__],
        "exact.scalar.add": [gr.__add__, gr.__sub__, gr.__rsub__],
        "exact.scalar.bool": [gr.__bool__],
        "groups.window.pairs": [lib.groups.Window.pairs],
        "groups.window.triples": [lib.groups.Window.triples],
        "groups.multiply.calls": [table_group.multiply, integers.multiply],
        "algebras.component.calls": [ga.component],
        "algebras.multiply.calls": [ga.multiply],
        "algebras.leg.calls": [te.mul_leg1_left, te.mul_leg1_right,
                               te.mul_leg2_left, te.mul_leg2_right],
        "hopf.cuts.calls": [mha.coproduct_right_cut, mha.coproduct_left_cut,
                            mha.coproduct_right_cut_first, mha.coproduct_left_cut_second],
        "double.dmul.calls": [ds.dmul],
        "double.dbar.calls": [ds.dbar],
    }


def count_calls(lib, fn):
    """Run ``fn`` under cProfile; returns (result, {metric: call count}).

    A generator's count is its number of resumptions: the items it yielded,
    plus one for each enumeration that ran to the end.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    calls = {}
    for metric, fns in counted_functions(lib).items():
        calls[metric] = sum(stats.get(_code_key(f), (0, 0))[1] for f in fns)
    return result, calls
