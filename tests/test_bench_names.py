"""The benchmark's instrumentation finds every library name it wraps or counts.

``certbench/tracing.py`` patches library functions and methods by name and
counts calls to others under cProfile. A library rename would otherwise only
show when the benchmark runs; here it fails the test suite.
"""

import os
import sys

import pytest

CERTBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "certbench")
sys.path.insert(0, CERTBENCH)

import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def lib():
    return run.Library()


def _bindings(lib):
    """Every module binding and traced class attribute, by identity."""
    out = {}
    for module in tracing._library_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
    for mod_name, owner, attrs in tracing.SPAN_LAYERS.values():
        if owner is not None:
            cls = getattr(getattr(lib, mod_name), owner)
            for attr in attrs:
                out[(cls.__qualname__, attr)] = cls.__dict__.get(attr)
    return out


def test_span_tracer_patches_every_traced_name_and_restores_them(lib):
    before = _bindings(lib)
    tracer = tracing.SpanTracer(lib)
    try:
        tracer.install()
        patched = {(getattr(holder, "__name__", None), attr) for holder, attr, _ in tracer._patches}
        for mod_name, owner, attrs in tracing.SPAN_LAYERS.values():
            for attr in attrs:
                holder = owner if owner is not None else "cogradedhopf." + mod_name
                assert (holder, attr) in patched, (mod_name, owner, attr)
        # a traced call runs through the wrappers and lands in its layer
        h = lib.hopf.make_kg(lib.groups.cyclic_group(2))
        assert lib.hopf.check_counit(h, lib.groups.Window.full(h.group)).passed
        assert tracer.self_s["hopf.counit"] > 0
        assert tracer.entries["algebras.multiply"] > 0
    finally:
        tracer.remove()
    assert _bindings(lib) == before


def test_counted_functions_resolve_and_count(lib):
    functions = tracing.counted_functions(lib)
    for metric, fns in functions.items():
        assert fns, metric
        for fn in fns:
            tracing._code_key(fn)  # each is a plain Python function or method

    def job():
        h = lib.hopf.make_kg(lib.groups.cyclic_group(2))
        w = lib.groups.Window.full(h.group)
        assert lib.hopf.check_counit(h, w).passed
        pairing = lib.double.make_group_function_pairing(h.group)
        d = lib.double.build_double(pairing, lib.cograded.trivial_action(pairing.b_side))
        d.dmul(d.basis_tensor(*d.a_basis[0], *d.b_basis[0]),
               d.basis_tensor(*d.a_basis[-1], *d.b_basis[-1]))
        d.dbar(*d.a_basis[0], *d.b_basis[0])

    _, calls = tracing.count_calls(lib, job)
    assert set(calls) == set(functions)
    for metric in ("exact.scalar.mul", "exact.scalar.bool", "algebras.multiply.calls",
                   "algebras.leg.calls", "hopf.cuts.calls", "double.dmul.calls",
                   "double.dbar.calls", "groups.window.pairs", "groups.multiply.calls"):
        assert calls[metric] > 0, metric
