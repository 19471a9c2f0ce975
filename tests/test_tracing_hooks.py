"""The benchmark tracer wraps library functions by name; each name must exist,
and the wrapped names must see every call of the layer they measure."""

from pathlib import Path

import pytest

import imapk
from imapk.ktheory import MinPolyReport, minimal_polynomial_iter
from imapk.specfile import parse_spec

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing_namespace():
    # run the tracer's source in a fresh namespace: nothing is imported from
    # perfbench and no bytecode is written next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def _hook_tables():
    namespace = _tracing_namespace()
    return namespace["SPAN_FUNCTIONS"], namespace["HOT_FUNCTIONS"], namespace["HOT_METHODS"]


def test_every_traced_name_resolves():
    spans, hot, methods = _hook_tables()
    missing = []
    for table in (spans, hot):
        for modname, names in table.items():
            module = getattr(imapk, modname)
            missing += ["%s.%s" % (modname, n) for n in names if not callable(getattr(module, n, None))]
    for (modname, clsname), table in methods.items():
        cls = getattr(getattr(imapk, modname), clsname)
        missing += ["%s.%s.%s" % (modname, clsname, n) for n in table if n not in cls.__dict__]
    assert not missing


@pytest.mark.parametrize("name, steps", [
    ("tent", 3), ("golden_beta", 5), ("realization", 3), ("multimodal", 64),
])
def test_the_tracer_sees_every_transfer_step(name, steps):
    # the iteration takes one step per iterate and the Horner re-check one
    # per coefficient, all through the module attribute stepfun.transfer
    m = parse_spec((ROOT / "specs" / ("%s.imapk" % name)).read_text()).map
    tracer = _tracing_namespace()["Tracer"](imapk)
    tracer.install()
    try:
        result = minimal_polynomial_iter(m)
    finally:
        tracer.uninstall()
    traced = tracer.totals(in_reports=False)["stepfun.transfer"][0]
    if isinstance(result, MinPolyReport):
        assert traced == result.iterations + result.poly.degree + 1
    else:
        assert traced == result.cap == result.iterations
    assert traced == steps
