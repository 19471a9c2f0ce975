"""The benchmark tracer wraps library functions by name; each name must exist."""

from pathlib import Path

import imapk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hook_tables():
    # run the tracer's source in a fresh namespace: nothing is imported from
    # perfbench and no bytecode is written next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
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
