"""Tracing of the imapk layers from outside the library.

`Tracer.install` wraps the public functions of each layer and rebinds every
module-level alias of them (``entropy.char_poly``, ``report.detect_markov``,
the operators on ``Scalar``), so no call escapes the trace.  Two kinds of
wrapper exist:

* a span wrapper records one span per call: name, start, end, parent span
  and report id;
* a hot wrapper, for primitives that run hundreds of thousands of times per
  report, keeps only a call count and summed times per parent span.

Self time is a call's duration minus the time its traced children cover.
Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> function names wrapped with one span per call
SPAN_FUNCTIONS = {
    "specfile": ["parse_spec"],
    "families": ["build", "exchange_kgroups", "multimodal_kgroups"],
    "interval_map": ["validate_map", "dynamics_flags", "eventual_range", "map_interval_union"],
    "orbit": ["critical_closure", "forward_orbit", "tau_orbit", "idoc_check"],
    "markov": [
        "detect_markov", "graph_flags", "separation_check", "dynamics_certificates",
        "markov_for_partition", "restrict_to_eventual_range",
    ],
    "stepfun": ["transfer", "apply_int_poly"],
    "ktheory": [
        "minimal_polynomial_iter", "classify", "kgroups_from_minpoly", "module_generators",
        "unimodal_orbit_data", "beta_orbit_data",
    ],
    "snf": [
        "char_poly", "smith_normal_form", "stationary_dimension_triple", "determinant",
        "kgroups_from_incidence",
    ],
    "entropy": ["perron_enclosure", "entropy_report"],
    "report": ["run", "to_json"],
}

# module -> function names kept as counts and summed times per parent span
HOT_FUNCTIONS = {
    "interval_map": ["eval_multivalued", "preimages"],
    "polynomials": ["count_real_roots"],
}

# (module, class) -> {method: metric group}; a group sums several operators
HOT_METHODS = {
    ("scalar", "Scalar"): {
        "__add__": "arith", "__radd__": "arith", "__sub__": "arith", "__rsub__": "arith",
        "__mul__": "arith", "__rmul__": "arith", "__neg__": "arith",
        "sign": "sign", "compare": "compare", "__eq__": "compare", "__hash__": "hash",
    },
    ("scalar", "NumberField"): {"refine": "refine"},
    ("interval_map", "PMMap"): {"branch_index_at": "branch_index_at"},
}

LAYERS = (
    "specfile", "families", "scalar", "polynomials", "interval_map", "orbit", "markov",
    "stepfun", "ktheory", "snf", "entropy", "report",
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent, report, self_s]
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, s, self_s
        self.observed = defaultdict(float)  # counters read off arguments and results
        self.report = None
        # frame: [time covered by children, index of the enclosing span or None]
        self._stack = [[0.0, None]]
        self._depth = defaultdict(int)
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent[1], self.report, 0.0]
            self.spans.append(record)
            frame = [0.0, index]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                parent[0] += end - start
                record[1], record[2], record[5] = start, end, end - start - frame[0]
            if observe is not None:
                observe(self.observed, args, result)
            return result

        return wrapper

    def _hot(self, name, fn):
        stack, depth, hot = self._stack, self._depth, self.hot

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                parent[0] += duration
                entry = hot[(parent[1], name)]
                entry[0] += 1
                # inclusive time counts only the outermost call of a group,
                # so `a - b` (which calls + and neg) is not counted twice
                if not depth[name]:
                    entry[1] += duration
                entry[2] += duration - frame[0]

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every module-level alias of `original` at `wrapper`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith(self.package.__name__):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self):
        pkg = self.package.__name__
        for modname, names in SPAN_FUNCTIONS.items():
            module = sys.modules["%s.%s" % (pkg, modname)]
            for fname in names:
                name = "%s.%s" % (modname, fname)
                original = getattr(module, fname)
                self._rebind(original, self._span(name, original, OBSERVERS.get(name)))
        for modname, names in HOT_FUNCTIONS.items():
            module = sys.modules["%s.%s" % (pkg, modname)]
            for fname in names:
                original = getattr(module, fname)
                self._rebind(original, self._hot("%s.%s" % (modname, fname), original))
        for (modname, clsname), methods in HOT_METHODS.items():
            cls = getattr(sys.modules["%s.%s" % (pkg, modname)], clsname)
            for method, group in methods.items():
                original = cls.__dict__[method]
                setattr(cls, method, self._hot("%s.%s" % (modname, group), original))
                self._undo.append((cls, method, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def totals(self, in_reports=True):
        """name -> [calls, inclusive s, self s], over spans inside reports."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, parent, report, self_s in self.spans:
            if in_reports and report is None:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
        for (parent, name), (calls, incl, self_s) in self.hot.items():
            if in_reports and (parent is None or self.spans[parent][4] is None):
                continue
            entry = out[name]
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, report, self_s) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "report": report, "self_s": self_s,
                }) + "\n")
            for (parent, name), (calls, incl, self_s) in self.hot.items():
                handle.write(json.dumps({
                    "aggregate": name, "parent": parent, "calls": calls,
                    "s": incl, "self_s": self_s,
                }) + "\n")


def _observe_closure(acc, args, result):
    acc["closure.points"] += len(result.points)
    acc["closure.complete"] += 1 if result.complete else 0


def _observe_transfer(acc, args, result):
    acc["transfer.breaks"] += len(result.breaks)


def _observe_minpoly(acc, args, result):
    acc["minpoly.iterations"] += result.iterations
    acc["minpoly.found"] += 1 if hasattr(result, "poly") else 0


def _observe_char_poly(acc, args, result):
    acc["char_poly.max_dim"] = max(acc["char_poly.max_dim"], len(args[0]))


OBSERVERS = {
    "orbit.critical_closure": _observe_closure,
    "stepfun.transfer": _observe_transfer,
    "ktheory.minimal_polynomial_iter": _observe_minpoly,
    "snf.char_poly": _observe_char_poly,
}


def layer_metrics(tracer, batches, reports, traced_batch_s, untraced_batch_s):
    """Per-layer metrics of the traced batches, per batch unless noted."""
    totals = tracer.totals()
    obs = tracer.observed
    parse = tracer.totals(in_reports=False)["specfile.parse_spec"]

    def calls(name):
        return totals[name][0] / batches

    def incl(name):
        return totals[name][1] / batches

    def self_s(name):
        return totals[name][2] / batches

    def ratio(a, b):
        return a / b if b else 0.0

    closures = totals["orbit.critical_closure"][0]
    minpolys = totals["ktheory.minimal_polynomial_iter"][0]
    m = {
        "specfile.parse_spec.s": (parse[1] / batches, "s"),
        "scalar.sign.calls": (calls("scalar.sign"), "count"),
        "scalar.sign.s": (incl("scalar.sign"), "s"),
        "scalar.refine.calls": (calls("scalar.refine"), "count"),
        "scalar.refine_per_sign": (ratio(totals["scalar.refine"][0], totals["scalar.sign"][0]), "ratio"),
        "scalar.arith.calls": (calls("scalar.arith"), "count"),
        "scalar.arith.s": (incl("scalar.arith"), "s"),
        "scalar.compare.calls": (calls("scalar.compare"), "count"),
        "scalar.compare.s": (incl("scalar.compare"), "s"),
        "scalar.hash.calls": (calls("scalar.hash"), "count"),
        "scalar.hash.s": (incl("scalar.hash"), "s"),
        "interval_map.eval_multivalued.calls": (calls("interval_map.eval_multivalued"), "count"),
        "interval_map.eval_multivalued.s": (incl("interval_map.eval_multivalued"), "s"),
        "interval_map.branch_index_at.calls": (calls("interval_map.branch_index_at"), "count"),
        "orbit.critical_closure.calls": (ratio(closures, reports), "1/report"),
        "orbit.critical_closure.s": (incl("orbit.critical_closure"), "s"),
        "orbit.critical_closure.points": (ratio(obs["closure.points"], closures), "1/closure"),
        "orbit.critical_closure.complete_ratio": (ratio(obs["closure.complete"], closures), "ratio"),
        "orbit.forward_orbit.calls": (calls("orbit.forward_orbit"), "count"),
        "orbit.forward_orbit.s": (incl("orbit.forward_orbit"), "s"),
        "orbit.tau_orbit.calls": (calls("orbit.tau_orbit"), "count"),
        "orbit.tau_orbit.s": (incl("orbit.tau_orbit"), "s"),
        "orbit.idoc_check.s": (incl("orbit.idoc_check"), "s"),
        "families.multimodal_kgroups.s": (incl("families.multimodal_kgroups"), "s"),
        "markov.detect_markov.s": (incl("markov.detect_markov"), "s"),
        "markov.graph_flags.s": (incl("markov.graph_flags"), "s"),
        "markov.separation_check.s": (incl("markov.separation_check"), "s"),
        "markov.dynamics_certificates.s": (incl("markov.dynamics_certificates"), "s"),
        "stepfun.transfer.calls": (calls("stepfun.transfer"), "count"),
        "stepfun.transfer.s": (incl("stepfun.transfer"), "s"),
        "stepfun.transfer.breaks": (obs["transfer.breaks"] / batches, "count"),
        "ktheory.minimal_polynomial_iter.calls": (calls("ktheory.minimal_polynomial_iter"), "count"),
        "ktheory.minimal_polynomial_iter.self_s": (self_s("ktheory.minimal_polynomial_iter"), "s"),
        "ktheory.minimal_polynomial_iter.iterations": (obs["minpoly.iterations"] / batches, "count"),
        "ktheory.minimal_polynomial_iter.found_ratio": (ratio(obs["minpoly.found"], minpolys), "ratio"),
        "ktheory.classify.s": (incl("ktheory.classify"), "s"),
        "snf.char_poly.calls": (calls("snf.char_poly"), "count"),
        "snf.char_poly.s": (incl("snf.char_poly"), "s"),
        "snf.char_poly.max_dim": (obs["char_poly.max_dim"], "count"),
        "snf.smith_normal_form.calls": (calls("snf.smith_normal_form"), "count"),
        "snf.smith_normal_form.s": (incl("snf.smith_normal_form"), "s"),
        "snf.stationary_dimension_triple.s": (incl("snf.stationary_dimension_triple"), "s"),
        "snf.determinant.s": (incl("snf.determinant"), "s"),
        "entropy.perron_enclosure.calls": (calls("entropy.perron_enclosure"), "count"),
        "entropy.perron_enclosure.self_s": (self_s("entropy.perron_enclosure"), "s"),
        "polynomials.count_real_roots.calls": (calls("polynomials.count_real_roots"), "count"),
        "polynomials.count_real_roots.s": (incl("polynomials.count_real_roots"), "s"),
        "report.run.self_s": (self_s("report.run"), "s"),
        "report.to_json.s": (incl("report.to_json"), "s"),
        "trace.batch_s": (traced_batch_s, "s"),
        "trace.overhead_ratio": (ratio(traced_batch_s, untraced_batch_s), "ratio"),
    }
    layer_self = defaultdict(float)
    for name, (_, _, s) in totals.items():
        layer_self[name.split(".", 1)[0]] += s / batches
    for layer in LAYERS:
        m["%s.self_share" % layer] = (ratio(layer_self[layer], traced_batch_s), "ratio")
    return m
