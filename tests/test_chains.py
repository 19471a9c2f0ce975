"""The chain lemma that lets a report skip the transfer iteration.

``orbit.chains_prove_independence(m, k)`` reads the chains of the partition
points and, when it holds, ``Pipeline.minpoly`` reports ``not_found_within_cap``
without a transfer step.  The property test checks it against the iteration
on seeded random maps, and against a reference written here in ``Fraction``s
whose three mutants each accept a map on which the iteration finds a
polynomial, so the property can fail.  The report tests spy on the transfer
and compare the bytes with the check switched off.
"""

import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from imapk import ktheory, orbit, report, stepfun
from imapk.families import FamilySpec, build
from imapk.interval_map import validate_map
from imapk.ktheory import MinPolyReport, NotFoundWithinCap, minimal_polynomial_iter
from imapk.orbit import chains_prove_independence
from imapk.report import Pipeline, PipelineOptions, run, to_json
from imapk.specfile import parse_spec

SPECS = Path(__file__).resolve().parents[1] / "specs"
CAP = 20


def _continuous_surjective_map(rng):
    """2-4 branches through heights in (1/6)Z over cuts in (1/12)Z, with
    heights 0 and 1 among them, so the map is continuous and surjective."""
    n = rng.randint(2, 4)
    pts = [Fraction(0), *(Fraction(k, 12) for k in sorted(rng.sample(range(1, 12), n - 1))), Fraction(1)]
    while True:
        heights = [Fraction(rng.randint(0, 6), 6) for _ in range(n + 1)]
        if 0 in heights and 1 in heights and all(u != v for u, v in zip(heights, heights[1:])):
            break
    branches = []
    for lo, hi, u, v in zip(pts, pts[1:], heights, heights[1:]):
        slope = (v - u) / (hi - lo)
        branches.append((slope, u - slope * lo))
    return validate_map(pts, branches)


def _reference(m, cap, cut=True, distinct=True, turning_only=True):
    """The lemma's check in Fractions, as a function of k <= cap.  Each
    keyword set False is one mutant: a chain not cut at a partition point, a
    chain that may repeat a point, or every partition point as a start."""
    pts = [t.as_fraction() for t in m.partition]
    lines = [(b.slope.as_fraction(), b.intercept.as_fraction()) for b in m.branches]

    def tau(x):
        # the branch left of the first interior cut t > x, else the last
        s, c = next((line for t, line in zip(pts[1:-1], lines) if t > x), lines[-1])
        return s * x + c

    chains = []
    for t in pts:
        x, seen, chain = t, {t}, []
        for _ in range(cap):
            x = tau(x)
            if (cut and x in pts) or (distinct and x in seen):
                break
            seen.add(x)
            chain.append(x)
        chains.append(chain)
    increasing = [s > 0 for s, _ in lines]
    starts = [
        i for i in range(len(pts))
        if not turning_only or i in (0, len(pts) - 1) or increasing[i - 1] != increasing[i]
    ]

    def holds(k):
        # a walk to k images is the first k points of the walk to cap images
        cut_chains = [chain[:k] for chain in chains]
        return any(
            len(cut_chains[i]) == k
            and set().union(*cut_chains[:i], *cut_chains[i + 1:]).isdisjoint(cut_chains[i])
            for i in starts
        )

    return holds


@lru_cache(maxsize=None)
def _sample():
    """(map, step of the polynomial at cap CAP or None) for 100 seeded maps."""
    rng = random.Random(26)
    out = []
    for _ in range(100):
        m = _continuous_surjective_map(rng)
        result = minimal_polynomial_iter(m, cap=CAP)
        out.append((m, result.iterations if isinstance(result, MinPolyReport) else None))
    return out


def _found_within(step, k):
    # the iteration at cap k runs the first k steps of the one at cap CAP
    return step is not None and step <= k


def test_where_the_chains_prove_independence_the_iteration_finds_nothing():
    held = found = 0
    for m, step in _sample():
        reference = _reference(m, CAP)
        for k in range(1, CAP + 1):
            check = chains_prove_independence(m, k)
            assert check == reference(k), (m, k)
            assert not (check and _found_within(step, k)), (m, k, step)
            held += check
        if chains_prove_independence(m, CAP):
            assert isinstance(minimal_polynomial_iter(m, cap=CAP), NotFoundWithinCap)
        found += step is not None
    # neither side of the property is empty
    assert held > 200 and found > 20, (held, found)


@pytest.mark.parametrize("mutant", ["cut", "distinct", "turning_only"])
def test_each_mutant_accepts_a_map_whose_iteration_finds_a_polynomial(mutant):
    wrong = [
        (m, k)
        for m, step in _sample() if step is not None
        for k in range(step, CAP + 1) if _reference(m, CAP, **{mutant: False})(k)
    ]
    assert wrong


def test_a_map_that_is_not_continuous_walks_no_chain(golden_exchange, offdiag_realization, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a chain was walked")

    monkeypatch.setattr(orbit, "_pair_walk", no_walk)
    monkeypatch.setattr(orbit, "_search", no_walk)
    beta = build(FamilySpec("beta", {"beta": Fraction(5, 2)}))
    for m in (golden_exchange, offdiag_realization, beta):
        assert not m.is_continuous()
        assert chains_prove_independence(m, 64) is False


def test_a_walk_stopped_by_the_size_limit_decides_nothing(monkeypatch):
    # under a 40-bit limit the walk of 1/3 stops after 5 of 6 images, so the
    # rest of its chain is unknown, while the chain of 0 has its 6 points
    h = Fraction(830639915, 1000000007)
    m = validate_map([0, Fraction(1, 3), 1], [(3 * (Fraction(1, 6) - h), h), (Fraction(5, 4), Fraction(-1, 4))])
    assert chains_prove_independence(m, 6)
    monkeypatch.setattr(orbit, "MAX_COEFF_BITS", 40)
    walks = [orbit._pair_walk(m, t, 6, False) for t in m.partition]
    assert [(len(points) - 1, type(stop).__name__) for points, stop, _ in walks] == [
        (6, "CapReached"), (5, "SizeLimitReached"), (0, "NoneType"),
    ]
    assert not chains_prove_independence(m, 6)


# -- reports --------------------------------------------------------------

CAPPED = """map {
  partition = [0, 4/13, 9/13, 1]
  branch = { slope = 39/14, intercept = 1/7 }
  branch = { slope = -13/5, intercept = 9/5 }
  branch = { slope = 39/14, intercept = -27/14 }
}
"""

SQRT2 = """field { poly = [-2,0,1]; iso = [1,2] }
map {
  partition = [0, 1/3, 2/3, 1]
  branch = { slope = alg:[6,-3], intercept = alg:[-1,1] }
  branch = { slope = -3, intercept = 2 }
  branch = { slope = alg:[6,-3], intercept = alg:[-4,2] }
}
"""

TEXTS = {"multimodal": (SPECS / "multimodal.imapk").read_text(), "capped": CAPPED, "sqrt2": SQRT2}


def _count_transfers(monkeypatch):
    calls = []
    step = stepfun.transfer

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(stepfun, "transfer", counted)
    monkeypatch.setattr(ktheory, "transfer", counted)
    return calls


# the Scalar walks of the sqrt2 map reach the size limit slowly at the
# default cap (seconds), so it runs at cap 20 only
@pytest.mark.parametrize("name, overrides", [
    ("multimodal", {}), ("multimodal", {"cap": 20}),
    ("capped", {}), ("capped", {"cap": 20}),
    ("sqrt2", {"cap": 20}),
], ids=["multimodal", "multimodal-cap20", "capped", "capped-cap20", "sqrt2-cap20"])
@pytest.mark.parametrize("command", ["classify", "all"])
def test_a_decided_report_runs_no_transfer_and_keeps_its_bytes(name, overrides, command, monkeypatch):
    with monkeypatch.context() as patch:
        calls = _count_transfers(patch)
        decided, code = run(command, parse_spec(TEXTS[name]), overrides)
    assert calls == []
    assert decided["minimal_polynomial"] == {"status": "not_found_within_cap"}
    monkeypatch.setattr(report, "chains_prove_independence", lambda m, k: False)
    iterated, iterated_code = run(command, parse_spec(TEXTS[name]), overrides)
    assert (to_json(decided), code) == (to_json(iterated), iterated_code)


def _minpoly_status(text, overrides):
    spec = parse_spec(text)
    return Pipeline(spec, PipelineOptions.from_spec(spec, overrides)).minpoly.status


def test_the_check_reports_its_own_cap_where_the_iteration_stops_at_its_breakpoints(monkeypatch):
    # at cap 20 the iteration stops at its breakpoint cap after 11 steps;
    # the check proves the 20 steps fruitless.  The report prints the kind
    multimodal = TEXTS["multimodal"]
    assert _minpoly_status(multimodal, {}) == NotFoundWithinCap(64, 64)
    assert _minpoly_status(multimodal, {"cap": 20}) == NotFoundWithinCap(20, 20)
    monkeypatch.setattr(report, "chains_prove_independence", lambda m, k: False)
    assert _minpoly_status(multimodal, {}) == NotFoundWithinCap(64, 64)
    assert _minpoly_status(multimodal, {"cap": 20}) == NotFoundWithinCap(20, 11)


def test_over_an_algebraic_field_the_check_walks_scalars_and_agrees_with_the_iteration(monkeypatch):
    m = parse_spec(SQRT2).map
    assert m.field is not None and m.is_continuous()
    searched = []
    search = orbit._search

    def spied(*args, **kwargs):
        searched.append(args[1])
        return search(*args, **kwargs)

    def no_pair_walk(*args, **kwargs):
        raise AssertionError("an algebraic map walked on pairs")

    monkeypatch.setattr(orbit, "_search", spied)
    monkeypatch.setattr(orbit, "_pair_walk", no_pair_walk)
    for k in (1, 5, CAP):
        searched.clear()
        assert chains_prove_independence(m, k)
        assert searched == [[t] for t in m.partition]
        result = minimal_polynomial_iter(m, cap=k)
        assert isinstance(result, NotFoundWithinCap) and result.iterations == k
    # a map over the same field whose iteration finds a polynomial: the
    # check decides nothing there
    s = m.field.alpha()
    tent = build(FamilySpec("restricted_tent", {"s": s}))
    assert isinstance(minimal_polynomial_iter(tent, cap=CAP), MinPolyReport)
    assert not chains_prove_independence(tent, CAP)
