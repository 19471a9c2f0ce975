from fractions import Fraction
from pathlib import Path

import pytest

from imapk import ktheory
from imapk.errors import (
    CyclicityNotEstablished,
    HypothesisViolatedWithinCap,
    InconsistentCaseData,
    NotSurjective,
    WrongFamily,
)
from imapk.families import FamilySpec, build
from imapk.interval_map import validate_map
from imapk.ktheory import (
    MinPolyReport,
    NotFoundWithinCap,
    beta_minpoly,
    beta_orbit_data,
    kgroups_from_minpoly,
    minimal_polynomial_iter,
    module_generators,
    nonperiodic_kgroups,
    recognize_unimodal,
    unimodal_minpoly,
    unimodal_orbit_data,
)
from imapk.orbit import CapReached, Closed, ProvablyInfinite, SizeLimitReached, forward_orbit
from imapk.polynomials import IntPoly
from imapk.report import run
from imapk.scalar import NumberField, rational
from imapk.specfile import parse_spec

SPECS = Path(__file__).resolve().parents[1] / "specs"


def test_iteration_tent(tent):
    report = minimal_polynomial_iter(tent)
    assert report.poly == IntPoly([-2, 1])
    assert report.iterations == 1


def test_iteration_restricted_tent_sqrt2(sqrt2_field):
    s = sqrt2_field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": s}))
    report = minimal_polynomial_iter(m)
    assert report.poly == IntPoly([-2, 0, 1])
    assert report.iterations <= 3


def test_iteration_golden_beta(golden_beta):
    report = minimal_polynomial_iter(golden_beta)
    assert report.poly == IntPoly([-1, -1, 1])


def test_iteration_requires_surjective():
    m = validate_map([0, Fraction(1, 2), 1], [(1, 0), (-1, 1)])
    with pytest.raises(NotSurjective):
        minimal_polynomial_iter(m)


def _shipped_multimodal():
    return parse_spec((SPECS / "multimodal.imapk").read_text()).map


def _spy_on_reduce(monkeypatch):
    """The steps of the iteration ("step") and the index of each iterate it
    reduces against its echelon basis, in order."""
    events = []
    step, reduce = ktheory.transfer, ktheory._reduce

    def each_step(*args, **kwargs):
        events.append("step")
        return step(*args, **kwargs)

    def each_reduction(rows, f, index):
        events.append(index)
        return reduce(rows, f, index)

    monkeypatch.setattr(ktheory, "transfer", each_step)
    monkeypatch.setattr(ktheory, "_reduce", each_reduction)
    return events


def test_new_breakpoints_skip_the_dependence_solve(monkeypatch):
    # every iterate of the shipped multimodal map has a breakpoint the earlier
    # ones lack, so no step can be a dependence and none runs an elimination
    events = _spy_on_reduce(monkeypatch)
    result = minimal_polynomial_iter(_shipped_multimodal())
    assert isinstance(result, NotFoundWithinCap)
    assert (result.cap, result.iterations) == (64, 64)
    assert events == ["step"] * 64


def test_known_breakpoints_reach_the_dependence_solve(tent, monkeypatch):
    # the first step brings no new breakpoint: v_0 forms the basis and v_1 is
    # reduced against it
    events = _spy_on_reduce(monkeypatch)
    assert minimal_polynomial_iter(tent).poly == IntPoly([-2, 1])
    assert events == ["step", 0, 1]


def test_later_iterates_are_reduced_once_each(monkeypatch):
    # x -> 2x + 1/3 on [0, 1/3] and x -> x - 1/3 on [1/3, 1]: the second
    # iterate brings no new breakpoint but is independent, so the basis is
    # built then, and the third iterate is reduced once, to the dependence
    m = validate_map([0, Fraction(1, 3), 1], [(2, Fraction(1, 3)), (1, Fraction(-1, 3))])
    events = _spy_on_reduce(monkeypatch)
    report = minimal_polynomial_iter(m)
    assert report.poly == IntPoly([-1, -1, 0, 1])
    assert events == ["step", "step", 0, 1, 2, "step", 3]


@pytest.mark.parametrize(
    "caps, expected",
    [
        ({}, (64, 64)),
        ({"cap": 10}, (10, 10)),
        ({"breakpoint_cap": 20}, (20, 11)),
        ({"breakpoint_cap": 100}, (100, 51)),
    ],
)
def test_caps_stop_the_multimodal_iteration_at_the_same_step(caps, expected):
    result = minimal_polynomial_iter(_shipped_multimodal(), **caps)
    assert isinstance(result, NotFoundWithinCap)
    assert (result.cap, result.iterations) == expected


def test_unimodal_closed_forms_fixed(tent):
    data, status = unimodal_orbit_data(tent)
    signs, k, p = data
    assert (k, p) == (0, 1)
    assert unimodal_minpoly(signs, k, p) == IntPoly([-2, 1])


def test_unimodal_closed_form_case5(sqrt2_field):
    s = sqrt2_field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": s}))
    data, _ = unimodal_orbit_data(m)
    signs, k, p = data
    assert (k, p) == (1, 2)
    assert signs == [1, -1]
    assert unimodal_minpoly(signs, k, p) == IntPoly([-2, 0, 1])
    # direct formula check with the stated data
    assert unimodal_minpoly([1, -1], 1, 2) == IntPoly([-2, 0, 1])


def test_unimodal_closed_form_periodic3(golden_field):
    # slope phi: the critical value orbit is 0 -> c -> 1 -> 0, period 3
    phi = golden_field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": phi}))
    data, _ = unimodal_orbit_data(m)
    signs, k, p = data
    assert (k, p) == (0, 3)
    closed = unimodal_minpoly(signs, k, p)
    assert closed == IntPoly([-1, -1, 1])
    assert closed == minimal_polynomial_iter(m).poly


def test_unimodal_closed_form_case4_cubic():
    # slope s with s^3 = 2s + 2: orbit of 0 has preperiod 2 onto a fixed point
    field = NumberField([-2, -2, 0, 1], (Fraction(17, 10), Fraction(9, 5)))
    s = field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": s}))
    data, _ = unimodal_orbit_data(m)
    signs, k, p = data
    assert (k, p) == (2, 3)
    closed = unimodal_minpoly(signs, k, p)
    iterated = minimal_polynomial_iter(m).poly
    assert closed == iterated == IntPoly([-2, -2, 0, 1])


def test_unimodal_closed_form_period2():
    assert unimodal_minpoly([1, -1], 0, 2) == IntPoly([-1, 1])


def test_unimodal_case_validation():
    # data that no orbit of 0 gives
    for signs, k, p, message in [
        ([1, 2], 1, 2, "signs must be"),
        ([1, -1], 2, 2, "need 0 <= k < p"),
        ([1, -1], -1, 2, "need 0 <= k < p"),
        ([1, -1], 1, 3, "too short"),
        ([-1, -1], 1, 2, "first sign is \\+1"),
        ([1, 1], 0, 2, "last sign is -1"),
        ([1, -1, 1], 0, 3, "last sign is -1"),
    ]:
        with pytest.raises(InconsistentCaseData, match=message):
            unimodal_minpoly(signs, k, p)


def test_beta_closed_forms(golden_beta, phi):
    data, _ = beta_orbit_data(golden_beta, phi)
    digits, k, p = data
    assert (digits, k, p) == ([1, 1, 0], 2, 3)
    assert beta_minpoly(digits, k, p) == IntPoly([-1, -1, 1])

    m2 = build(FamilySpec("beta", {"beta": 2}))
    data2, _ = beta_orbit_data(m2, rational(2))
    digits2, k2, p2 = data2
    assert (digits2, k2, p2) == ([2], 0, 1)
    assert beta_minpoly(digits2, k2, p2) == IntPoly([-2, 1])


def test_beta_generic_case(phi):
    beta = phi * phi
    m = build(FamilySpec("beta", {"beta": beta}))
    data, _ = beta_orbit_data(m, beta)
    digits, k, p = data
    assert (digits, k, p) == ([2, 1], 1, 2)
    closed = beta_minpoly(digits, k, p)
    assert closed == IntPoly([1, -3, 1])
    assert closed == minimal_polynomial_iter(m).poly


def test_beta_integer_torsion():
    # integer beta: K0 has torsion beta - 1
    for n in (2, 3, 4):
        m = build(FamilySpec("beta", {"beta": n}))
        report = minimal_polynomial_iter(m)
        report.cyclicity = "certified:beta"
        kg, torsion = kgroups_from_minpoly(report)
        assert torsion == n - 1
        assert kg.torsion == ([n - 1] if n >= 3 else [])


def test_beta_case_validation():
    # data that no orbit of 1 gives
    for digits, k, p, message in [
        ([1, 1], 2, 2, "need 0 <= k < p"),
        ([1, 1], -1, 2, "need 0 <= k < p"),
        ([1, 1], 2, 3, "too short"),
        ([1, 1], 0, 2, "k=0 has p=1"),
        ([1, 1, 0], 0, 3, "k=0 has p=1"),
    ]:
        with pytest.raises(InconsistentCaseData, match=message):
            beta_minpoly(digits, k, p)


def test_kgroups_from_minpoly():
    r = MinPolyReport(IntPoly([-2, 0, 1]), "iteration", "certified:unimodal")
    kg, n = kgroups_from_minpoly(r)
    assert n == 1 and kg.torsion == [] and kg.free_rank == 0
    r2 = MinPolyReport(IntPoly([-1, 1]), "iteration", "asserted")
    kg2, n2 = kgroups_from_minpoly(r2)
    assert n2 == 0 and kg2.free_rank == 1 and kg2.k1_rank == 1
    r3 = MinPolyReport(IntPoly([-2, 1]), "iteration", "unknown")
    with pytest.raises(CyclicityNotEstablished):
        kgroups_from_minpoly(r3)


def test_nonperiodic_kgroups(beta_three_halves):
    status = forward_orbit(beta_three_halves, 1).status
    assert isinstance(status, ProvablyInfinite)
    route = nonperiodic_kgroups(status)
    kg, label = route
    assert label == "unconditional" and not route.conditional
    assert kg.free_rank == 1 and kg.k1_rank == 0
    route2 = nonperiodic_kgroups(CapReached(100))
    assert route2.label == "conditional on non-eventual-periodicity (cap 100)"
    assert route2.conditional
    _, label3 = nonperiodic_kgroups(SizeLimitReached(4096))
    assert label3 == "conditional on non-eventual-periodicity (the 4096-bit size limit)"
    with pytest.raises(HypothesisViolatedWithinCap):
        nonperiodic_kgroups(Closed(0, 1))


def test_recognize_unimodal(tent, golden_beta):
    assert recognize_unimodal(tent) is not None
    assert recognize_unimodal(golden_beta) is None
    # called without the turning point, the orbit data recognizes the map
    with pytest.raises(WrongFamily, match="not surjective unimodal"):
        unimodal_orbit_data(golden_beta)


def test_a_report_recognizes_the_unimodal_family_once(monkeypatch):
    recognized = []
    recognize = ktheory.recognize_unimodal

    def counted(m):
        recognized.append(m)
        return recognize(m)

    monkeypatch.setattr(ktheory, "recognize_unimodal", counted)
    spec = parse_spec((SPECS / "tent.imapk").read_text())
    report, _ = run("all", spec)
    assert report["minimal_polynomial"]["method"] == "unimodal_closed_form"
    assert recognized == [spec.map]


def test_module_generators_tent(tent):
    gens = module_generators(tent)
    assert [(a.text(), b.text()) for a, b in gens] == [("0", "1/2"), ("1/2", "1")]


def test_module_generators_golden_beta(golden_beta, phi):
    gens = module_generators(golden_beta)
    texts = [(a.text(), b.text()) for a, b in gens]
    inv = (phi - 1).text()
    assert texts == [("0", inv), (inv, "1"), ("0", "1")]


def test_module_generators_continuous_three_branch():
    m = validate_map(
        [0, Fraction(1, 3), Fraction(2, 3), 1],
        [(3, 0), (-3, 2), (3, -2)],
    )
    gens = module_generators(m)
    assert len(gens) == 3
