from fractions import Fraction
from pathlib import Path

import pytest

from imapk import ktheory
from imapk.errors import (
    CyclicityNotEstablished,
    HypothesisViolatedWithinCap,
    InconsistentCaseData,
    NotSurjective,
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


def _spy_on_solve(monkeypatch):
    calls = []
    solve = ktheory._solve_dependence

    def spy(basis, target, known=None):
        calls.append(len(basis))
        return solve(basis, target, known)

    monkeypatch.setattr(ktheory, "_solve_dependence", spy)
    return calls


def test_new_breakpoints_skip_the_dependence_solve(monkeypatch):
    # every iterate of the shipped multimodal map has a breakpoint the earlier
    # ones lack, so no step can be a dependence and none reaches the solve
    calls = _spy_on_solve(monkeypatch)
    result = minimal_polynomial_iter(_shipped_multimodal())
    assert isinstance(result, NotFoundWithinCap)
    assert (result.cap, result.iterations) == (64, 64)
    assert calls == []


def test_known_breakpoints_reach_the_dependence_solve(tent, monkeypatch):
    calls = _spy_on_solve(monkeypatch)
    assert minimal_polynomial_iter(tent).poly == IntPoly([-2, 1])
    assert calls == [1]


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
    signs, k, p, case = data
    assert (k, p, case) == (0, 1, "fixed")
    assert unimodal_minpoly(signs, k, p, case) == IntPoly([-2, 1])


def test_unimodal_closed_form_case5(sqrt2_field):
    s = sqrt2_field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": s}))
    data, _ = unimodal_orbit_data(m)
    signs, k, p, case = data
    assert (k, p, case) == (1, 2, "eventually_periodic_k=1")
    assert signs == [1, -1]
    assert unimodal_minpoly(signs, k, p, case) == IntPoly([-2, 0, 1])
    # direct formula check with the stated data
    assert unimodal_minpoly([1, -1], 1, 2, "eventually_periodic_k=1") == IntPoly([-2, 0, 1])


def test_unimodal_closed_form_periodic3(golden_field):
    # slope phi: the critical value orbit is 0 -> c -> 1 -> 0, period 3
    phi = golden_field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": phi}))
    data, _ = unimodal_orbit_data(m)
    signs, k, p, case = data
    assert (k, p, case) == (0, 3, "periodic_p>=3")
    closed = unimodal_minpoly(signs, k, p, case)
    assert closed == IntPoly([-1, -1, 1])
    assert closed == minimal_polynomial_iter(m).poly


def test_unimodal_closed_form_case4_cubic():
    # slope s with s^3 = 2s + 2: orbit of 0 has preperiod 2 onto a fixed point
    field = NumberField([-2, -2, 0, 1], (Fraction(17, 10), Fraction(9, 5)))
    s = field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": s}))
    data, _ = unimodal_orbit_data(m)
    signs, k, p, case = data
    assert (k, p, case) == (2, 3, "eventually_periodic_k>1")
    closed = unimodal_minpoly(signs, k, p, case)
    iterated = minimal_polynomial_iter(m).poly
    assert closed == iterated == IntPoly([-2, -2, 0, 1])


def test_unimodal_closed_form_period2():
    assert unimodal_minpoly([1, -1], 0, 2, "periodic_2") == IntPoly([-1, 1])


def test_unimodal_case_validation():
    with pytest.raises(InconsistentCaseData):
        unimodal_minpoly([1, 1], 0, 2, "periodic_p>=3")
    with pytest.raises(InconsistentCaseData):
        unimodal_minpoly([1], 1, 3, "eventually_periodic_k>1")
    with pytest.raises(InconsistentCaseData):
        unimodal_minpoly([2, 1], 0, 2, "periodic_2")


def test_beta_closed_forms(golden_beta, phi):
    data, _ = beta_orbit_data(golden_beta, phi)
    digits, k, p, case = data
    assert (digits, k, p, case) == ([1, 1], 2, 3, "hits_zero")
    assert beta_minpoly(digits, k, p, case) == IntPoly([-1, -1, 1])

    m2 = build(FamilySpec("beta", {"beta": 2}))
    data2, _ = beta_orbit_data(m2, rational(2))
    digits2, k2, p2, case2 = data2
    assert (digits2, k2, p2, case2) == ([2], 0, 1, "tau1_fixed")
    assert beta_minpoly(digits2, k2, p2, case2) == IntPoly([-2, 1])


def test_beta_generic_case(phi):
    beta = phi * phi
    m = build(FamilySpec("beta", {"beta": beta}))
    data, _ = beta_orbit_data(m, beta)
    digits, k, p, case = data
    assert (digits, k, p, case) == ([2, 1], 1, 2, "generic")
    closed = beta_minpoly(digits, k, p, case)
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
    with pytest.raises(InconsistentCaseData):
        beta_minpoly([1], 0, 2, "tau1_fixed")
    with pytest.raises(InconsistentCaseData):
        beta_minpoly([1, 1], 0, 3, "hits_zero")


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


def test_module_generators_tent(tent):
    gens = module_generators(tent)
    assert [(a.text(), b.text()) for a, b in gens] == [("0", "1/2"), ("1/2", "1")]


def test_module_generators_golden_beta(golden_beta, phi):
    gens = module_generators(golden_beta, endpoint_index=1)
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
