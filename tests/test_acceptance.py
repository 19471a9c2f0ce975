"""Acceptance suite: every criterion is exact; each test prints a PASS line."""

import random
from fractions import Fraction

from imapk.families import FamilySpec, build, exchange_kgroups
from imapk.interval_map import preimages
from imapk.ktheory import (
    beta_minpoly,
    beta_orbit_data,
    minimal_polynomial_iter,
    unimodal_minpoly,
)
from imapk.markov import detect_markov, graph_flags
from imapk.orbit import Closed, ProvablyInfinite, forward_orbit, idoc_check, reverify_closed, tau_orbit
from imapk.polynomials import IntPoly
from imapk.report import run
from imapk.scalar import NumberField, rational
from imapk.snf import (
    determinant,
    identity_matrix,
    kgroups_from_incidence,
    mat_mul,
    mat_sub,
    smith_normal_form,
)
from imapk.specfile import parse_spec
from imapk.stepfun import indicator, linear_comb, transfer

from conftest import A_OFFDIAG3, make_rational_map


def _kg(report, route):
    return report["kgroups"][route]


def test_criterion_1_tent_end_to_end():
    report, code = run("all", parse_spec("map { family = tent }"))
    assert code == 0
    markov = report["markov"]["data"]
    assert markov["partition"] == ["0", "1/2", "1"]
    assert markov["matrix"] == [[1, 1], [1, 1]]
    for route in ("incidence_route", "minpoly_route"):
        kg = _kg(report, route)
        assert kg["k0"] == {"torsion": [], "free_rank": 0}
        assert kg["k1"] == {"free_rank": 0}
    assert report["minimal_polynomial"]["poly"] == "t - 2"
    assert report["entropy"]["exact_s"] == "2"
    assert report["entropy"]["entropy_note"] == "ln 2"
    cls = report["classification"]
    assert cls["verdict"] == "cuntz_algebra" and cls["index"] == 2
    assert not cls["conditional"]
    triple = report["dimension_module"]["stationary_presentation"]
    assert triple["limit_note"] == "Z[1/2]"
    assert triple["automorphism_note"] == "multiplication by 2"
    print("ACCEPTANCE 1 PASS: tent map end-to-end, all values exact")


def test_criterion_2_example_matrix_and_realization():
    decomp = smith_normal_form(mat_sub(identity_matrix(3), A_OFFDIAG3))
    assert decomp.diagonal() == [1, 2, 2]
    kg = kgroups_from_incidence(A_OFFDIAG3)
    assert kg.torsion == [2, 2] and kg.free_rank == 0 and kg.k1_rank == 0
    assert graph_flags(A_OFFDIAG3).primitive
    realization = build(FamilySpec("markov_realization", {"matrix": A_OFFDIAG3}))
    fine = detect_markov(realization)
    assert fine.size == 4
    fine_kg = kgroups_from_incidence(fine.matrix)
    assert fine_kg.as_dict() == kg.as_dict()
    print("ACCEPTANCE 2 PASS: Smith form (1,2,2), K0 = Z/2+Z/2, refinement invariant")


def test_criterion_3_conjugate_quadratic():
    field = NumberField([-2, 0, 1], (1, 2))
    spec = parse_spec(
        'field { poly = [-2,0,1]; iso = [1,2] }\n'
        "map { family = restricted_tent; s = alg:[0,1] }"
    )
    m = spec.map
    iterated = minimal_polynomial_iter(m)
    assert iterated.poly == IntPoly([-2, 0, 1])
    assert iterated.iterations <= 3
    closed = unimodal_minpoly([1, -1], 1, 2)
    assert closed == iterated.poly
    report, code = run("classify", spec)
    assert code == 0
    assert report["minimal_polynomial"]["n"] == 1
    kg = _kg(report, "minpoly_route")
    assert kg["k0"] == {"torsion": [], "free_rank": 0}
    assert kg["k1"] == {"free_rank": 0}
    cls = report["classification"]
    assert cls["verdict"] == "cuntz_algebra" and cls["index"] == 2
    print("ACCEPTANCE 3 PASS: slope-sqrt(2) tent: m = t^2 - 2 both routes, O_2")


def test_criterion_4a_beta_two():
    spec = parse_spec("map { family = beta; beta = 2 }")
    report, code = run("all", spec)
    assert code == 0
    assert report["minimal_polynomial"]["poly"] == "t - 2"
    for route in ("incidence_route", "minpoly_route"):
        kg = _kg(report, route)
        assert kg["k0"] == {"torsion": [], "free_rank": 0}
        assert kg["k1"] == {"free_rank": 0}
    cls = report["classification"]
    assert cls["verdict"] == "cuntz_algebra" and cls["index"] == 2
    print("ACCEPTANCE 4a PASS: beta = 2 gives O_2 by both routes")


def test_criterion_4b_golden_beta():
    spec = parse_spec(
        "field { poly = [-1,-1,1]; iso = [1,2] }\n"
        "map { family = beta; beta = alg:[0,1] }"
    )
    m = spec.map
    phi = spec.field.alpha()
    data = detect_markov(m)
    assert data.matrix == [[1, 1], [1, 0]]
    iterated = minimal_polynomial_iter(m)
    assert iterated.poly == IntPoly([-1, -1, 1])
    (digits, k, p), _ = beta_orbit_data(m, phi)
    assert (digits, k, p) == ([1, 1, 0], 2, 3)
    assert beta_minpoly(digits, k, p) == iterated.poly
    report, code = run("all", spec)
    assert code == 0
    for route in ("incidence_route", "minpoly_route"):
        kg = _kg(report, route)
        assert kg["k0"] == {"torsion": [], "free_rank": 0}
        assert kg["k1"] == {"free_rank": 0}
    entropy = report["entropy"]
    assert entropy["method"] == "perron_markov"
    assert entropy["exact_s"] is not None
    exact = entropy["exact_s"]
    assert exact.startswith("poly:[-1,-1,1]")  # the golden ratio, exactly
    print("ACCEPTANCE 4b PASS: golden beta: A, m = t^2 - t - 1, K = (0,0), ln(phi) exact")


def test_criterion_4c_beta_three_halves():
    spec = parse_spec("map { family = beta; beta = 3/2 }")
    m = spec.map
    status = forward_orbit(m, 1).status
    assert isinstance(status, ProvablyInfinite)
    report, code = run("classify", spec)
    assert code == 0
    kg = _kg(report, "minpoly_route")
    assert kg["k0"] == {"torsion": [], "free_rank": 1}
    assert kg["k1"] == {"free_rank": 0}
    assert kg["label"] == "unconditional"
    cls = report["classification"]
    assert cls["verdict"] == "cuntz_infinity"
    assert not cls["conditional"]
    print("ACCEPTANCE 4c PASS: beta = 3/2: provably infinite orbit, O_infinity, unconditional")


def test_criterion_5_golden_exchange():
    spec = parse_spec(
        "field { poly = [-1,-1,1]; iso = [1,2] }\n"
        "map { family = interval_exchange; "
        "lengths = [alg:[2,-1], alg:[-1,1]]; permutation = [2,1] }"
    )
    m = spec.map
    result = idoc_check(m, 1000)
    assert result.kind == "holds_up_to_cap"
    kg, label = exchange_kgroups(m, result)
    assert kg.free_rank == 2 and kg.k1_rank == 1
    assert label == "conditional on disjointness beyond cap 1000"
    report, code = run("classify", spec)
    assert code == 0
    assert report["dynamics"]["essentially_injective"] == "yes"
    cls = report["classification"]
    assert cls["verdict"] == "invariants_only"
    assert cls["k0"] == {"torsion": [], "free_rank": 2}
    assert cls["k1"] == {"free_rank": 1}
    assert any("essentially injective" in a for a in cls["annotations"])
    print("ACCEPTANCE 5 PASS: golden exchange: K0 = Z^2, K1 = Z, invariants only")


def _wielandt_primitive(A):
    n = len(A)
    if n == 1:
        return A[0][0] == 1
    power = [row[:] for row in A]
    for _ in range((n - 1) ** 2 + 1):
        if all(all(x > 0 for x in row) for row in power):
            return True
        power = [
            [min(1, sum(power[i][k] * A[k][j] for k in range(n))) for j in range(n)]
            for i in range(n)
        ]
    return all(all(x > 0 for x in row) for row in power)


def test_criterion_6_route_consistency_and_certificates():
    # |m(1)| against the incidence cokernel on every Markov example above
    examples = []
    examples.append(parse_spec("map { family = tent }"))
    examples.append(parse_spec("map { family = beta; beta = 2 }"))
    examples.append(
        parse_spec(
            "field { poly = [-1,-1,1]; iso = [1,2] }\n"
            "map { family = beta; beta = alg:[0,1] }"
        )
    )
    examples.append(
        parse_spec(
            'field { poly = [-2,0,1]; iso = [1,2] }\n'
            "map { family = restricted_tent; s = alg:[0,1] }"
        )
    )
    for spec in examples:
        m = spec.map
        data = detect_markov(m)
        report = minimal_polynomial_iter(m)
        n = report.n_value
        kg = kgroups_from_incidence(data.matrix)
        if n == 0:
            assert kg.free_rank > 0
        else:
            product = 1
            for d in kg.torsion:
                product *= d
            assert kg.free_rank == 0 and product == n
    rng = random.Random(97)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        decomp = smith_normal_form(M)
        assert mat_mul(mat_mul(decomp.U, M), decomp.V) == decomp.D
        assert abs(determinant(decomp.U)) == 1
        assert abs(determinant(decomp.V)) == 1
        diag = decomp.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert (a == 0) <= (b == 0)
            if a and b:
                assert b % a == 0
    for _ in range(200):
        n = rng.randint(1, 6)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert graph_flags(A).primitive == _wielandt_primitive(A)
    print("ACCEPTANCE 6 PASS: route consistency, 200 SNF certificates, Wielandt oracle")


def test_criterion_7_transfer_oracle_suite():
    rng = random.Random(211)
    maps_checked = 0
    while maps_checked < 100:
        m = make_rational_map(rng, max_branches=5)
        f = linear_comb(
            (rng.randint(-3, 3), rng.randint(-3, 3), 1),
            (
                indicator(Fraction(0), Fraction(rng.randint(1, 20), 21)),
                indicator(Fraction(rng.randint(1, 20), 21), Fraction(1)),
                indicator(Fraction(1, 3), Fraction(2, 3)),
            ),
        )
        image = transfer(m, f)
        special = set(f.breaks) | set(m.partition)
        points_checked = 0
        guard = 0
        while points_checked < 20 and guard < 400:
            guard += 1
            x = Fraction(rng.randint(1, 1008), 1009)
            ys = preimages(m, x)
            if any(y in special for y in ys):
                continue
            assert image.value_at(x) == sum(f.value_at(y) for y in ys)
            points_checked += 1
        assert points_checked == 20
        g = linear_comb((rng.randint(-2, 2),), (indicator(Fraction(1, 5), Fraction(4, 5)),))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert transfer(m, linear_comb((a, b), (f, g))) == linear_comb(
            (a, b), (transfer(m, f), transfer(m, g))
        )
        nonneg = type(f)(f.breaks, tuple(abs(v) for v in f.values))
        assert min(transfer(m, nonneg).values) >= 0
        maps_checked += 1
    print("ACCEPTANCE 7 PASS: 100 random maps, 20 exact counting-law points each")


def test_criterion_8_orbit_certificates():
    rng = random.Random(307)
    closed_checked = 0
    for _ in range(12):
        n = rng.randint(2, 4)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        for row in A:
            if not any(row):
                row[rng.randrange(n)] = 1
        m = build(FamilySpec("markov_realization", {"matrix": A}))
        x = Fraction(rng.randint(0, 3 * n), 3 * n)
        points, status = tau_orbit(m, x, 4000)
        assert isinstance(status, Closed)
        assert reverify_closed(m, points, status)
        closed_checked += 1
    assert closed_checked == 12
    from math import gcd

    betas = set()
    while len(betas) < 20:
        q = rng.randint(2, 12)
        p = rng.randint(q + 1, 3 * q - 1)
        if gcd(p, q) == 1 and Fraction(p, q) < 3:
            betas.add(Fraction(p, q))
    for beta in sorted(betas):
        m = build(FamilySpec("beta", {"beta": beta}))
        result = forward_orbit(m, 1)
        assert isinstance(result.status, ProvablyInfinite), beta
        points, _ = tau_orbit(m, rational(1), 12)
        denominators = [pt.as_fraction().denominator for pt in points[:10]]
        assert all(a < b for a, b in zip(denominators, denominators[1:]))
    print("ACCEPTANCE 8 PASS: closed orbits re-verified; 20 denominator certificates")
