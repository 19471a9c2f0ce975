"""Pipeline-level behavior: verdict routing, soundness gates, invariants."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_rational_map
from imapk import ktheory, stepfun
from imapk.entropy import perron_enclosure
from imapk.errors import NotSurjective
from imapk.interval_map import eval_multivalued, validate_map
from imapk.ktheory import minimal_polynomial_iter, unimodal_minpoly, unimodal_orbit_data
from imapk.markov import MarkovData, detect_markov
from imapk.orbit import critical_closure, forward_orbit
from imapk.report import run
from imapk.scalar import Scalar, as_scalar
from imapk.snf import amalgamate, kgroups_from_incidence
from imapk.specfile import parse_spec
from imapk.stepfun import apply_int_poly, indicator, transfer

ROOT = Path(__file__).resolve().parents[1]


def test_cuntz_krieger_verdict_for_realization():
    spec = parse_spec(
        "map { family = markov_realization; matrix = [[0,1,1],[1,0,1],[1,1,0]] }"
    )
    report, code = run("classify", spec)
    assert code == 0
    cls = report["classification"]
    assert cls["verdict"] == "cuntz_krieger"
    assert cls["k0"] == {"torsion": [2, 2], "free_rank": 0}
    assert cls["k1"] == {"free_rank": 0}
    assert report["markov"]["separation"]["status"] == "separates"


def test_realization_spec_has_no_consistency_failure():
    # m = t - 2 generates only part of K0 = Z/2 + Z/2; with cyclicity unknown
    # the check is that |m(1)| = 1 divides the cokernel order 4
    text = (Path(__file__).resolve().parents[1] / "specs" / "realization.imapk").read_text()
    report, code = run("classify", parse_spec(text))
    assert code == 0
    assert report["minimal_polynomial"]["cyclicity"] == "unknown"
    assert all(c["status"] != "FAIL" for c in report["consistency"])
    checks = {c["check"]: c["status"] for c in report["consistency"]}
    assert checks["|m(1)| divides the order of the incidence cokernel"] == "pass"


def test_identity_map_flags_and_kgroups():
    spec = parse_spec("map { partition = [0, 1]; branch = {slope=1, intercept=0} }")
    report, code = run("all", spec)
    assert code == 0
    d = report["dynamics"]
    assert d["surjective"] == "yes"
    assert d["essentially_injective"] == "yes"
    assert d["transitive"] == "no"
    assert d["exact"] == "no"
    assert report["markov"]["data"]["matrix"] == [[1]]
    kg = report["kgroups"]["incidence_route"]
    assert kg["k0"] == {"torsion": [], "free_rank": 1}
    assert kg["k1"] == {"free_rank": 1}
    assert report["classification"]["verdict"] == "invariants_only"


@pytest.mark.parametrize(
    "text",
    [
        "map { partition = [0, 1]; branch = {slope=1, intercept=0} }",
        "map { family = interval_exchange; lengths = [1]; permutation = [1] }",
    ],
    ids=["explicit", "one_interval_exchange"],
)
def test_identity_map_claims_no_minimality(text):
    # the identity has no interior partition point, so the orbit-disjointness
    # check has nothing to check and proves nothing
    for command in ("classify", "all"):
        report, _ = run(command, parse_spec(text))
        assert report["dynamics"]["transitive"] == "no"
        assert not [c for c in report["certificates"] if c["property"] == "transitive" and c["value"]]


def test_rotation_realization_not_transitive():
    spec = parse_spec("map { family = markov_realization; matrix = [[0,1],[1,0]] }")
    report, _ = run("classify", spec)
    assert report["dynamics"]["transitive"] == "no"
    assert report["markov"]["separation"]["status"] == "fails"
    assert report["classification"]["verdict"] == "invariants_only"


def test_no_certificate_blocks_identification():
    # slope below sqrt(2): no family certificate, so no Cuntz identification
    spec = parse_spec("map { family = restricted_tent; s = 13/10 }")
    report, code = run("classify", spec)
    assert report["dynamics"]["transitive"] == "unknown"
    cls = report["classification"]
    assert cls["verdict"] == "invariants_only"
    # the invariants themselves are still reported through the orbit route
    kg = report["kgroups"]["minpoly_route"]
    assert kg["k0"] == {"torsion": [], "free_rank": 1}
    assert kg["label"] == "unconditional"


def test_conditional_verdict_for_capped_unimodal():
    # slope 1 + sqrt(2)/2 is above sqrt(2) (exactness certified) but the orbit
    # of 0 reaches the cap without closing and without a valuation certificate
    spec = parse_spec(
        "field { poly = [-2,0,1]; iso = [1,2] }\n"
        'map { family = restricted_tent; s = "poly:[-2,0,1]; iso:[1,2]; elem:[1,1/2]" }\n'
        "options { cap = 300 }"
    )
    report, code = run("classify", spec)
    assert code == 0
    cls = report["classification"]
    assert cls["verdict"] == "cuntz_infinity"
    assert cls["conditional"]
    kg = report["kgroups"]["minpoly_route"]
    assert kg["label"].startswith("conditional")


def test_markov_quartic_tent_found_by_closure():
    # slope 2^(1/4): the critical orbit closes with preperiod 3 and period 2,
    # |m(1)| = 0, and the map is identified through its incidence matrix
    spec = parse_spec(
        "field { poly = [-2,0,0,0,1]; iso = [1,2] }\n"
        "map { family = restricted_tent; s = alg:[0,1] }"
    )
    data, _ = unimodal_orbit_data(spec.map, 300)
    _, k, p = data
    assert (k, p) == (3, 5)
    report, code = run("classify", spec)
    assert code == 0
    assert report["minimal_polynomial"]["n"] == 0
    assert report["classification"]["verdict"] == "cuntz_krieger"
    checks = {c["check"]: c["status"] for c in report["consistency"]}
    assert checks["closed-form vs iterated minimal polynomial"] == "pass"
    assert checks["|m(1)| equals the torsion of the incidence cokernel"] == "pass"


def test_critical_closure_is_invariant(tent, golden_beta, offdiag_realization):
    for m in (tent, golden_beta, offdiag_realization):
        cc = critical_closure(m)
        assert cc.complete
        pts = set(cc.points)
        for p in cc.points:
            for v in eval_multivalued(m, p):
                assert v in pts


def flipped(m):
    """The conjugate of m by x -> 1 - x: the partition 1 - p reversed, and
    the branch y = s*x + c of each interval becomes y = s*x + (1 - s - c)."""
    partition = [1 - p for p in reversed(m.partition)]
    branches = [(b.slope, 1 - b.slope - b.intercept) for b in reversed(m.branches)]
    return validate_map(partition, branches)


def _flip_invariants(m, cap):
    result = detect_markov(m, cap)
    if isinstance(result, MarkovData):
        A = result.matrix
        out = ["markov", kgroups_from_incidence(A).as_dict(), perron_enclosure(A)]
    else:
        out = [result.kind]
    try:
        out.append(minimal_polynomial_iter(m))
    except NotSurjective:
        out.append("not surjective")
    return out


def test_conjugacy_by_the_flip_keeps_the_closure_kgroups_entropy_and_minpoly():
    # the flip maps the critical closure of m onto that of flipped(m) and
    # commutes with the transfer operator, and it fixes the constant 1
    maps = [parse_spec(p.read_text()).map for p in sorted((ROOT / "specs").glob("*.imapk"))]
    rng = random.Random(5)
    maps += [make_rational_map(rng) for _ in range(60)]
    kinds = set()
    for i, m in enumerate(maps):
        flip = flipped(m)
        assert flipped(flip) == m
        got = _flip_invariants(m, 2000)
        assert _flip_invariants(flip, 2000) == got, i
        kinds.add(got[0])
    assert kinds == {"markov", "provably_infinite", "cap_reached", "size_limit_reached"}


def _realization_matrix(rng, n):
    """A random n x n 0/1 matrix of density about 0.3 plus the n-cycle, so
    no row and no column is zero."""
    A = [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        A[i][(i + 1) % n] = 1
    return A


@pytest.mark.parametrize("n, seed", [(n, n) for n in range(5, 13)] + [(20, 20)])
def test_markov_refinement_keeps_the_kgroups_of_a_random_realization(n, seed):
    # the canonical partition refines {j/n}, over which the matrix is A itself;
    # the kernels merge equal states, but the report prints the N x N matrix
    A = _realization_matrix(random.Random(seed), n)
    spec = parse_spec("map { family = markov_realization; matrix = %s }" % A)
    partition = [as_scalar(Fraction(j, n)) for j in range(n + 1)]
    report, code = run("ktheory", spec, {"partition": partition})
    assert code == 0
    data, coarse = report["markov"]["data"], report["markov"]["user_partition"]
    N = len(data["partition"]) - 1
    assert len(data["matrix"]) == N > n and all(len(row) == N for row in data["matrix"])
    assert len(amalgamate(data["matrix"])[0]) < N
    assert coarse["matrix"] == A
    expected = kgroups_from_incidence(A).as_dict()
    assert report["kgroups"]["incidence_route"] == coarse["kgroups"] == expected
    checks = {c["check"]: c["status"] for c in report["consistency"]}
    assert checks["kgroups invariant under Markov partition refinement"] == "pass"


def test_the_iteration_hashes_no_scalar_once_the_breakpoints_stop_growing(monkeypatch):
    # the n = 20 realization above: its iteration takes 20 steps, which meet
    # 376 jumps at 19 distinct breakpoints.  In the steps and the reductions,
    # a Scalar is hashed or compared only where a table places a point for
    # the first time (the iteration's table, then the re-check's), so the
    # calls stay within a few per distinct breakpoint, fewer than the jumps
    # met.  An earlier run builds the map's index of partition points.
    A = _realization_matrix(random.Random(20), 20)
    m = parse_spec("map { family = markov_realization; matrix = %s }" % A).map
    report = minimal_polynomial_iter(m)
    f, points, met = indicator(0, 1), set(), 0
    for _ in range(report.iterations):
        f = transfer(m, f)
        points.update(f.jumps)
        met += len(f.jumps)
    assert (report.iterations, len(points), met) == (20, 19, 376)
    calls, depth = Counter(), []

    def counted(name, method):
        def each_call(*args):
            if depth:
                calls[name] += 1
            return method(*args)

        return each_call

    def looped(fn):
        def each_call(*args, **kwargs):
            depth.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                depth.pop()

        return each_call

    for name in ("__hash__", "__eq__", "compare"):
        monkeypatch.setattr(Scalar, name, counted(name, Scalar.__dict__[name]))
    monkeypatch.setattr(stepfun, "transfer", looped(stepfun.transfer))
    monkeypatch.setattr(ktheory, "transfer", looped(ktheory.transfer))
    monkeypatch.setattr(ktheory, "_reduce", looped(ktheory._reduce))
    assert minimal_polynomial_iter(m).poly == report.poly
    assert sum(calls.values()) <= 6 * len(points) < met


def test_orbit_determinism(golden_beta):
    first = forward_orbit(golden_beta, 1)
    second = forward_orbit(golden_beta, 1)
    assert first.as_dict() == second.as_dict()


def test_closed_form_polynomials_annihilate(tent, golden_field):
    from imapk.families import FamilySpec, build

    phi = golden_field.alpha()
    for m in (tent, build(FamilySpec("restricted_tent", {"s": phi}))):
        data, _ = unimodal_orbit_data(m)
        poly = unimodal_minpoly(*data)
        assert apply_int_poly(m, poly, indicator(0, 1)).is_zero


def test_nonsurjective_markov_restricts_to_eventual_range():
    # tent-like map with peak 1/2 is Markov on {0, 1/2, 1} but not surjective
    spec = parse_spec(
        "map { partition = [0, 1/2, 1]; "
        "branch = {slope=1, intercept=0}; branch = {slope=-1, intercept=1} }"
    )
    report, code = run("ktheory", spec)
    assert code == 0
    assert report["dynamics"]["surjective"] == "no"
    assert report["dynamics"]["eventually_surjective"] == "yes"
    kg = report["kgroups"]["incidence_route"]
    assert kg is not None


def test_orbit_command_sections(tent):
    spec = parse_spec("map { family = tent }")
    report, code = run("orbit", spec)
    assert code == 0
    assert report["orbits"]["critical_closure"]["complete"]
    seeds = [o["seed"] for o in report["orbits"]["partition_orbits"]]
    assert seeds == ["0", "1/2", "1"]
    assert "kgroups" not in report
