import random
from fractions import Fraction

import pytest

from imapk.errors import CertificateFailure, InvalidMarkovPartition, NotSquare, NotZeroOne
from imapk.families import FamilySpec, build
from imapk.interval_map import MINUS, PLUS, CutPoint, validate_map
from imapk.markov import (
    MarkovData,
    _verify_row_images,
    detect_markov,
    graph_flags,
    itinerary,
    markov_for_partition,
    separation_check,
)
from imapk.orbit import ProvablyInfinite
from imapk.scalar import rational
from imapk.snf import kgroups_from_incidence

from conftest import A_OFFDIAG3


def test_detect_tent(tent):
    data = detect_markov(tent)
    assert isinstance(data, MarkovData)
    assert [p.text() for p in data.partition] == ["0", "1/2", "1"]
    assert data.matrix == [[1, 1], [1, 1]]


def test_detect_golden_beta(golden_beta):
    data = detect_markov(golden_beta)
    assert data.matrix == [[1, 1], [1, 0]]


def test_detect_beta_three_halves(beta_three_halves):
    result = detect_markov(beta_three_halves)
    assert isinstance(result, ProvablyInfinite)


def test_detect_realization(offdiag_realization):
    data = detect_markov(offdiag_realization)
    assert data.size == 4
    assert kgroups_from_incidence(data.matrix).as_dict() == kgroups_from_incidence(
        A_OFFDIAG3
    ).as_dict()


def test_graph_flags_full_shift():
    flags = graph_flags([[1, 1], [1, 1]])
    assert flags.irreducible and flags.primitive and flags.condition_L
    assert flags.period == 1
    assert flags.eventual_range == [0, 1]
    assert not flags.permutation


def test_graph_flags_swap():
    flags = graph_flags([[0, 1], [1, 0]])
    assert flags.irreducible and not flags.primitive
    assert flags.permutation
    assert flags.period == 2
    assert not flags.condition_L


def test_graph_flags_example_matrix():
    flags = graph_flags(A_OFFDIAG3)
    assert flags.irreducible and flags.primitive and flags.condition_L


def test_graph_flags_validation():
    with pytest.raises(NotSquare):
        graph_flags([[1, 0]])
    with pytest.raises(NotZeroOne):
        graph_flags([[2, 0], [0, 1]])


def test_graph_flags_reducible_periods():
    A = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ]
    flags = graph_flags(A)
    assert not flags.irreducible
    assert flags.period == 0
    assert sorted(flags.component_periods) == [0, 1, 2]


def _wielandt_primitive(A):
    n = len(A)
    if n == 1:
        return A[0][0] == 1
    power = [row[:] for row in A]
    bound = (n - 1) ** 2 + 1
    for _ in range(bound):
        if all(all(x > 0 for x in row) for row in power):
            return True
        power = [
            [sum(power[i][k] * A[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        power = [[min(x, 1) for x in row] for row in power]
    return all(all(x > 0 for x in row) for row in power)


def test_primitivity_matches_wielandt_oracle():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert graph_flags(A).primitive == _wielandt_primitive(A)


def test_itinerary_tent(tent):
    data = detect_markov(tent)
    assert itinerary(tent, data, CutPoint(rational(0), PLUS), 3).symbols == [1, 1, 1]
    assert itinerary(tent, data, CutPoint(rational(1, 2), MINUS), 3).symbols == [1, 2, 1]


def test_itinerary_shift_consistency(tent, golden_beta):
    from imapk.markov import step_cut

    for m in (tent, golden_beta):
        data = detect_markov(m)
        for start in (CutPoint(rational(0), PLUS), CutPoint(rational(1), MINUS)):
            first = itinerary(m, data, start, 4).symbols
            shifted = itinerary(m, data, step_cut(m, start), 4).symbols
            assert first[1:] == shifted[:3]


def test_separation(tent, offdiag_realization):
    for m in (tent, offdiag_realization):
        data = detect_markov(m)
        rep = separation_check(m, data)
        assert rep.status == "separates"
        assert rep.cuntz_krieger


def test_separation_fails_for_rotation():
    from imapk.families import FamilySpec, build

    m = build(
        FamilySpec(
            "interval_exchange",
            {"lengths": [Fraction(1, 2), Fraction(1, 2)], "permutation": [2, 1]},
        )
    )
    data = detect_markov(m)
    assert data.matrix == [[0, 1], [1, 0]]
    rep = separation_check(m, data)
    assert rep.status == "fails"


def test_user_partition_accepted(offdiag_realization):
    coarse = markov_for_partition(
        offdiag_realization, [0, Fraction(1, 3), Fraction(2, 3), 1]
    )
    assert coarse.matrix == A_OFFDIAG3
    fine = detect_markov(offdiag_realization)
    assert (
        kgroups_from_incidence(coarse.matrix).as_dict()
        == kgroups_from_incidence(fine.matrix).as_dict()
    )


def test_user_partition_rejected(tent):
    with pytest.raises(InvalidMarkovPartition):
        markov_for_partition(tent, [0, Fraction(1, 3), 1])


def test_a_certified_infinite_closure_is_named_as_such():
    # beta = 3/2: the growth certificate ends the closure search; no cap is reached
    with pytest.raises(InvalidMarkovPartition) as info:
        markov_for_partition(build(FamilySpec("beta", {"beta": Fraction(3, 2)})), [0, Fraction(2, 3), 1])
    assert str(info.value) == "critical closure is provably infinite (denominator-growth certificate)"


def test_row_image_law(tent, golden_beta, offdiag_realization):
    from imapk.interval_map import merge_closed_intervals

    for m in (tent, golden_beta, offdiag_realization):
        data = detect_markov(m)
        for j in range(1, data.size + 1):
            lo, hi = data.interval(j)
            b = m.branches[data.branch_for_interval[j - 1]]
            u, v = b(lo), b(hi)
            image = (u, v) if u <= v else (v, u)
            selected = [
                (data.partition[k], data.partition[k + 1])
                for k in range(data.size)
                if data.matrix[j - 1][k]
            ]
            assert merge_closed_intervals(selected) == [image]


def test_tampered_row_image_raises(tent):
    data = detect_markov(tent)
    data.matrix[0][0] = 0
    # both intervals of the tent map onto [0, 1]
    with pytest.raises(CertificateFailure):
        _verify_row_images(data, [[(rational(0), rational(1))]] * 2)


def test_tampered_row_image_raises_on_a_user_partition(offdiag_realization):
    third = rational(1, 3)
    data = markov_for_partition(offdiag_realization, [0, Fraction(1, 3), Fraction(2, 3), 1])
    assert not data.canonical and data.matrix == A_OFFDIAG3
    # the rows of A_OFFDIAG3: each interval covers the two others
    images = [[(third, rational(1))], [(rational(0), third), (2 * third, rational(1))],
              [(rational(0), 2 * third)]]
    _verify_row_images(data, images)
    data.matrix[1][2] = 0
    with pytest.raises(CertificateFailure, match="row-image law violated for interval 2"):
        _verify_row_images(data, images)


def _doubling():
    return validate_map([0, Fraction(1, 2), 1], [(2, 0), (2, -1)])


def _period_two_kinks():
    """Continuous, decreasing and onto, with the kinks 1/4 <-> 1/2 a 2-cycle."""
    q = Fraction(1, 4)
    return validate_map([0, q, 2 * q, 1], [(-2, 1), (-1, 3 * q), (Fraction(-1, 2), 2 * q)])


@pytest.mark.parametrize("make, points, message", [
    # the first failing check is the one reported: orbit membership before
    # the intervals, the intervals left to right, monotonicity before alignment
    ("tent", [0, Fraction(1, 3), 1],
     "1/3 is not in the generalized orbit of the critical set"),
    ("tent", [0, 1], "map is not monotonic on (0, 1)"),
    ("doubling", [0, 1], "map is not monotonic on (0, 1)"),
    ("doubling", [0, Fraction(3, 8), Fraction(1, 2), 1],
     "image of (0, 3/8) is not aligned with the partition"),
    ("doubling", [0, Fraction(3, 8), 1],
     "image of (0, 3/8) is not aligned with the partition"),
    ("doubling", [0, Fraction(1, 2), Fraction(5, 8), 1],
     "image of (1/2, 5/8) is not aligned with the partition"),
    ("kinks", [0, 1],
     "forward images of the critical set never enter the partition set"),
])
def test_user_partition_rejection_texts(tent, make, points, message):
    m = {"tent": tent, "doubling": _doubling(), "kinks": _period_two_kinks()}[make]
    with pytest.raises(InvalidMarkovPartition) as info:
        markov_for_partition(m, points)
    assert str(info.value) == message
