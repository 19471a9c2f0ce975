"""Seeded workload generators for the imapk benchmark.

Each workload is a list of cases.  A case is one report: a command run on
the text of one spec, with the overrides the workload fixes.  The library
only ever sees the generated spec text; the facts the generator knows about
its own input (the matrix it realized, the number of intervals) ride along
for the correctness gate.

Every generator makes only valid inputs: exchange lengths are positive and
sum to 1, multimodal maps are continuous and surjective with no endpoint
mapping to an endpoint, and matrices have no zero row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"

# Each workload is seeded reports of like cost plus the shipped specs.
# Sizes are fixed per slot and only the contents are seeded, so one seed's
# batch costs about what another's does, and the median and tail report
# fall inside a cluster of alike reports rather than between two.  One batch
# takes 6-12 s on a 2-vCPU VM.

# Orbit cap of every alg_exchange report.  At cap 1000 a golden_exchange
# `classify` takes about 0.7 s and an `orbit` about 1.8 s; at 150 a batch of
# seventeen reports takes about 8 s.
EXCHANGE_CAP = 150

# markov_matrix: `classify` on dense n x n matrices, `ktheory` on dense
# m x m ones, one of each on block triangular matrices of one size.  Each
# matrix runs one command, so no single draw weighs on the batch twice.  Six
# alike classify reports hold the median, three ktheory reports the tail.
DENSE_CLASSIFY = (9,) * 6
DENSE_KTHEORY = (10,) * 3
BLOCK_SIZE = 30


@dataclass
class Case:
    name: str
    command: str
    text: str
    overrides: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    @property
    def key(self):
        return "%s/%s" % (self.name, self.command)


def shipped(name):
    return (SPECS_DIR / ("%s.imapk" % name)).read_text(encoding="utf-8")


# -- alg_exchange ---------------------------------------------------------------

# (label, defining polynomial low degree first, isolating interval)
_FIELDS = {
    "phi": ([-1, -1, 1], (1, 2)),
    "sqrt2": ([-2, 0, 1], (1, 2)),
    "sqrt3": ([-3, 0, 1], (1, 2)),
    "sqrt5": ([-5, 0, 1], (2, 3)),
    "sqrt7": ([-7, 0, 1], (2, 3)),
    "cubic_x3-x-1": ([-1, -1, 0, 1], (1, 2)),
    "quartic_x4-x-1": ([-1, -1, 0, 0, 1], (1, 2)),
}


def _real_root(poly, iso):
    lo, hi = float(iso[0]), float(iso[1])
    val = lambda x: sum(c * x**k for k, c in enumerate(poly))
    sign_lo = val(lo) > 0
    for _ in range(80):
        mid = (lo + hi) / 2
        if (val(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _alg_text(vec):
    return "alg:[%s]" % ",".join(str(c) for c in vec)


def _exchange_lengths(rng, poly, iso, k):
    """k positive lengths in Q(alpha), each at least 1/20 and summing to 1.

    Every length but the last is (c0 + c1*alpha + ...)/den with small
    integer coefficients and at least one irrational coefficient; the last is
    1 minus the others.  A margin of 1/20 keeps float rounding irrelevant.
    """
    degree = len(poly) - 1
    alpha = _real_root(poly, iso)
    while True:
        lengths = []
        for _ in range(k - 1):
            den = rng.randint(3, 9)
            vec = [Fraction(rng.randint(-9, 9), den) for _ in range(degree)]
            if all(c == 0 for c in vec[1:]):
                continue
            lengths.append(vec)
        if len(lengths) != k - 1:
            continue
        last = [Fraction(1 if i == 0 else 0) - sum(v[i] for v in lengths) for i in range(degree)]
        lengths.append(last)
        values = [sum(float(c) * alpha**i for i, c in enumerate(v)) for v in lengths]
        if all(x >= 0.05 for x in values):
            return lengths


def _exchange_spec(field_label, lengths, permutation):
    poly, iso = _FIELDS[field_label]
    return (
        "# seeded %d-interval exchange over %s\n"
        "field { poly = [%s]; iso = [%d,%d] }\n"
        "map { family = interval_exchange; lengths = [%s]; permutation = [%s] }\n"
        % (
            len(lengths),
            field_label,
            ",".join(str(c) for c in poly),
            iso[0],
            iso[1],
            ", ".join(_alg_text(v) for v in lengths),
            ",".join(str(p) for p in permutation),
        )
    )


# The one permutation per length that is irreducible (no proper prefix
# {1..j} maps onto itself) and keeps no two neighbours together, which
# would merge them into one branch.
_PERMS = {2: (2, 1), 3: (3, 2, 1)}


# (field choices, number of intervals, command of each seeded map).  At cap
# 150, sorted by time, four reports take under 0.2 s, seven 0.2-0.5 s (the
# median falls among them) and six 0.5-1 s (so does the tail).  The
# 3-interval Q(phi) slot stays because a Keane certificate cannot apply to
# it: 3 lengths in a degree-2 field.
_EXCHANGE_SLOTS = [
    (["phi"], 2, ["orbit"]),
    (["phi"], 3, ["classify", "orbit", "orbit"]),
    (["sqrt2", "sqrt3", "sqrt5", "sqrt7"], 2, ["orbit"]),
    (["cubic_x3-x-1"], 3, ["classify", "orbit", "orbit", "orbit"]),
    (["quartic_x4-x-1"], 3, ["classify", "orbit", "orbit", "orbit"]),
]


def alg_exchange(seed):
    rng = random.Random("alg_exchange:%s" % seed)
    over = {"cap": EXCHANGE_CAP}
    cases = []
    for i, (choices, k, commands) in enumerate(_EXCHANGE_SLOTS):
        for j, command in enumerate(commands):
            label = rng.choice(choices)
            poly, iso = _FIELDS[label]
            text = _exchange_spec(label, _exchange_lengths(rng, poly, iso, k), _PERMS[k])
            facts = {"intervals": k, "exchange": True}
            cases.append(Case("exchange%d%d_%s_%d" % (i, j, label, k), command, text, over, facts))
    for name in ("golden_exchange", "golden_beta"):
        facts = {"intervals": 2, "exchange": True} if name == "golden_exchange" else {}
        for command in ("classify", "orbit"):
            cases.append(Case(name, command, shipped(name), over, facts))
    return cases


# -- rat_multimodal ---------------------------------------------------------------


def _multimodal_spec(label, partition, values):
    """Explicit continuous map interpolating `values` linearly over `partition`."""
    branches = []
    for (a, b), (u, v) in zip(zip(partition, partition[1:]), zip(values, values[1:])):
        slope = (v - u) / (b - a)
        branches.append((slope, u - slope * a))
    lines = ["# seeded continuous %d-branch map (%s)" % (len(branches), label), "map {"]
    lines.append("  partition = [%s]" % ", ".join(str(p) for p in partition))
    for slope, intercept in branches:
        lines.append("  branch = { slope = %s, intercept = %s }" % (slope, intercept))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _evaluate(partition, values, x):
    """The piecewise linear map through (partition[i], values[i]) at x."""
    for a, b, u, v in zip(partition, partition[1:], values, values[1:]):
        if x <= b:
            return u + (v - u) * (x - a) / (b - a)
    raise ValueError(x)


def _orbits_stay_apart(partition, values, steps=200):
    """No interior critical orbit revisits a point, meets another orbit or
    lands on an interior partition point within `steps` steps."""
    seen = set(partition[1:-1])
    for x in partition[1:-1]:
        for _ in range(steps):
            x = _evaluate(partition, values, x)
            if x in seen:
                return False
            seen.add(x)
    return True


def _capped_map(rng, cuts):
    """Breakpoints at cuts/13, turning values over 1/7 drawn from the seed.

    The slopes then have mixed reduced denominators, so the denominator-growth
    certificate does not apply, and every critical orbit grows until the
    4096-bit size limit ends the closure.  Values alternate up and down, hit
    1 once and 0 once, and end inside (0, 1), so the map is continuous and
    surjective and no endpoint maps to an endpoint.  Fixed breakpoints halve
    the spread of cost across seeds (coefficient of variation 0.26 to 0.13
    over eight seeds).  Values whose critical orbits meet early are drawn
    again: the multimodal route would stop at once on them.
    """
    partition = [Fraction(0)] + [Fraction(c, 13) for c in cuts] + [Fraction(1)]
    while True:
        values = [Fraction(rng.randint(1, 6), 7), Fraction(1), Fraction(0)]
        if len(cuts) == 3:
            peak = rng.randint(4, 6)  # a second, lower peak, then down
            values += [Fraction(peak, 7), Fraction(rng.randint(1, peak - 1), 7)]
        else:
            values.append(Fraction(rng.randint(1, 6), 7))
        slopes = [
            (v - u) / (b - a)
            for (a, b), (u, v) in zip(zip(partition, partition[1:]), zip(values, values[1:]))
        ]
        if (len({abs(s).denominator for s in slopes}) > 1 and all(abs(s) > 1 for s in slopes)
                and _orbits_stay_apart(partition, values)):
            return partition, values


def _markov_map(rng):
    """Three branches with integer slopes and rational data.

    With q the common denominator of the breakpoints and intercepts, integer
    slopes map (1/q)Z into itself, so each critical orbit stays in a finite
    set, is eventually periodic, and the closure completes: a Markov case.
    """
    while True:
        s1, s2, s3 = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice((2, 3))
        v0 = Fraction(rng.randint(1, 11), 12)
        a1 = (1 - v0) / s1
        a2 = a1 + Fraction(1, s2)
        v3 = s3 * (1 - a2)
        if a2 < 1 and 0 < v3 < 1:
            return [Fraction(0), a1, a2, Fraction(1)], [v0, Fraction(1), Fraction(0), v3]


def rat_multimodal(seed):
    rng = random.Random("rat_multimodal:%s" % seed)
    # three reports of milliseconds (the Markov map, beta_three_halves and
    # tent), five of 1-1.5 s and one of 3-4 s: the median and the tail fall
    # among the five
    seeded = [
        ("capped0_3", _capped_map(rng, (4, 9))),
        ("capped1_3", _capped_map(rng, (5, 9))),
        ("capped2_3", _capped_map(rng, (3, 8))),
        ("capped3_4", _capped_map(rng, (3, 6, 10))),
        ("markov0_3", _markov_map(rng)),
    ]
    cases = []
    for name, (partition, values) in seeded:
        text = _multimodal_spec(name.split("_")[0].rstrip("0123456789"), partition, values)
        cases.append(Case(name, "classify", text))
    cases += [Case("multimodal", command, shipped("multimodal")) for command in ("classify", "all")]
    cases += [Case(name, "all", shipped(name)) for name in ("beta_three_halves", "tent")]
    return cases


# -- markov_matrix ------------------------------------------------------------------


def _strongly_connected(A):
    n = len(A)
    for adj in (A, [list(col) for col in zip(*A)]):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if adj[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            return False
    return True


def _row(rng, n, runs):
    """A 0/1 row of length n with exactly `runs` maximal runs of ones."""
    cuts = sorted(rng.sample(range(n + 1), 2 * runs))
    row = [0] * n
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        row[lo:hi] = [1] * (hi - lo)
    return row


def _irreducible(rng, n, cycle):
    """Irreducible 0/1 matrix whose rows cycle through `cycle` runs of ones.

    The realized map has one branch per run, and its canonical partition has
    about one interval per branch, so fixing the number of runs fixes the
    size of the matrices the library works on, and with it the cost.
    """
    runs = [cycle[i % len(cycle)] for i in range(n)]
    while True:
        rng.shuffle(runs)
        A = [_row(rng, n, r) for r in runs]
        if _strongly_connected(A):
            return A


def _block_triangular(rng, n):
    """Reducible: irreducible diagonal blocks of sizes 3, 3, 4 repeated, and
    in every other row one run of three ones right of its diagonal block.

    Fixed run lengths keep the cost alike across seeds (coefficient of
    variation of classify plus ktheory 0.10 over eight seeds, against 0.16
    with runs of random length).
    """
    sizes = []
    while sum(sizes) < n:
        sizes.append(min((3, 3, 4)[len(sizes) % 3], n - sum(sizes)))
    A = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block = _irreducible(rng, size, (1, 2))
        right = start + size
        for i in range(size):
            A[start + i][start:right] = block[i]
            if n - right >= 3 and (start + i) % 2:
                j = right + rng.randrange(n - right - 2)
                A[start + i][j:j + 3] = [1, 1, 1]
        start = right
    return A


def _matrix_spec(label, A):
    rows = ",".join("[%s]" % ",".join(str(x) for x in row) for row in A)
    return "# seeded %s %dx%d matrix\nmap { family = markov_realization; matrix = [%s] }\n" % (
        label, len(A), len(A), rows)


def _matrix_case(name, command, text, A):
    """The realization's canonical partition refines {j/n}; the matrix of the
    map over {j/n} itself must be A, so that partition is passed along."""
    n = len(A)
    over = {"partition": [Fraction(j, n) for j in range(n + 1)]}
    return Case(name, command, text, over, {"matrix": A})


def markov_matrix(seed):
    rng = random.Random("markov_matrix:%s" % seed)
    cases = []
    for command, sizes in (("classify", DENSE_CLASSIFY), ("ktheory", DENSE_KTHEORY)):
        for i, n in enumerate(sizes):
            A = _irreducible(rng, n, (2, 3))
            cases.append(_matrix_case("dense%d_%d" % (i, n), command,
                                      _matrix_spec("irreducible", A), A))
    for i, command in enumerate(("classify", "ktheory")):
        A = _block_triangular(rng, BLOCK_SIZE)
        cases.append(_matrix_case("block%d_%d" % (i, BLOCK_SIZE), command,
                                  _matrix_spec("block triangular", A), A))
    A = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    for command in ("classify", "ktheory"):
        cases.append(_matrix_case("realization", command, shipped("realization"), A))
    return cases


WORKLOADS = {
    "alg_exchange": alg_exchange,
    "rat_multimodal": rat_multimodal,
    "markov_matrix": markov_matrix,
}


def batch_cases(workload, seed, batch):
    """The cases of one batch of a run.

    Batch 0 holds the inputs of `seed`, the ones recorded in reference.json
    for the default seed.  Every later batch draws fresh seeded maps from
    "<seed>/<batch>", so a run measures several draws of each slot and its
    medians vary less with the content one seed happens to draw.  The shipped
    specs are the same in every batch.
    """
    return WORKLOADS[workload](seed if batch == 0 else "%d/%d" % (seed, batch))


PARAMETERS = {
    "alg_exchange": {"cap": EXCHANGE_CAP, "fields": sorted(_FIELDS)},
    "rat_multimodal": {"cap": "default (10000)", "capped_cuts_over_13": [[4, 9], [5, 9], [3, 8], [3, 6, 10]]},
    "markov_matrix": {"cap": "default (10000)", "classify_n": list(DENSE_CLASSIFY),
                      "ktheory_n": list(DENSE_KTHEORY), "block_n": BLOCK_SIZE},
}
