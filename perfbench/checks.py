"""Correctness gate for one imapk report.

A report fails when any of these holds: it raised (decided by the caller),
its exit code is not the expected one, a `consistency` entry is FAIL, its
`map` echo does not re-validate to an equal map, a fact the generator knows
about its input is contradicted, an independent recomputation from the
reported Markov matrix disagrees, or, for the default seed, its mathematical
content differs from the values recorded in `reference.json`.

One consistency entry is judged by its hypothesis: see unconditioned_fails.

The recorded content is the K-groups of each route that concluded, the
minimal polynomial, the Markov matrix, the verdict and the entropy
enclosure.  A later enclosure passes when it overlaps the recorded one, since
both must contain the same number.  Byte-identical JSON is not required: the
report digest is only compared and counted.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


# The library compares |m(1)| with the incidence torsion even when the
# constant function is not known to generate the module (cyclicity
# "unknown"), although its own minimal-polynomial K-group route refuses
# |m(1)| then.  On a module that is not cyclic the two differ with every
# output correct: the shipped `realization` spec has m = t - 2, the minimal
# polynomial of the constant function, and K0 = Z/2 + Z/2.  Such a FAIL is a
# defect of the check, not of the report.  It is not counted as a failed
# report; run.py prints every one as a known defect, and the minimal
# polynomial it concerns is recomputed from the Markov matrix instead
# (_matrix_checks).
MINPOLY_TORSION_CHECK = "|m(1)| equals the torsion of the incidence cokernel"


def unconditioned_fails(report):
    """The FAIL entries of the |m(1)| check made without cyclicity on record."""
    mp = report.get("minimal_polynomial") or {}
    mk = report.get("markov") or {}
    if mp.get("cyclicity") != "unknown" or mk.get("status") != "markov":
        return []
    return [entry for entry in report.get("consistency", [])
            if entry["status"] == "FAIL" and entry["check"] == MINPOLY_TORSION_CHECK]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content(report):
    """The mathematical content of a report that later versions must keep."""
    out = {}
    kg = report.get("kgroups")
    if kg is not None:
        out["kgroups"] = {
            route: {"k0": v["k0"], "k1": v["k1"]} for route, v in kg.items() if v is not None
        }
    mp = report.get("minimal_polynomial")
    if mp and "poly" in mp:
        out["minimal_polynomial"] = mp["poly"]
    mk = report.get("markov")
    if mk and mk.get("status") == "markov":
        out["markov_matrix"] = mk["data"]["matrix"]
    cls = report.get("classification")
    if cls is not None:
        out["verdict"] = [cls["verdict"], cls.get("index")]
    ent = report.get("entropy")
    if ent is not None and ent.get("s_enclosure"):
        out["s_enclosure"] = ent["s_enclosure"]
    return out


def _compare_content(recorded, now):
    problems = []
    for route, kg in recorded.get("kgroups", {}).items():
        got = now.get("kgroups", {}).get(route)
        if got != kg:
            problems.append("%s K-groups %s, recorded %s" % (route, got, kg))
    for key in ("minimal_polynomial", "markov_matrix", "verdict"):
        if key in recorded and now.get(key) != recorded[key]:
            problems.append("%s %s, recorded %s" % (key, now.get(key), recorded[key]))
    if "s_enclosure" in recorded:
        lo, hi = (Fraction(x) for x in recorded["s_enclosure"])
        got = now.get("s_enclosure")
        if got is None or Fraction(got[0]) > hi or Fraction(got[1]) < lo:
            problems.append("entropy enclosure %s misses recorded %s" % (got, recorded["s_enclosure"]))
    return problems


# -- independent recomputation from a reported 0/1 matrix -----------------------


def _rank_and_det(M):
    """Rank and determinant of an integer matrix by exact Gaussian elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    n, rank, det = len(A), 0, Fraction(1)
    for col in range(n):
        piv = next((r for r in range(rank, n) if A[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            det = -det
        det *= A[rank][col]
        for r in range(rank + 1, n):
            if A[r][col] != 0:
                f = A[r][col] / A[rank][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank, det


def _ones_minimal_polynomial(A):
    """Monic p of least degree with p(A^T) 1 = 0, coefficients low degree first.

    A^T moves the indicator functions of the Markov intervals the way the
    transfer operator does, so this is the minimal polynomial of its action
    on the module generated by the constant function.
    """
    n = len(A)
    v = [Fraction(1)] * n
    basis = []  # (pivot, vector with 1 at pivot and 0 at earlier pivots, its powers)
    for k in range(n + 1):
        w, combo = list(v), [Fraction(0)] * k + [Fraction(1)]
        for pivot, b, c in basis:
            f = w[pivot]
            if f:
                w = [x - f * y for x, y in zip(w, b)]
                combo = [x - f * y for x, y in zip(combo, c + [0] * (k + 1 - len(c)))]
        pivot = next((i for i, x in enumerate(w) if x), None)
        if pivot is None:
            return combo
        basis.append((pivot, [x / w[pivot] for x in w], [x / w[pivot] for x in combo]))
        v = [sum(A[j][i] * v[j] for j in range(n)) for i in range(n)]
    raise AssertionError("the first n + 1 vectors of a Krylov sequence are dependent")


def _components(A):
    """Strongly connected components, as classes of mutual reachability."""
    n = len(A)
    reach = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            v = todo.pop()
            for w in range(n):
                if A[v][w] and w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    comps, placed = [], set()
    for i in range(n):
        if i not in placed:
            comp = [j for j in range(n) if j in reach[i] and i in reach[j]]
            placed.update(comp)
            comps.append(comp)
    return comps


def _spectral_radius_bounds(A):
    """Collatz-Wielandt bounds on the spectral radius, per component, in floats."""
    best = (0.0, 0.0)
    for comp in _components(A):
        sub = [[A[i][j] for j in comp] for i in comp]
        if not any(any(row) for row in sub):
            continue
        # A + I is primitive on an irreducible block, so the iteration converges
        x = [1.0] * len(sub)
        lo, hi = 0.0, float(len(sub))
        for _ in range(5000):
            y = [sum(a * b for a, b in zip(row, x)) + xi for row, xi in zip(sub, x)]
            ratios = [yi / xi for yi, xi in zip(y, x)]
            lo, hi = min(ratios) - 1, max(ratios) - 1
            if hi - lo < 1e-12:
                break
            top = max(y)
            x = [yi / top for yi in y]
        if lo > best[0]:
            best = (lo, hi)
    return best


def _matrix_checks(report, problems):
    mk = report.get("markov")
    if not mk or mk.get("status") != "markov":
        return
    A = mk["data"]["matrix"]
    n = len(A)
    kg = (report.get("kgroups") or {}).get("incidence_route")
    if kg is not None and report["dynamics"]["surjective"] == "yes":
        rank, det = _rank_and_det([[int(i == j) - A[i][j] for j in range(n)] for i in range(n)])
        if kg["k0"]["free_rank"] != n - rank or kg["k1"]["free_rank"] != n - rank:
            problems.append("incidence free rank %s, but rank(I - A) = %d of %d" % (kg, rank, n))
        torsion = 1
        for d in kg["k0"]["torsion"]:
            torsion *= d
        if rank == n and torsion != abs(det):
            problems.append("incidence torsion product %d, but |det(I - A)| = %s" % (torsion, abs(det)))
    mp = report.get("minimal_polynomial")
    if mp and "coefficients" in mp:
        want = _ones_minimal_polynomial(A)
        if [Fraction(str(c)) for c in mp["coefficients"]] != want:
            problems.append("minimal polynomial %s, but that of 1 under the transposed matrix "
                            "has coefficients %s" % (mp["poly"], [str(c) for c in want]))
    ent = report.get("entropy")
    if ent is not None and ent["method"] == "perron_markov" and ent["s_enclosure"]:
        lo, hi = (float(Fraction(x)) for x in ent["s_enclosure"])
        cw_lo, cw_hi = _spectral_radius_bounds(A)
        if cw_hi < lo - 1e-9 or cw_lo > hi + 1e-9:
            problems.append("Perron enclosure [%s, %s] misses the spectral radius in [%r, %r]"
                            % (lo, hi, cw_lo, cw_hi))


def _fact_checks(case, spec, report, problems):
    facts = case.facts
    if "matrix" in facts:
        mk = report.get("markov")
        merged = any("merged" in note for note in spec.map.notes)
        if mk is not None and not merged:
            got = mk.get("user_partition", {}).get("matrix", mk.get("status"))
            if got != facts["matrix"]:
                problems.append("realized matrix %s differs from the input matrix" % (got,))
    if facts.get("exchange"):
        route = (report.get("kgroups") or {}).get("family_route")
        want = {"k0": {"torsion": [], "free_rank": facts["intervals"]}, "k1": {"free_rank": 1}}
        if route is not None and {"k0": route["k0"], "k1": route["k1"]} != want:
            problems.append("exchange K-groups %s, expected %s" % (route, want))
        ent = report.get("entropy")
        if ent is not None and ent["s_enclosure"]:
            lo, hi = (Fraction(x) for x in ent["s_enclosure"])
            if not lo <= 1 <= hi:
                problems.append("an exchange has entropy 0, but s lies in [%s, %s]" % (lo, hi))


def check(case, spec, report, code, recorded, map_from_echo):
    """Problems found in one report; an empty list means it passed."""
    problems = []
    if recorded is not None:
        if code != recorded["exit"]:
            problems.append("exit code %d, recorded %d" % (code, recorded["exit"]))
        problems += _compare_content(recorded["content"], content(report))
    elif code not in (0, 2) or (code == 2 and not report.get("refusals")):
        problems.append("exit code %d without a named refusal" % code)
    unconditioned = unconditioned_fails(report)
    for entry in report.get("consistency", []):
        if entry["status"] == "FAIL" and entry not in unconditioned:
            problems.append("consistency FAIL: %s (%s)" % (entry["check"], entry["detail"]))
    if map_from_echo(report["map"]) != spec.map:
        problems.append("map echo does not re-validate to an equal map")
    _fact_checks(case, spec, report, problems)
    _matrix_checks(report, problems)
    return problems
