"""Property suites behind the ``verify`` subcommand.

Each check is a pure function of its ranges and a fixed seed: it returns
its pass detail and raises ``CheckFailed`` on a counterexample.  Checks
are grouped by the module whose invariants they exercise.  Defining
``check_<suite>_<rest>`` registers it: ``CHECKS[<suite>]`` lists them in
definition order, and it reports under the name ``<suite>.<rest>``.
``run_checks`` runs a set of suites, in this process and in any forked
workers it may start, and returns results in canonical name order.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from . import chains, hbn, lattice, stability, strata, tableaux
from ._value import set_attr, value_class
from .errors import DomainError

SUITES = ("lattice", "stability", "strata", "hbn", "tableaux", "chains")


@value_class
class CheckResult:
    def __init__(self, name: str, ok: bool, detail: str):
        set_attr(self, "name", name)
        set_attr(self, "ok", ok)
        set_attr(self, "detail", detail)


class CheckFailed(Exception):
    """A check found a counterexample; the message is the failure detail."""


def _surfaces(max_g, max_k):
    return [
        lattice.SurfaceParams(g, k)
        for g in range(3, max_g + 1)
        for k in range(2, max_k + 1)
    ]


def _grid(max_g, max_k, ranks, d_from=1, g_from=3):
    """(g, k, d, r) for g_from <= g <= max_g, 2 <= k <= max_k, d_from <= d < g, r in ranks."""
    for g in range(g_from, max_g + 1):
        for k in range(2, max_k + 1):
            for d in range(d_from, g):
                for r in ranks:
                    yield g, k, d, r


def _draws(seed):
    """A function giving, call for call, what random.Random(seed).randint gives.

    It runs randint's own rejection loop on getrandbits (as Python 3.10 to
    3.13 do) without randrange's argument checks, which cost more than the
    draw.
    """
    getrandbits = random.Random(seed).getrandbits

    def randint(low, high):
        n = high - low + 1
        bits = n.bit_length()
        drawn = getrandbits(bits)
        while drawn >= n:
            drawn = getrandbits(bits)
        return low + drawn

    return randint


def _random_vector(randint, bound):
    return lattice.MukaiVector(
        randint(-bound, bound), randint(-bound, bound), randint(-bound, bound), randint(-bound, bound)
    )


# ---------------------------------------------------------------- lattice

def check_lattice_bilinearity(max_g, max_k, budget=300):
    randint = _draws(20240801)
    for params in _surfaces(min(max_g, 6), min(max_k, 4)):
        for _ in range(budget // 10):
            u, v, w = (_random_vector(randint, 10**6) for _ in range(3))
            a, b = randint(-50, 50), randint(-50, 50)
            if lattice.mukai_pairing(params, u, v) != lattice.mukai_pairing(params, v, u):
                raise CheckFailed(f"symmetry fails at {u}, {v}")
            left = lattice.mukai_pairing(params, a * u + b * v, w)
            right = a * lattice.mukai_pairing(params, u, w) + b * lattice.mukai_pairing(params, v, w)
            if left != right:
                raise CheckFailed(f"linearity fails at {u}, {v}, {w}")
    return "random symmetric bilinearity"


def check_lattice_discriminant(max_g, max_k, budget=500):
    randint = _draws(20240802)
    for params in _surfaces(min(max_g, 6), min(max_k, 4)):
        for _ in range(budget // 10):
            v = _random_vector(randint, 10**6)
            if lattice.discriminant(params, v) != lattice.square(params, v) + 2 * v.r * v.r:
                raise CheckFailed(f"identity fails at {v}")
    return "discriminant matches pairing plus 2r^2"


def check_lattice_signature(max_g, max_k):
    for params in _surfaces(max_g, max_k):
        if lattice.gram_signature(params) != (2, 2):
            raise CheckFailed(f"signature off at {params}")
    return "Gram signature (2,2) on the whole grid"


def check_lattice_pencil_spherical(max_g, max_k):
    pencils = [lattice.line_bundle_vector(e) for e in range(101)]
    for params in _surfaces(max_g, max_k):
        for e, u in enumerate(pencils):
            if lattice.square(params, u) != -2:
                raise CheckFailed(f"square off at e={e}")
    return "pencil powers are spherical"


# -------------------------------------------------------------- stability

def _points(b_range, b_denominator, w_range, w_denominator):
    """(b, w) -> StabilityPoint(b / b_denominator, w / w_denominator), for b and w in their ranges."""
    return {
        (b, w): stability.StabilityPoint(Fraction(b, b_denominator), Fraction(w, w_denominator))
        for b in b_range
        for w in w_range
    }


def check_stability_slope_scaling(max_g, max_k):
    randint = _draws(20240803)
    points = _points(range(-3, 4), 7, range(10), 5)
    for params in _surfaces(min(max_g, 5), min(max_k, 4)):
        sp = stability.StabilityParams(params, Fraction(1, randint(3, 30)))
        for _ in range(20):
            v = _random_vector(randint, 40)
            pt = points[randint(-3, 3), randint(0, 9)]
            n = randint(1, 9)
            if stability.slope(sp, pt, v) != stability.slope(sp, pt, n * v):
                raise CheckFailed(f"scaling fails at {v}, n={n}")
    return "slope invariant under positive scaling"


def check_stability_rank_zero_slope(max_g, max_k):
    randint = _draws(20240804)
    points = _points(range(-4, 5), 5, range(13), 7)
    for params in _surfaces(min(max_g, 5), min(max_k, 4)):
        sp = stability.StabilityParams(params, Fraction(1, randint(3, 30)))
        for _ in range(20):
            v = lattice.MukaiVector(0, randint(0, 5), randint(-5, 5), randint(-9, 9))
            im = sp.pic_dot_h_eps(v.x, v.y)
            if im == 0:
                continue
            expected = v.s / im
            for _ in range(3):
                pt = points[randint(-4, 4), randint(0, 12)]
                re, im2 = stability.central_charge(sp, pt, v)
                # -re == expected * im2, cross-multiplied so that no Fraction is built
                if stability.slope(sp, pt, v) != expected or (
                    -re.numerator * expected.denominator * im2.denominator
                    != expected.numerator * im2.numerator * re.denominator
                ):
                    raise CheckFailed(f"slope off at {v}")
    return "rank-0 slopes are point-independent"


def check_stability_wall_monotone(max_g, max_k):
    pencils = [lattice.line_bundle_vector(e) for e in range(1, 7)]
    for params in _surfaces(min(max_g, 6), min(max_k, 4)):
        for s in (-1, -2, -3):
            v = lattice.MukaiVector(0, 1, 0, s)
            sp = stability.StabilityParams(params, stability.default_epsilon(params, v) / 2)
            ws = [stability.wall_on_axis(sp, v, u).w for u in pencils]
            if any(a >= b for a, b in zip(ws, ws[1:])):
                raise CheckFailed(f"walls not increasing in e at {params}, s={s}")
    return "pencil walls increase with e"


def check_stability_lemma_key(max_g, max_k):
    fractions = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))
    for params in _surfaces(min(max_g, 8), min(max_k, 5)):
        for m in range(5):
            eps_m = stability.epsilon_threshold(params, m)
            for frac in fractions:
                sp = stability.StabilityParams(params, eps_m * frac)
                if hits := stability.two_value_violations(sp, m):
                    raise CheckFailed(f"violations {hits[:3]} at {params}, m={m}, eps={sp.eps}")
    return "no two-value violations in the scan box"


# ----------------------------------------------------------------- strata

def _vector_for(g, d):
    return lattice.MukaiVector(0, 1, 0, 1 + d - g)


def _placed(instances):
    """(g, k, d, r, SurfaceParams(g, k), _vector_for(g, d)) for each (g, k, d, r) of instances.

    Each surface and each vector is built once, at its first instance.
    """
    surfaces, vectors = {}, {}
    for g, k, d, r in instances:
        if (params := surfaces.get((g, k))) is None:
            params = surfaces[g, k] = lattice.SurfaceParams(g, k)
        if (v := vectors.get((g, d))) is None:
            v = vectors[g, d] = _vector_for(g, d)
        yield g, k, d, r, params, v


def _balanced_types(ranks):
    """r -> [(ell, balanced_type(r, ell)) for 0 <= ell <= r], for r in ranks."""
    return {r: [(ell, strata.balanced_type(r, ell)) for ell in range(r + 1)] for r in ranks}


def check_strata_dimension_identity(max_g, max_k):
    balanced = _balanced_types(range(7))
    for g, k, d, r, params, v in _placed(_grid(max_g, max_k, range(7), d_from=0)):
        for ell, t in balanced[r]:
            got = strata.stratum_dimension(params, v, t)
            want = g + hbn.component_dim(g, k, r, d, ell)
            if got != want:
                raise CheckFailed(f"{got} != {want} at (g,k,d,r,ell)=({g},{k},{d},{r},{ell})")
    return "balanced dimension identity exact"


def check_strata_dimension_bounds(max_g, max_k):
    # a type's ell and whether it is saturated depend on r alone, so each r's types are
    # grouped once: r -> [(ell, its types with the saturated ones first, how many are)]
    groups = []
    for r in range(5):
        by_ell: dict[int, tuple[list, list]] = {}
        for t in strata.enumerate_types(r).items:
            saturated, others = by_ell.setdefault(strata.ell_value(t, r), ([], []))
            (saturated if t.weighted_sections() == r + 1 else others).append(t)
        groups.append([(ell, sat + others, len(sat)) for ell, (sat, others) in sorted(by_ell.items())])
    for g, k, d, r, params, v in _placed(_grid(min(max_g, 9), min(max_k, 5), range(5))):
        enumerated = []
        for ell, types, n_saturated in groups[r]:
            bound = g + hbn.component_dim(g, k, r, d, ell)
            dims = [strata.stratum_dimension(params, v, t) for t in types]
            least, largest = min(dims), max(dims)
            if largest > bound:
                t = types[dims.index(largest)]
                raise CheckFailed(
                    f"dim {largest} > bound {bound} for {t.to_list()} at ({g},{k},{d},{r})"
                )
            # every saturated dim equals the bound
            if n_saturated and (missed := min(dims[:n_saturated])) != bound:
                t = types[dims.index(missed)]
                raise CheckFailed(
                    f"saturated type misses bound for {t.to_list()} at ({g},{k},{d},{r})"
                )
            enumerated.append((ell, least, largest, bound if n_saturated else None))
        fast = [
            (ext.ell, ext.least, ext.largest, ext.saturated)
            for ext in strata.dimension_extremes(params, v, r)
        ]
        if fast != enumerated:
            raise CheckFailed(
                f"dimension_extremes {fast} != enumerated {enumerated} at ({g},{k},{d},{r})"
            )
    return "upper bound and saturated equality hold"


def check_strata_nonexistence(max_g, max_k):
    # balanced_type(r, ell) has count c_ell = component_dim(g, k, r, d, ell); its verdict
    # reads c_ell's sign: EMPTY_BY_NECESSITY iff c_ell < 0, and for ell >= r+2-k NON_EMPTY iff
    # c_ell >= 0 (given the first, iff not UNKNOWN), so negative rho_k excludes every type.
    # Existence: the NON_EMPTY ones reach stratum_dimension - g = rho_k at its maximizers.
    balanced = _balanced_types(range(4))
    empty, unknown = strata.Verdict.EMPTY_BY_NECESSITY, strata.Verdict.UNKNOWN
    for g, k, d, r, params, v in _placed(_grid(min(max_g, 8), min(max_k, 5), range(4), d_from=0)):
        reached = {}  # ell -> stratum_dimension - g of its balanced type, if that is NON_EMPTY
        for ell, t in balanced[r]:
            count, verdict = hbn.component_dim(g, k, r, d, ell), strata.type_verdict(params, v, t)
            if (verdict is empty) != (count < 0) or (ell >= r + 2 - k and verdict is unknown):
                raise CheckFailed(f"{t.to_list()} {verdict.value} at count {count}, ({g},{k},{d},{r})")
            if verdict is strata.Verdict.NON_EMPTY:
                reached[ell] = strata.stratum_dimension(params, v, t) - g
        value, argmax = hbn.rho_k(g, k, r, d)
        best = max(reached.values(), default=None)
        peaks = [ell for ell, dim in reached.items() if dim == best]
        if (best, peaks) != ((value, argmax) if value >= 0 else (None, [])):
            raise CheckFailed(
                f"non-empty balanced types reach {best}, not rho_k {value}, at ({g},{k},{d},{r})"
            )
    return "negative rho_k excludes every type"


def check_strata_square_filter(max_g, max_k):
    types = [strata.enumerate_types(r).items for r in range(4)]
    empty = strata.Verdict.EMPTY_BY_NECESSITY
    residuals = {}  # (g, d, r) -> [(t, residual vector of v and t)], which k does not change
    for g, k, d, r, params, v in _placed(_grid(min(max_g, 8), min(max_k, 5), range(4))):
        if (typed := residuals.get((g, d, r))) is None:
            typed = residuals[g, d, r] = [
                (t, lattice.MukaiVector(v.r - t.sum_m, v.x, v.y - t.sum_me, v.s - t.sum_m))
                for t in types[r]
            ]
        for t, residual in typed:
            kept = strata.passes_square_filter(params, v, t)
            if kept != (lattice.square(params, residual) >= -2):
                raise CheckFailed(
                    f"filter/square mismatch for {t.to_list()} at ({g},{k},{d},{r})"
                )
            if kept == (strata.type_verdict(params, v, t) is empty):
                raise CheckFailed(
                    f"filter/verdict mismatch for {t.to_list()} at ({g},{k},{d},{r})"
                )
    return "square filter matches emptiness verdicts"


# -------------------------------------------------------------------- hbn

def check_hbn_rho_k_dominates(max_g, max_k):
    for g, k, d, r in _grid(max_g, max_k, range(7), d_from=0, g_from=1):
        value, argmax = hbn.rho_k(g, k, r, d)
        base = hbn.rho(g, r, d)
        if value < base or ((value == base) != (0 in argmax)):
            raise CheckFailed(f"fails at ({g},{k},{r},{d})")
    return "rho_k dominates rho; equality iff ell=0 wins"


def check_hbn_rho_k_monotone(max_g, max_k):
    # one instance per (g, k, d), whose ranks 0..7 are compared in a row
    for g, k, d, _ in _grid(max_g, max_k, range(1), d_from=0, g_from=1):
        values = [hbn.rho_k(g, k, r, d)[0] for r in range(0, 8)]
        if any(a < b for a, b in zip(values, values[1:])):
            raise CheckFailed(f"fails at ({g},{k},{d})")
    return "rho_k non-increasing in r"


def check_hbn_ell_round_trip(max_g, max_k):
    for r in range(0, 41):
        for ell in range(0, r + 1):
            dec = hbn.ell_decompose(r, ell)
            if dec.m1 < 0 or dec.m2 <= 0 or dec.m1 > r - ell:
                raise CheckFailed(f"bad split at (r,ell)=({r},{ell})")
            if dec.m1 * (dec.e + 2) + dec.m2 * (dec.e + 1) != r + 1:
                raise CheckFailed(f"rank off at (r,ell)=({r},{ell})")
            if dec.e * (r + 1 - ell) + dec.m1 != ell:
                raise CheckFailed(f"index off at (r,ell)=({r},{ell})")
            if (r + 1) - (dec.m1 + dec.m2) != ell:
                raise CheckFailed(f"round trip off at ({r},{ell})")
    return "ell decomposition round-trips"


def _decompositions(ranks):
    """r -> [(ell, ell_decompose(r, ell)) for 0 <= ell <= r], for r in ranks."""
    return {r: [(ell, hbn.ell_decompose(r, ell)) for ell in range(r + 1)] for r in ranks}


def check_hbn_degeneracy_identity(max_g, max_k):
    decompositions = _decompositions(range(7))
    for g, k, d, r in _grid(max_g, max_k, range(7), d_from=0):
        for ell, dec in decompositions[r][max(0, r + 2 - k):]:
            hbn.degeneracy_dims(g, k, d, r, ell)  # raises when its dimension is off
            count = hbn.component_dim(g, k, r, d, ell)
            # the reduction to rank m1 - 1 and degree d - (e+1)k
            e, m1 = dec.e, dec.m1
            lhs = hbn.rho(g, m1 - 1, d - (e + 1) * k)
            correction = (r - ell - m1 + 1) * (g + e * k - d + r - ell + m1)
            if lhs != count + correction:
                raise CheckFailed(f"reduction off at ({g},{k},{d},{r},{ell})")
    return "degeneracy dimensions match closed form"


def check_hbn_splitting_correspondence(max_g, max_k):
    # the balanced data of (r, ell) read back off its fragment, and the pairs a
    # splitting type adds to it: r -> [(ell, (e, m1, m2), pairs)]; the pairs have
    # degree m1*(e+1) + m2*e = ell, as ell = e(r+1-ell) + m1 (see ell_round_trip)
    balanced = {}
    for r, decs in _decompositions(range(6)).items():
        balanced[r] = []
        for ell, dec in decs:
            data = (dec.e, dec.m1, dec.m2)
            if hbn.balanced_correspondence([dec.e + 1] * dec.m1 + [dec.e] * dec.m2) != data:
                raise CheckFailed(f"mismatch at (r,ell)=({r},{ell})")
            balanced[r].append((ell, data, strata.balanced_type(r, ell).pairs))
    for g, k, d, r in _grid(min(max_g, 10), min(max_k, 6), range(6)):
        for ell, data, pairs in balanced[r][max(0, r + 2 - k):]:
            # full splitting round trip when the negative rest fits one slot
            n_rest = k - data[1] - data[2]
            deg_rest = (d + 1 - g - k) - ell
            if n_rest >= 1 and deg_rest < 0 and deg_rest % n_rest == 0:
                st = hbn.SplittingType(pairs + ((deg_rest // n_rest, n_rest),))
                nonneg = hbn.splitting_nonneg_part(g, k, d, st)
                if hbn.balanced_correspondence(nonneg.values()) != data:
                    raise CheckFailed(f"round trip off at ({g},{k},{d},{r},{ell})")
    return "balanced data matches splitting side"


# ---------------------------------------------------------------- tableaux

def _per_box(search):
    """search as a function of (g, k, r, d) that searches no box past its first feasible instance.

    A box is (k, r+1, g-d+r): the grid of a tableau and the residues of its
    cells depend on the box alone, and g bounds only the labels.  So once a
    box has a valid tableau at g0, each larger g omits g - g0 labels more
    with the same witness (test_tableaux.py::test_g_shift_on_the_10_5_grid).
    The function searches a box's instances until one is feasible and
    shifts that result for the later ones; grid order visits a box's
    instances by ascending g.
    """
    first = {}  # box -> (g, result) at its first feasible instance

    def result(g, k, r, d):
        box = (k, r, g - d + r)
        if box in first:
            g0, found = first[box]
            return tableaux.SearchResult(True, found.omitted + g - g0, found.witness, 0)
        found = search(g, k, r, d)
        if found.feasible:
            first[box] = (g, found)
        return found

    return result


def check_tableaux_pruning(max_g, max_k):
    # the pruned search runs at every instance, the reference as the oracle check's search does
    reference = _per_box(tableaux.max_omitted_naive)
    for g, k, d, r in _grid(min(max_g, 7), min(max_k, 4), range(3)):
        if (r + 1) * (g - d + r) > 9:
            continue
        fast = tableaux.max_omitted(g, k, r, d)
        slow = reference(g, k, r, d)
        # both keep the first maximizer in row-major label order
        got = (fast.feasible, fast.omitted, fast.witness)
        if got != (slow.feasible, slow.omitted, slow.witness):
            raise CheckFailed(f"mismatch at ({g},{k},{r},{d})")
    return "pruned search agrees with naive enumeration"


def check_tableaux_oracle(max_g, max_k):
    # each box is searched until it is feasible; rho_k is read and checked at every instance
    search = _per_box(tableaux.max_omitted)
    for g, k, d, r in _grid(min(max_g, 8), min(max_k, 5), range(4), d_from=0):
        result = search(g, k, r, d)
        report = tableaux.oracle_check(g, k, r, d, result=result)  # raises on hard violations
        if report.rho_k >= 0 and not report.equality:
            raise CheckFailed(
                f"omitted {report.omitted} != rho_k {report.rho_k} at ({g},{k},{r},{d})"
            )
    return "tableau maximum equals rho_k when nonnegative"


# ------------------------------------------------------------------ chains

def _chains(max_g, max_k):
    """(g, k, d, r, rho, chain) for each (g, d, r) with rho(g, r, d) >= 0, at the first k >= r+2.

    The standard chain and its report do not read k, so a later k would only
    repeat the checks, and the first instance in grid order to fail is
    always one of these.
    """
    seen = set()
    for g, k, d, r in _grid(max_g, max_k, range(5), d_from=0):
        if k >= r + 2 and (g, d, r) not in seen and (expected := hbn.rho(g, r, d)) >= 0:
            seen.add((g, d, r))
            yield g, k, d, r, expected, chains.build_chain(g, k, r, d)


def check_chains_verify(max_g, max_k):
    for g, k, d, r, expected, chain in _chains(max_g, max_k):
        report = chains.verify_chain(chain)
        if not report.ok:
            raise CheckFailed(f"failures at ({g},{k},{r},{d}): {report.failures[:2]}")
        if report.total_adjusted != expected:
            raise CheckFailed(
                f"total {report.total_adjusted} != rho {expected} at ({g},{k},{r},{d})"
            )
    return "all constructed chains verify"


def check_chains_telescoping(max_g, max_k):
    for g, k, d, r, _, chain in _chains(max_g, max_k):
        comps = chain.components
        for a in range(0, min((r + 1) * (g - d + r), g) - 1):
            gap = comps[a + 1].alpha_in.weight - comps[a].alpha_in.weight
            if gap != r:
                raise CheckFailed(f"weight gap {gap} != r at ({g},{k},{r},{d}), a={a + 1}")
    return "incoming weights step by r in the first range"


def check_chains_complement(max_g, max_k):
    randint = _draws(20240805)
    for _ in range(300):
        r = randint(0, 6)
        d = randint(r, r + 12)
        alphas = sorted(randint(0, d - r) for _ in range(r + 1))
        seq = chains.RamificationSequence(tuple(alphas))
        twice = chains.complement(r, d, chains.complement(r, d, seq))
        if twice != seq:
            raise CheckFailed(f"involution fails at r={r}, d={d}")
    return "complement is an involution"


CHECKS = {
    suite: [fn for name, fn in list(globals().items()) if name.startswith(f"check_{suite}_")]
    for suite in SUITES
}


def _check_name(fn) -> str:
    return fn.__name__.removeprefix("check_").replace("_", ".", 1)


def _guarded(fn, max_g, max_k) -> CheckResult:
    name = _check_name(fn)
    try:
        return CheckResult(name, True, fn(max_g, max_k))
    except CheckFailed as exc:
        return CheckResult(name, False, str(exc))
    except Exception as exc:  # a raising check is a failing check, not a crash
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _taken(tasks: int):
    """Check indices read from the pipe ``tasks``, one byte each, until it is empty."""
    while index := os.read(tasks, 1):  # a one-byte read is atomic: each index goes to one reader
        yield index[0]


def _run(selected: list, max_g: int, max_k: int, processes: int) -> list[CheckResult]:
    """Run the checks in this process and in processes - 1 forked workers.

    Where the OS cannot fork, this process runs them all.  Every process
    takes check indices from one pipe, one byte each (so at most 256 checks),
    and the work balances as it runs.  A worker writes JSON lines to a pipe
    of its own: [i] when it takes check i, then [i, ok, detail].  A check
    that no process reports, because its worker died, fails with that
    worker's exit status.
    """
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(selected))))
    os.close(feed)
    workers = {}  # pid -> read end of its result pipe
    for _ in range(processes - 1 if hasattr(os, "fork") else 0):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: those already running share the checks
            os.close(read_end)
            os.close(write_end)
            break
        if pid == 0:
            status = 1
            try:
                with open(write_end, "w") as out:
                    for i in _taken(tasks):
                        print(json.dumps([i]), file=out, flush=True)
                        res = _guarded(selected[i], max_g, max_k)
                        print(json.dumps([i, res.ok, res.detail]), file=out, flush=True)
                status = 0
            finally:
                os._exit(status)  # never flush the inherited stdio or return into the caller
        os.close(write_end)
        workers[pid] = read_end
    results = {i: _guarded(selected[i], max_g, max_k) for i in _taken(tasks)}
    os.close(tasks)
    lost: dict[int, int] = {}  # check index -> exit status of the worker that took it
    failed_status = None
    for pid, read_end in workers.items():
        with open(read_end) as lines:
            records = [json.loads(line) for line in lines if line.endswith("\n")]
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            failed_status = status
        for i, *outcome in records:
            if outcome:
                results[i] = CheckResult(_check_name(selected[i]), *outcome)
            else:
                lost[i] = status
    return [
        results.get(i) or CheckResult(
            _check_name(fn), False, f"worker exited with status {lost.get(i, failed_status)}"
        )
        for i, fn in enumerate(selected)
    ]


#: The largest grid run_checks takes; the acceptance tests run a check at
#: (40, 12), the largest range any caller sets.  Serially, on Python 3.11.7,
#: "all" took 1.4 s at (40, 12), best of 5 on 2 CPUs at load average 0.4.
MAX_GRID_G = 40
MAX_GRID_K = 12


def run_checks(suite: str, max_g: int, max_k: int, processes: int = 1) -> list[CheckResult]:
    """Run one suite (or "all"); canonical name order.

    The grid's largest surface must exist (g >= 3, k >= 2), so that no check
    passes on an empty grid, and lie within (MAX_GRID_G, MAX_GRID_K), so that
    no run goes on without end.  With processes > 1, where the OS can fork,
    up to that many processes, this one included, share the checks; the
    results are the same as one after another in this process.
    """
    lattice.SurfaceParams(max_g, max_k)
    if max_g > MAX_GRID_G:
        raise DomainError(f"max_g must be <= {MAX_GRID_G}, got {max_g}", code="bad_genus")
    if max_k > MAX_GRID_K:
        raise DomainError(f"max_k must be <= {MAX_GRID_K}, got {max_k}", code="bad_pencil_degree")
    if suite == "all":
        selected = [fn for name in SUITES for fn in CHECKS[name]]
    elif suite in CHECKS:
        selected = list(CHECKS[suite])
    else:
        raise DomainError(f"unknown suite {suite!r}", code="unknown_suite")
    results = _run(selected, max_g, max_k, min(processes, len(selected)))
    return sorted(results, key=lambda res: res.name)
