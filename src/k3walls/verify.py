"""Property suites behind the ``verify`` subcommand.

Each check is a pure function of its ranges and a fixed seed: it returns
its pass detail and raises ``CheckFailed`` on a counterexample.  Checks
are grouped by the module whose invariants they exercise.  Defining
``check_<suite>_<rest>`` registers it: ``CHECKS[<suite>]`` lists them in
definition order, and it reports under the name ``<suite>.<rest>``.
``run_checks`` runs a set of suites and returns results in canonical name
order.  By default it runs them one after another in the calling process;
asked for more processes, it also runs them in forked workers, with the same
results.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from . import chains, hbn, lattice, stability, strata, tableaux
from .errors import DomainError

SUITES = ("lattice", "stability", "strata", "hbn", "tableaux", "chains")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


class CheckFailed(Exception):
    """A check found a counterexample; the message is the failure detail."""


def _surfaces(max_g, max_k):
    return [
        lattice.SurfaceParams(g, k)
        for g in range(3, max_g + 1)
        for k in range(2, max_k + 1)
    ]


def _random_vector(rng, bound):
    return lattice.MukaiVector(*(rng.randint(-bound, bound) for _ in range(4)))


# ---------------------------------------------------------------- lattice

def check_lattice_bilinearity(max_g, max_k, budget=300):
    rng = random.Random(20240801)
    for params in _surfaces(min(max_g, 6), min(max_k, 4)):
        for _ in range(budget // 10):
            u, v, w = (_random_vector(rng, 10**6) for _ in range(3))
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            if lattice.mukai_pairing(params, u, v) != lattice.mukai_pairing(params, v, u):
                raise CheckFailed(f"symmetry fails at {u}, {v}")
            left = lattice.mukai_pairing(params, a * u + b * v, w)
            right = a * lattice.mukai_pairing(params, u, w) + b * lattice.mukai_pairing(params, v, w)
            if left != right:
                raise CheckFailed(f"linearity fails at {u}, {v}, {w}")
    return "random symmetric bilinearity"


def check_lattice_discriminant(max_g, max_k, budget=500):
    rng = random.Random(20240802)
    for params in _surfaces(min(max_g, 6), min(max_k, 4)):
        for _ in range(budget // 10):
            v = _random_vector(rng, 10**6)
            if lattice.discriminant(params, v) != lattice.square(params, v) + 2 * v.r * v.r:
                raise CheckFailed(f"identity fails at {v}")
    return "discriminant matches pairing plus 2r^2"


def check_lattice_signature(max_g, max_k):
    for params in _surfaces(max_g, max_k):
        if lattice.gram_signature(params) != (2, 2):
            raise CheckFailed(f"signature off at {params}")
    return "Gram signature (2,2) on the whole grid"


def check_lattice_pencil_spherical(max_g, max_k):
    for params in _surfaces(max_g, max_k):
        for e in range(101):
            u = lattice.line_bundle_vector(e)
            if lattice.square(params, u) != -2:
                raise CheckFailed(f"square off at e={e}")
    return "pencil powers are spherical"


# -------------------------------------------------------------- stability

def check_stability_slope_scaling(max_g, max_k):
    rng = random.Random(20240803)
    for params in _surfaces(min(max_g, 5), min(max_k, 4)):
        sp = stability.StabilityParams(params, Fraction(1, rng.randint(3, 30)))
        for _ in range(20):
            v = _random_vector(rng, 40)
            pt = stability.StabilityPoint(Fraction(rng.randint(-3, 3), 7), Fraction(rng.randint(0, 9), 5))
            n = rng.randint(1, 9)
            if stability.slope(sp, pt, v) != stability.slope(sp, pt, n * v):
                raise CheckFailed(f"scaling fails at {v}, n={n}")
    return "slope invariant under positive scaling"


def check_stability_rank_zero_slope(max_g, max_k):
    rng = random.Random(20240804)
    for params in _surfaces(min(max_g, 5), min(max_k, 4)):
        sp = stability.StabilityParams(params, Fraction(1, rng.randint(3, 30)))
        for _ in range(20):
            v = lattice.MukaiVector(0, rng.randint(0, 5), rng.randint(-5, 5), rng.randint(-9, 9))
            im = sp.pic_dot_h_eps(v.x, v.y)
            if im == 0:
                continue
            expected = Fraction(v.s) / im
            for _ in range(3):
                pt = stability.StabilityPoint(Fraction(rng.randint(-4, 4), 5), Fraction(rng.randint(0, 12), 7))
                re, im2 = stability.central_charge(sp, pt, v)
                if stability.slope(sp, pt, v) != expected or -re != expected * im2:
                    raise CheckFailed(f"slope off at {v}")
    return "rank-0 slopes are point-independent"


def check_stability_wall_monotone(max_g, max_k):
    for params in _surfaces(min(max_g, 6), min(max_k, 4)):
        for s in (-1, -2, -3):
            v = lattice.MukaiVector(0, 1, 0, s)
            sp = stability.StabilityParams(params, stability.default_epsilon(params, v) / 2)
            ws = [stability.wall_on_axis(sp, v, lattice.line_bundle_vector(e)).w for e in range(1, 7)]
            if any(a >= b for a, b in zip(ws, ws[1:])):
                raise CheckFailed(f"walls not increasing in e at {params}, s={s}")
    return "pencil walls increase with e"


def check_stability_lemma_key(max_g, max_k):
    fractions = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))
    for params in _surfaces(min(max_g, 8), min(max_k, 5)):
        for m in range(5):
            eps_m = stability.epsilon_threshold(params, m)
            for frac in fractions:
                hits = stability.lemma_key_scan(params, m, eps_m * frac, box=12)
                if hits:
                    raise CheckFailed(
                        f"violations {hits[:3]} at {params}, m={m}, eps={eps_m * frac}"
                    )
    return "no two-value violations in the scan box"


# ----------------------------------------------------------------- strata

def _vector_for(g, d):
    return lattice.MukaiVector(0, 1, 0, 1 + d - g)


def check_strata_dimension_identity(max_g, max_k):
    for g in range(3, max_g + 1):
        for k in range(2, max_k + 1):
            params = lattice.SurfaceParams(g, k)
            for d in range(0, g):
                v = _vector_for(g, d)
                for r in range(0, 7):
                    for ell in range(max(0, r + 1 - k), r + 1):
                        got = strata.stratum_dimension(params, v, strata.balanced_type(r, ell))
                        want = g + hbn.rho(g, r - ell, d) - ell * k
                        if got != want:
                            raise CheckFailed(
                                f"{got} != {want} at (g,k,d,r,ell)=({g},{k},{d},{r},{ell})"
                            )
    return "balanced dimension identity exact"


def check_strata_dimension_bounds(max_g, max_k):
    # a type's ell and whether it is saturated depend on r alone
    types = [
        [(t, strata.ell_value(t, r), t.weighted_sections() == r + 1) for t in strata.enumerate_types(r).items]
        for r in range(5)
    ]
    for g in range(3, min(max_g, 9) + 1):
        for k in range(2, min(max_k, 5) + 1):
            params = lattice.SurfaceParams(g, k)
            for d in range(1, g):
                v = _vector_for(g, d)
                for r in range(0, 5):
                    bounds = [g + hbn.rho(g, r - ell, d) - ell * k for ell in range(r + 1)]
                    least: dict[int, int] = {}
                    largest: dict[int, int] = {}
                    saturated: dict[int, int] = {}  # every saturated dim equals the bound
                    for t, ell, is_saturated in types[r]:
                        bound = bounds[ell]
                        dim = strata.stratum_dimension(params, v, t)
                        if dim > bound:
                            raise CheckFailed(
                                f"dim {dim} > bound {bound} for {t.to_list()} at ({g},{k},{d},{r})"
                            )
                        if is_saturated:
                            if dim != bound:
                                raise CheckFailed(
                                    f"saturated type misses bound for {t.to_list()} at ({g},{k},{d},{r})"
                                )
                            saturated[ell] = dim
                        least[ell] = min(dim, least.get(ell, dim))
                        largest[ell] = max(dim, largest.get(ell, dim))
                    enumerated = [
                        (ell, least[ell], largest[ell], saturated.get(ell)) for ell in sorted(least)
                    ]
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
    types = [strata.enumerate_types(r).items for r in range(4)]
    for g in range(3, min(max_g, 8) + 1):
        for k in range(2, min(max_k, 5) + 1):
            params = lattice.SurfaceParams(g, k)
            for d in range(1, g):
                for r in range(0, 4):
                    value, _ = hbn.rho_k(g, k, r, d)
                    if value >= 0:
                        continue
                    v = _vector_for(g, d)
                    for t in types[r]:
                        ell = strata.ell_value(t, r)
                        if hbn.rho(g, r - ell, d) - ell * k >= 0:
                            raise CheckFailed(
                                f"type {t.to_list()} has nonneg count at ({g},{k},{d},{r})"
                            )
                    for ell in range(0, r + 1):
                        t = strata.balanced_type(r, ell)
                        verdict = strata.type_verdict(params, v, t)
                        if t in types[r] and verdict is not strata.Verdict.EMPTY_BY_NECESSITY:
                            raise CheckFailed(
                                f"enumerated balanced type {t.to_list()} not excluded at ({g},{k},{d},{r})"
                            )
    return "negative rho_k excludes every type"


def check_strata_square_filter(max_g, max_k):
    types = [strata.enumerate_types(r).items for r in range(4)]
    for g in range(3, min(max_g, 8) + 1):
        for k in range(2, min(max_k, 5) + 1):
            params = lattice.SurfaceParams(g, k)
            for d in range(1, g):
                v = _vector_for(g, d)
                for r in range(0, 4):
                    for t in types[r]:
                        dropped = not strata.passes_square_filter(params, v, t)
                        verdict = strata.type_verdict(params, v, t)
                        if dropped != (verdict is strata.Verdict.EMPTY_BY_NECESSITY):
                            raise CheckFailed(
                                f"filter/verdict mismatch for {t.to_list()} at ({g},{k},{d},{r})"
                            )
    return "square filter matches emptiness verdicts"


# -------------------------------------------------------------------- hbn

def check_hbn_rho_k_dominates(max_g, max_k):
    for g in range(1, max_g + 1):
        for k in range(2, max_k + 1):
            for d in range(0, g):
                for r in range(0, 7):
                    value, argmax = hbn.rho_k(g, k, r, d)
                    base = hbn.rho(g, r, d)
                    if value < base or ((value == base) != (0 in argmax)):
                        raise CheckFailed(f"fails at ({g},{k},{r},{d})")
    return "rho_k dominates rho; equality iff ell=0 wins"


def check_hbn_rho_k_monotone(max_g, max_k):
    for g in range(1, max_g + 1):
        for k in range(2, max_k + 1):
            for d in range(0, g):
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


def check_hbn_degeneracy_identity(max_g, max_k):
    for g in range(3, max_g + 1):
        for k in range(2, max_k + 1):
            for d in range(0, g):
                for r in range(0, 7):
                    for ell in range(max(0, r + 2 - k), r + 1):
                        hbn.degeneracy_dims(g, k, d, r, ell)  # raises when its dimension is off
                        count = hbn.rho(g, r - ell, d) - ell * k
                        # the reduction to rank m1 - 1 and degree d - (e+1)k
                        dec = hbn.ell_decompose(r, ell)
                        e, m1 = dec.e, dec.m1
                        lhs = hbn.rho(g, m1 - 1, d - (e + 1) * k)
                        correction = (r - ell - m1 + 1) * (g + e * k - d + r - ell + m1)
                        if lhs != count + correction:
                            raise CheckFailed(f"reduction off at ({g},{k},{d},{r},{ell})")
    return "degeneracy dimensions match closed form"


def check_hbn_splitting_correspondence(max_g, max_k):
    for g in range(3, min(max_g, 10) + 1):
        for k in range(2, min(max_k, 6) + 1):
            for d in range(1, g):
                for r in range(0, 6):
                    for ell in range(max(0, r + 2 - k), r + 1):
                        dec = hbn.ell_decompose(r, ell)
                        frag = [dec.e + 1] * dec.m1 + [dec.e] * dec.m2
                        if hbn.balanced_correspondence(frag) != (dec.e, dec.m1, dec.m2):
                            raise CheckFailed(f"mismatch at ({g},{k},{d},{r},{ell})")
                        # full splitting round trip when the negative rest fits one slot
                        n_rest = k - dec.m1 - dec.m2
                        deg_rest = (d + 1 - g - k) - (dec.m1 * (dec.e + 1) + dec.m2 * dec.e)
                        if n_rest >= 1 and deg_rest % n_rest == 0:
                            f_rest = deg_rest // n_rest
                            if f_rest < 0:
                                balanced = strata.balanced_type(r, ell).pairs
                                st = hbn.SplittingType(balanced + ((f_rest, n_rest),))
                                nonneg = hbn.splitting_nonneg_part(g, k, d, st)
                                got = hbn.balanced_correspondence(nonneg.values())
                                if got != (dec.e, dec.m1, dec.m2):
                                    raise CheckFailed(f"round trip off at ({g},{k},{d},{r},{ell})")
    return "balanced data matches splitting side"


# ---------------------------------------------------------------- tableaux

def check_tableaux_pruning(max_g, max_k):
    for g in range(3, min(max_g, 7) + 1):
        for k in range(2, min(max_k, 4) + 1):
            for r in range(0, 3):
                for d in range(1, g):
                    if (r + 1) * (g - d + r) > 9:
                        continue
                    fast = tableaux.max_omitted(g, k, r, d)
                    slow = tableaux.max_omitted_naive(g, k, r, d)
                    # both keep the first maximizer in row-major label order
                    got = (fast.feasible, fast.omitted, fast.witness)
                    if got != (slow.feasible, slow.omitted, slow.witness):
                        raise CheckFailed(f"mismatch at ({g},{k},{r},{d})")
    return "pruned search agrees with naive enumeration"


def check_tableaux_oracle(max_g, max_k):
    for g in range(3, min(max_g, 8) + 1):
        for k in range(2, min(max_k, 5) + 1):
            for r in range(0, 4):
                for d in range(1, g):
                    if (r + 1) * (g - d + r) > 12:
                        continue
                    report = tableaux.oracle_check(g, k, r, d)  # raises on hard violations
                    if report.rho_k >= 0 and not report.equality:
                        raise CheckFailed(
                            f"omitted {report.omitted} != rho_k {report.rho_k} at ({g},{k},{r},{d})"
                        )
    return "tableau maximum equals rho_k when nonnegative"


# ------------------------------------------------------------------ chains

def check_chains_verify(max_g, max_k):
    for g in range(3, max_g + 1):
        for r in range(0, 5):
            for k in range(r + 2, max_k + 1):
                for d in range(0, g):
                    expected = hbn.rho(g, r, d)
                    if expected < 0:
                        continue
                    report = chains.verify_chain(chains.build_chain(g, k, r, d))
                    if not report.ok:
                        raise CheckFailed(f"failures at ({g},{k},{r},{d}): {report.failures[:2]}")
                    if report.total_adjusted != expected:
                        raise CheckFailed(
                            f"total {report.total_adjusted} != rho {expected} at ({g},{k},{r},{d})"
                        )
    return "all constructed chains verify"


def check_chains_telescoping(max_g, max_k):
    for g in range(3, max_g + 1):
        for r in range(0, 5):
            for k in range(r + 2, max_k + 1):
                for d in range(0, g):
                    if hbn.rho(g, r, d) < 0:
                        continue
                    chain = chains.build_chain(g, k, r, d)
                    first = (r + 1) * (g - d + r)
                    comps = chain.components
                    for a in range(0, min(first, g) - 1):
                        gap = comps[a + 1].alpha_in.weight - comps[a].alpha_in.weight
                        if gap != r:
                            raise CheckFailed(
                                f"weight gap {gap} != r at ({g},{k},{r},{d}), a={a + 1}"
                            )
    return "incoming weights step by r in the first range"


def check_chains_complement(max_g, max_k):
    rng = random.Random(20240805)
    for _ in range(300):
        r = rng.randint(0, 6)
        d = rng.randint(r, r + 12)
        alphas = sorted(rng.randint(0, d - r) for _ in range(r + 1))
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


def _run_forked(selected: list, max_g: int, max_k: int, processes: int) -> list[CheckResult]:
    """Run the checks in this process and in processes - 1 forked workers.

    Every process takes check indices from one pipe, one byte each (so at
    most 256 checks), and the work balances as it runs.  A worker writes
    JSON lines to a pipe of its own: [i] when it takes check i, then
    [i, ok, detail].  A check that no process reports, because its worker
    died, fails with that worker's exit status.
    """
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(selected))))
    os.close(feed)
    workers = {}  # pid -> read end of its result pipe
    for _ in range(processes - 1):
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


def run_checks(suite: str, max_g: int, max_k: int, processes: int = 1) -> list[CheckResult]:
    """Run one suite (or "all"); canonical name order.

    The grid's largest surface must exist (g >= 3, k >= 2), so that no check
    passes on an empty grid.  With processes > 1, where the OS can fork,
    up to that many processes, this one included, share the checks; the
    results are the same as one after another in this process.
    """
    lattice.SurfaceParams(max_g, max_k)
    if suite == "all":
        selected = [fn for name in SUITES for fn in CHECKS[name]]
    elif suite in CHECKS:
        selected = list(CHECKS[suite])
    else:
        raise DomainError(f"unknown suite {suite!r}", code="unknown_suite")
    processes = min(processes, len(selected))
    if processes > 1 and hasattr(os, "fork"):
        results = _run_forked(selected, max_g, max_k, processes)
    else:
        results = [_guarded(fn, max_g, max_k) for fn in selected]
    return sorted(results, key=lambda res: res.name)
