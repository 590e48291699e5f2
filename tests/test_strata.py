from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3walls import strata, verify
from k3walls.chains import RamificationSequence
from k3walls.errors import DomainError, SearchBudgetExceeded
from k3walls.hbn import SplittingType
from k3walls.lattice import (
    MukaiVector,
    SurfaceParams,
    check_special_shape,
    line_bundle_vector,
    mukai_pairing,
    square,
)
from k3walls.stability import StabilityParams
from k3walls.strata import (
    StabilityType,
    StratumExtremes,
    Verdict,
    balanced_type,
    dimension_extremes,
    ell_value,
    enumerate_types,
    passes_square_filter,
    stratum_dimension,
    type_verdict,
    wall_sequence,
)

P52 = SurfaceParams(5, 2)
V53 = MukaiVector(0, 1, 0, -1)  # genus 5, degree 3


def mk(*pairs):
    return StabilityType(tuple(pairs))


def residual_vector(v, t):
    """v minus the full destabilizing contribution sum m_i*(1, e_i*E, 1), on MukaiVectors."""
    for e, m in t.pairs:
        v = v - m * line_bundle_vector(e)
    return v


@pytest.fixture(scope="module")
def type_table():
    """enumerate_types(r).items for r = -1..8, the reference for the integer paths."""
    return {r: enumerate_types(r).items for r in range(-1, 9)}


def test_type_sums_match_pairs(type_table):
    # every type up to r = 8, plain and refined: the sums kept at construction
    # against sums recomputed from the pairs
    refined = [enumerate_types(r, refined=True).items for r in range(-1, 9)]
    for t in [t for items in type_table.values() for t in items] + [t for items in refined for t in items]:
        assert t.sum_m == sum(m for _, m in t.pairs)
        assert t.sum_me == sum(m * e for e, m in t.pairs)
        assert t.weighted_sections() == sum(m * (e + 1) for e, m in t.pairs)


def validate_type_reference(t, r, refined):
    """Whether t is a valid type of r, every sum recomputed from the pairs (see enumerate_types)."""
    if not t.pairs:
        return r == -1
    (e1, m1), ms = t.pairs[0], [m for _, m in t.pairs]
    if not sum(ms) <= r + 1 <= sum(m * (e + 1) for e, m in t.pairs) or m1 * (e1 + 1) > r + 1:
        return False
    if refined:
        bound = 2 * m1 if len(ms) == 1 and e1 >= 1 else 2 * sum(ms[:-1]) + ms[-1]
        return bound <= r + 1
    return True


def type_universe(r):
    """Every type with e_1 <= r and sum(m) <= r+1, a superset of both tables of r."""

    def extend(prefix, e_max, budget):
        yield StabilityType(tuple(prefix))
        for e in range(e_max, -1, -1):
            for m in range(1, budget + 1):
                yield from extend(prefix + [(e, m)], e - 1, budget - m)

    return extend([], r, r + 1)


def test_enumerate_types_matches_reference():
    # the pruned search against a filter over all candidate types
    for r in range(-1, 7):
        universe = list(type_universe(r))
        for refined in (False, True):
            expected = sorted(
                (t for t in universe if validate_type_reference(t, r, refined)),
                key=StabilityType.sort_key,
            )
            assert list(enumerate_types(r, refined).items) == expected, (r, refined)


def test_enumerate_types_builds_only_what_it_lists(monkeypatch):
    # no prefix that fails a bound is built, so MAX_TYPES bounds the work too
    built = []
    init = StabilityType.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilityType, "__init__", counting)
    for r, refined, listed in [(11, True, 25_139), (8, False, 24_457)]:
        built.clear()
        assert len(enumerate_types(r, refined).items) == listed
        assert len(built) == listed, (r, refined)


def test_type_validation():
    with pytest.raises(DomainError, match="ill-formed"):
        mk((0, 2), (1, 1))
    with pytest.raises(DomainError, match="ill-formed"):
        mk((1, 0))
    with pytest.raises(DomainError, match="ill-formed"):
        mk((-1, 1))


def stability_params_eps(eps):
    return StabilityParams(P52, eps)


@pytest.mark.parametrize(
    "build, value, code",
    [
        (StabilityType, ((1.7, 1),), "ill_formed_type"),
        (StabilityType, ((True, 2),), "ill_formed_type"),
        (StabilityType, (("3", 1),), "ill_formed_type"),
        (StabilityType, ((2, 1.0),), "ill_formed_type"),
        (StabilityType, [(1, 1)], "ill_formed_type"),
        (StabilityType, ((1, 1, 0),), "ill_formed_type"),
        (RamificationSequence, (0, 1.7), "ill_formed_ramification"),
        (RamificationSequence, (True, 2), "ill_formed_ramification"),
        (RamificationSequence, ("3", 4), "ill_formed_ramification"),
        (RamificationSequence, [0, 1], "ill_formed_ramification"),
        (SplittingType, ((1.5, 1), (-4, 1)), "ill_formed_splitting"),
        (SplittingType, ((1, True), (-4, 1)), "ill_formed_splitting"),
        (SplittingType, [(1, 1), (-4, 1)], "ill_formed_splitting"),
        (SplittingType, ((1, 1, 0), (-4, 1)), "ill_formed_splitting"),
        (stability_params_eps, 0.1, "bad_eps"),
        (stability_params_eps, True, "bad_eps"),
        (stability_params_eps, "1/10", "bad_eps"),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_library_values_are_not_coerced(build, value, code):
    # only plain ints (and Fractions for eps) in tuples;
    # a float, bool or str is an error, not an int()
    with pytest.raises(DomainError) as info:
        build(value)
    assert info.value.code == code


def test_enumerate_types_examples():
    items = enumerate_types(1).items
    assert [t.to_list() for t in items] == [[[0, 2]], [[1, 1]], [[1, 1], [0, 1]]]
    assert [t.to_list() for t in enumerate_types(0).items] == [[[0, 1]]]
    refined = enumerate_types(1, refined=True).items
    assert [t.to_list() for t in refined] == [[[0, 2]], [[1, 1]]]
    empty = enumerate_types(-1).items
    assert len(empty) == 1 and empty[0].p == 0
    with pytest.raises(DomainError, match="r must be >= -1"):
        enumerate_types(-2)


def test_validate_type_examples():
    # a type is valid for r exactly when it is in the table of r
    t = mk((1, 1), (0, 1))
    assert t in enumerate_types(1).items
    assert t not in enumerate_types(1, refined=True).items  # 2*m_1 + m_2 = 3 > r+1
    assert StabilityType() in enumerate_types(-1).items
    assert StabilityType() not in enumerate_types(0).items
    assert mk((0, 1)) not in enumerate_types(1).items  # cannot carry two sections
    assert mk((1, 2)) not in enumerate_types(2).items  # first pair m1*(e1+1) = 4 > r+1
    assert mk((1, 1)) not in enumerate_types(-1).items  # nonempty type, no sections


def test_enumerate_types_canonical_order():
    items = enumerate_types(3).items
    keys = [t.sort_key() for t in items]
    assert keys == sorted(keys)


def test_strata_checks_enumerate_once_per_r(monkeypatch):
    # the type table depends on r alone: 5 + 4 tables for the two checks that
    # enumerate, however many (g, k, d) they visit
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate_types(*args, **kwargs)

    monkeypatch.setattr(strata, "enumerate_types", spy)
    results = verify.run_checks("strata", 8, 5)
    assert all(res.ok for res in results), results
    assert 0 < len(calls) <= 9


def test_stratum_dimension_examples():
    assert stratum_dimension(P52, V53, mk((0, 2))) == 4
    assert stratum_dimension(P52, V53, mk((1, 1))) == 6
    assert stratum_dimension(P52, V53, mk((1, 1), (0, 1))) == 2


def test_balanced_verdict_examples():
    assert type_verdict(P52, V53, mk((1, 1))) is Verdict.NON_EMPTY
    assert square(P52, residual_vector(V53, mk((1, 1)))) == 0
    assert type_verdict(P52, V53, mk((2, 1))) is Verdict.EMPTY_BY_NECESSITY
    assert square(P52, residual_vector(V53, mk((2, 1)))) == -4
    # square dominates the multiplicity bound: with m1+m2 = 3 > k+r0 = 2 the
    # residual square is -24, so the verdict is still forced emptiness
    t = mk((1, 2), (0, 1))
    assert type_verdict(P52, V53, t) is Verdict.EMPTY_BY_NECESSITY
    assert square(P52, residual_vector(V53, t)) == -24
    # genus minus one: the square is 0, so only the bound M < k = 3 fails
    assert square(SurfaceParams(10, 3), residual_vector(MukaiVector(0, 1, 0, 0), mk((0, 3)))) == 0


def test_type_verdict_shape_errors():
    with pytest.raises(DomainError, match="expected a vector of shape"):
        type_verdict(P52, MukaiVector(0, 2, 0, -1), mk((0, 1)))  # not (r0, H - a0*E, s0 + r0)


def test_type_verdict_checks_the_shape_once(monkeypatch):
    # one shape check per type, and the types of r = 3 reach every verdict
    calls = []

    def spy(v):
        calls.append(v)
        return check_special_shape(v)

    monkeypatch.setattr(strata, "check_special_shape", spy)
    types = enumerate_types(3).items
    verdicts = {type_verdict(SurfaceParams(10, 2), V53, t) for t in types}
    assert len(calls) == len(types)
    assert verdicts == set(Verdict)


def reference_verdict(params, v, t):
    """(verdict, residual square) of t for v on MukaiVectors.

    A balanced type {(e+1, m1), (e, m2)} of a vector in a decided degree case
    gets the square of v - m1*(1, (e+1)E, 1) - m2*(1, eE, 1) and the
    multiplicity bound on m1 + m2; any other type the square of its full
    residual vector alone.
    """
    decided = v.r <= 0 and (v.ch2 < 0 or v.r == v.ch2 == 0)
    if decided and t.p == 1:
        (e, m2), m1 = t.pairs[0], 0
    elif decided and t.p == 2 and t.pairs[0][0] == t.pairs[1][0] + 1:
        (_, m1), (e, m2) = t.pairs
    else:
        sq = square(params, residual_vector(v, t))
        return (Verdict.EMPTY_BY_NECESSITY if sq < -2 else Verdict.UNKNOWN), sq
    sq = square(params, v - m1 * line_bundle_vector(e + 1) - m2 * line_bundle_vector(e))
    if sq < -2:
        return Verdict.EMPTY_BY_NECESSITY, sq
    within = m1 + m2 < params.k if v.ch2 == 0 else m1 + m2 <= params.k + v.r
    return (Verdict.NON_EMPTY if within else Verdict.UNKNOWN), sq


def test_verdicts_match_object_path():
    # 99,072 cases: every type with r <= 4 on g in {3, 5, 7}, 2 <= k <= 5 and
    # the vectors (r0, 1, -a0, s) with -2 <= r0 <= 1, 0 <= a0 <= 1, -4 <= s <= 1
    types = [t for r in range(-1, 5) for t in enumerate_types(r).items]
    vectors = [
        MukaiVector(r0, 1, -a0, s) for r0 in range(-2, 2) for a0 in range(2) for s in range(-4, 2)
    ]
    cases = 0
    for params in [SurfaceParams(g, k) for g in (3, 5, 7) for k in range(2, 6)]:
        for v in vectors:
            for t in types:
                verdict, sq = reference_verdict(params, v, t)
                assert type_verdict(params, v, t) is verdict, (params, v, t)
                assert strata._residual_square(params, v, t.sum_m, t.sum_me) == sq, (params, v, t)
                cases += 1
    assert cases == 99_072


def test_enumerate_types_budget(monkeypatch):
    assert len(enumerate_types(5).items) == 473
    monkeypatch.setattr(strata, "MAX_TYPES", 473)
    assert len(enumerate_types(5).items) == 473
    assert len(enumerate_types(6, refined=True).items) == 278
    monkeypatch.setattr(strata, "MAX_TYPES", 472)
    with pytest.raises(SearchBudgetExceeded, match="473 types > limit 472"):
        enumerate_types(5)


def test_enumerate_types_budget_bounds_large_r(monkeypatch):
    # the walk has no recursion, so at r = 2000 the budget is reached, not
    # the recursion limit
    monkeypatch.setattr(strata, "MAX_TYPES", 1_000)
    with pytest.raises(SearchBudgetExceeded, match="1001 types > limit 1000"):
        enumerate_types(2000)


def test_type_sums_work_pinned(monkeypatch):
    # a transition is one (state, e, m) the DP visits; keyed by M alone the
    # refined DP visits 1,989 at r = 20
    bound, bounds = strata._max_multiplicity, []

    def counting(*args):
        bounds.append(bound(*args))
        return bounds[-1]

    monkeypatch.setattr(strata, "_max_multiplicity", counting)
    for refined, transitions in [(False, 4_080), (True, 1_989)]:
        bounds.clear()
        strata._type_sums.__wrapped__(20, refined)  # past the cache, which may hold r = 20
        assert sum(max(0, b) for b in bounds) == transitions, refined


@pytest.mark.parametrize("refined", [False, True])
def test_type_sums_match_enumeration(refined):
    for r in range(-1, 9):
        sums = {}
        for t in enumerate_types(r, refined).items:
            sums[t.sum_m] = sums.get(t.sum_m, 0) | 1 << t.sum_me
        table = strata._type_sums(r, refined)
        assert dict(table) == sums, r
        assert [sum_m for sum_m, _ in table] == sorted(sums, reverse=True), r


def test_type_sums_built_once_per_r():
    # dimension_bounds sweeps 540 (surface, vector, r) instances over r = 0..4
    strata._type_sums.cache_clear()
    verify.check_strata_dimension_bounds(8, 5)
    assert strata._type_sums.cache_info().misses == 5


@pytest.mark.parametrize(
    "params, v, t, expected",
    [
        (P52, MukaiVector(1, 1, 0, -1), mk((0, 1)), Verdict.UNKNOWN),  # balanced, v.r > 0
        (P52, MukaiVector(0, 1, 0, 1), mk((0, 1)), Verdict.UNKNOWN),  # ch2 > 0
        (P52, MukaiVector(-1, 1, 0, -1), mk((0, 1)), Verdict.UNKNOWN),  # ch2 = 0, v.r < 0
        (SurfaceParams(10, 3), MukaiVector(0, 1, 0, 0), mk((0, 2)), Verdict.NON_EMPTY),  # genus - 1
        (P52, V53, mk((2, 1), (0, 1)), Verdict.EMPTY_BY_NECESSITY),  # unbalanced, square -12
        (SurfaceParams(20, 2), V53, mk((2, 1), (0, 1)), Verdict.UNKNOWN),  # unbalanced, square 18
        (SurfaceParams(20, 2), V53, mk((0, 3)), Verdict.UNKNOWN),  # balanced, M = 3 > k + r0 = 2
        (SurfaceParams(10, 3), MukaiVector(0, 1, 0, 0), mk((0, 3)), Verdict.UNKNOWN),  # genus - 1, M = k
    ],
)
def test_type_verdict_cases(params, v, t, expected):
    assert type_verdict(params, v, t) is expected


@pytest.mark.parametrize("refined", [False, True], ids=["plain", "refined"])
def test_balanced_types_are_enumerated(type_table, refined):
    # verify's nonexistence check lets balanced_type(r, ell) stand for every type of
    # its ell, which needs it to be a valid type, of that ell, for each ell in 0..r
    for r in range(9):
        items = enumerate_types(r, refined=True).items if refined else type_table[r]
        for ell in range(r + 1):
            t = balanced_type(r, ell)
            assert t in items and ell_value(t, r) == ell, (r, ell, refined)


def test_balanced_type_examples():
    assert balanced_type(7, 5) == mk((2, 2), (1, 1))  # e = 1, m1 = 2, m2 = 1
    assert balanced_type(3, 0) == mk((0, 4))  # m1 = 0 leaves one pair


def test_wall_sequence_examples():
    sp = StabilityParams(SurfaceParams(3, 2), Fraction(1, 10))
    v = MukaiVector(0, 1, 0, -1)
    walls = wall_sequence(sp, v, mk((1, 1)))
    assert [w.w for w in walls] == [Fraction(25, 132)]
    walls = wall_sequence(sp, v, mk((0, 1)))
    assert walls[0].kind == "origin_ray" and walls[0].w == 0
    walls = wall_sequence(sp, v, mk((1, 1), (0, 1)))
    assert [w.w for w in walls] == [Fraction(25, 132), Fraction(0)]
    assert residual_vector(v, mk((1, 1))) == MukaiVector(-1, 1, -1, -2)


def test_wall_sequence_non_monotone():
    sp = StabilityParams(SurfaceParams(3, 2), Fraction(9, 10))
    with pytest.raises(DomainError, match="non-monotone"):
        wall_sequence(sp, MukaiVector(0, 1, 0, -1), mk((2, 2), (1, 1)))


def test_wall_sequence_shape_errors():
    sp = StabilityParams(SurfaceParams(3, 2), Fraction(1, 10))
    with pytest.raises(DomainError):
        wall_sequence(sp, MukaiVector(0, 1, 0, 1), mk((1, 1)))
    with pytest.raises(DomainError):
        wall_sequence(sp, MukaiVector(0, 2, 0, -1), mk((1, 1)))


def test_residual_square_meaning():
    # the integer residual square is the square of the full residual vector
    t = mk((1, 1), (0, 1))
    assert strata._residual_square(P52, V53, t.sum_m, t.sum_me) == square(P52, residual_vector(V53, t))
    # the square filter keeps a type exactly when that square is >= -2
    assert passes_square_filter(P52, V53, mk((1, 1)))  # square 0
    assert not passes_square_filter(P52, V53, mk((2, 1)))  # square -4


def test_square_filter_check_catches_a_moved_threshold(monkeypatch):
    # the check compares the filter with the square of the residual MukaiVector;
    # the verdict calls the filter, so only that comparison can catch the move
    def moved(params, v, t):
        return strata._residual_square(params, v, t.sum_m, t.sum_me) >= 0

    monkeypatch.setattr(strata, "passes_square_filter", moved)
    with pytest.raises(verify.CheckFailed, match=r"filter/square mismatch for \[\[1, 1\]\] at \(3,2,2,1\)"):
        verify.check_strata_square_filter(8, 5)


def reference_numerics(params, v, t):
    """(stratum_dimension, passes_square_filter) of t evaluated on MukaiVectors."""
    running, correction = v, 0
    for e, m in t.pairs:
        u = line_bundle_vector(e)
        running = running - m * u
        correction += m * (mukai_pairing(params, running, u) - m)
    residual_square = square(params, residual_vector(v, t))
    return residual_square + 2 + correction, residual_square >= -2


def integer_numerics(params, v, t):
    return stratum_dimension(params, v, t), passes_square_filter(params, v, t)


# special shape, then r0 < 0, x != 1 (including 0 and negative) and positive y
KERNEL_VECTORS = [
    V53,
    MukaiVector(-2, 1, -1, -5),
    MukaiVector(3, 2, 4, 1),
    MukaiVector(-1, -1, 2, 0),
    MukaiVector(0, 0, 5, -2),
]


def test_integer_kernel_matches_object_path(type_table):
    params = SurfaceParams(9, 4)
    for v in KERNEL_VECTORS:
        for r in range(0, 7):
            for t in type_table[r]:
                assert integer_numerics(params, v, t) == reference_numerics(params, v, t), (v, t)


@given(
    g=st.integers(3, 40),
    k=st.integers(2, 12),
    entries=st.tuples(*[st.integers(-10**6, 10**6)] * 4),
    levels=st.dictionaries(st.integers(0, 50), st.integers(1, 30), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_integer_kernel_matches_object_path_random(g, k, entries, levels):
    params, v = SurfaceParams(g, k), MukaiVector(*entries)
    t = StabilityType(tuple(sorted(levels.items(), reverse=True)))
    assert integer_numerics(params, v, t) == reference_numerics(params, v, t)


def test_dimension_extremes_examples():
    # r = 1: (0,2) has ell 0, dim 4; (1,1) ell 1, dim 6; (1,1),(0,1) ell 0, dim 2,
    # and only the last is not saturated
    assert dimension_extremes(P52, V53, 1) == (
        StratumExtremes(ell=0, least=2, largest=4, saturated=4),
        StratumExtremes(ell=1, least=6, largest=6, saturated=6),
    )
    # r = -1: the empty type, whose stratum has dimension v^2 + 2 = 10
    assert dimension_extremes(P52, V53, -1) == (StratumExtremes(0, 10, 10, 10),)
    with pytest.raises(DomainError, match="r must be >= -1"):
        dimension_extremes(P52, V53, -2)


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize(
    "params, v",
    [
        (SurfaceParams(9, 4), MukaiVector(0, 1, 0, -3)),  # x*k > 0: the least S is largest
        (SurfaceParams(6, 3), MukaiVector(-1, -2, 3, 1)),  # x*k < 0: the greatest S is
        (SurfaceParams(5, 5), MukaiVector(2, 0, 1, 3)),  # x = 0: S does not matter
    ],
)
def test_dimension_extremes_match_enumeration(params, v, refined, type_table):
    for r in range(-1, 9):
        least, largest, saturated = {}, {}, {}
        for t in type_table[r]:
            if not validate_type_reference(t, r, refined):
                continue
            ell, dim = ell_value(t, r), stratum_dimension(params, v, t)
            least[ell] = min(dim, least.get(ell, dim))
            largest[ell] = max(dim, largest.get(ell, dim))
            if t.weighted_sections() == r + 1:
                saturated.setdefault(ell, set()).add(dim)
        assert all(len(dims) == 1 for dims in saturated.values())
        enumerated = [
            (ell, least[ell], largest[ell], min(saturated.get(ell, {None})))
            for ell in sorted(least)
        ]
        fast = [
            (x.ell, x.least, x.largest, x.saturated)
            for x in dimension_extremes(params, v, r, refined)
        ]
        assert fast == enumerated, (r, refined)
