from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3walls import (
    DomainError,
    MukaiVector,
    RamificationSequence,
    SplittingType,
    StabilityParams,
    StabilityType,
    StratumExtremes,
    SurfaceParams,
    Tableau,
    Verdict,
    balanced_nonempty,
    balanced_type,
    dimension_extremes,
    ell_value,
    enumerate_types,
    lemma_key_scan,
    line_bundle_vector,
    mukai_pairing,
    passes_square_filter,
    square,
    stratum_dimension,
    type_verdict,
    wall_sequence,
)
from k3walls import strata, verify
from k3walls.errors import SearchBudgetExceeded
from k3walls.lattice import check_special_shape

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
    post_init = StabilityType.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(StabilityType, "__post_init__", counting)
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


def lemma_key_scan_eps(eps):
    return lemma_key_scan(P52, 0, eps)


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
        (Tableau.from_list, [[1.7, True], ["3", 4]], "ill_formed_tableau"),
        (Tableau.from_list, [[1, 2], [True, 3]], "ill_formed_tableau"),
        (Tableau.from_list, ((1, 2), (2, 3)), "ill_formed_tableau"),
        (Tableau.from_list, [(1, 2)], "ill_formed_tableau"),
        (SplittingType, ((1.5, 1), (-4, 1)), "ill_formed_splitting"),
        (SplittingType, ((1, True), (-4, 1)), "ill_formed_splitting"),
        (SplittingType, [(1, 1), (-4, 1)], "ill_formed_splitting"),
        (SplittingType, ((1, 1, 0), (-4, 1)), "ill_formed_splitting"),
        (stability_params_eps, 0.1, "bad_eps"),
        (stability_params_eps, True, "bad_eps"),
        (stability_params_eps, "1/10", "bad_eps"),
        (lemma_key_scan_eps, 0.1, "bad_eps"),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_library_values_are_not_coerced(build, value, code):
    # only plain ints (and Fractions for eps) in tuples, or lists for a tableau;
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
    # the type table depends on r alone: 5 + 4 + 4 tables for the three checks
    # that enumerate, however many (g, k, d) they visit
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate_types(*args, **kwargs)

    monkeypatch.setattr(strata, "enumerate_types", spy)
    results = verify.run_checks("strata", 8, 5)
    assert all(res.ok for res in results), results
    assert 0 < len(calls) <= 13


def test_stratum_dimension_examples():
    assert stratum_dimension(P52, V53, mk((0, 2))) == 4
    assert stratum_dimension(P52, V53, mk((1, 1))) == 6
    assert stratum_dimension(P52, V53, mk((1, 1), (0, 1))) == 2


def test_balanced_nonempty_examples():
    res = balanced_nonempty(P52, V53, mk((1, 1)))
    assert res.verdict is Verdict.NON_EMPTY and res.square == 0
    res = balanced_nonempty(P52, V53, mk((2, 1)))
    assert res.verdict is Verdict.EMPTY_BY_NECESSITY and res.square == -4
    # square dominates the multiplicity bound: with m1+m2 = 3 > k+r0 = 2 the
    # residual square is -24, so the verdict is still forced emptiness
    res = balanced_nonempty(P52, V53, mk((1, 2), (0, 1)))
    assert res.verdict is Verdict.EMPTY_BY_NECESSITY and res.square == -24


def test_balanced_nonempty_unknown():
    # square fine, multiplicity bound violated: genuinely undecided
    params = SurfaceParams(20, 2)
    v = MukaiVector(0, 1, 0, -1)  # degree 18
    res = balanced_nonempty(params, v, mk((0, 3)))
    assert res.verdict is Verdict.UNKNOWN
    assert res.square >= -2


def test_balanced_nonempty_genus_minus_one():
    params = SurfaceParams(10, 3)
    v = MukaiVector(0, 1, 0, 0)  # rank 0, ch2 = 0: the genus-minus-one case
    res = balanced_nonempty(params, v, mk((0, 2)))
    assert res.verdict is Verdict.NON_EMPTY  # m1+m2 = 2 < k = 3
    res = balanced_nonempty(params, v, mk((0, 3)))
    assert res.square == 0
    assert res.verdict is Verdict.UNKNOWN  # m1+m2 = 3 is not strictly below k


def test_balanced_nonempty_errors():
    with pytest.raises(DomainError, match="no balanced verdict"):
        balanced_nonempty(P52, V53, mk((3, 1), (1, 1)))  # levels 3 and 1 are not adjacent
    with pytest.raises(DomainError, match="no balanced verdict"):
        balanced_nonempty(P52, MukaiVector(1, 1, 0, 0), mk((0, 1)))  # positive rank
    with pytest.raises(DomainError, match="no balanced verdict"):
        balanced_nonempty(P52, MukaiVector(-1, 1, 0, -1), mk((0, 1)))  # ch2 = 0 off rank 0
    for decide in (balanced_nonempty, type_verdict):
        with pytest.raises(DomainError, match="expected a vector of shape"):
            decide(P52, MukaiVector(0, 2, 0, -1), mk((0, 1)))  # not (r0, H - a0*E, s0 + r0)


def test_type_verdict_checks_the_shape_once(monkeypatch):
    # a balanced type is decided by the data of one _balanced_case call
    calls = []

    def spy(v):
        calls.append(v)
        return check_special_shape(v)

    monkeypatch.setattr(strata, "check_special_shape", spy)
    types = enumerate_types(3).items
    verdicts = [type_verdict(P52, V53, t) for t in types]
    assert len(calls) == len(types)
    balanced = [(t, verdict) for t, verdict in zip(types, verdicts) if strata._balanced_case(V53, t)]
    assert balanced
    assert all(balanced_nonempty(P52, V53, t).verdict is verdict for t, verdict in balanced)


def test_enumerate_types_budget(monkeypatch):
    assert len(enumerate_types(5).items) == 473
    monkeypatch.setattr(strata, "MAX_TYPES", 473)
    assert len(enumerate_types(5).items) == 473
    assert len(enumerate_types(6, refined=True).items) == 278
    monkeypatch.setattr(strata, "MAX_TYPES", 472)
    with pytest.raises(SearchBudgetExceeded, match="473 types > limit 472"):
        enumerate_types(5)


@pytest.mark.parametrize(
    "params, v, t, expected",
    [
        (P52, MukaiVector(1, 1, 0, -1), mk((0, 1)), Verdict.UNKNOWN),  # balanced, v.r > 0
        (P52, MukaiVector(0, 1, 0, 1), mk((0, 1)), Verdict.UNKNOWN),  # ch2 > 0
        (P52, MukaiVector(-1, 1, 0, -1), mk((0, 1)), Verdict.UNKNOWN),  # ch2 = 0, v.r < 0
        (SurfaceParams(10, 3), MukaiVector(0, 1, 0, 0), mk((0, 2)), Verdict.NON_EMPTY),  # genus - 1
        (P52, V53, mk((2, 1), (0, 1)), Verdict.EMPTY_BY_NECESSITY),  # unbalanced, square -12
        (SurfaceParams(20, 2), V53, mk((2, 1), (0, 1)), Verdict.UNKNOWN),  # unbalanced, square 18
    ],
)
def test_type_verdict_cases(params, v, t, expected):
    assert type_verdict(params, v, t) is expected


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
    # residual square of the full type equals the balanced witness square
    t = mk((1, 1), (0, 1))
    res = balanced_nonempty(P52, V53, t)
    assert res.square == square(P52, residual_vector(V53, t))
    # the square filter keeps a type exactly when that square is >= -2
    assert passes_square_filter(P52, V53, mk((1, 1)))  # square 0
    assert not passes_square_filter(P52, V53, mk((2, 1)))  # square -4


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
