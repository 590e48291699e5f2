import pytest

from k3walls import chains, verify
from k3walls.chains import (
    ChainComponent,
    ChainSeries,
    RamificationSequence,
    build_chain,
    complement,
    verify_chain,
)
from k3walls.errors import DomainError
from k3walls.hbn import rho


def seq(*alphas):
    return RamificationSequence(tuple(alphas))


def test_complement_examples():
    assert complement(1, 3, seq(1, 1)) == seq(1, 1)
    assert complement(1, 3, seq(0, 0)) == seq(2, 2)
    with pytest.raises(DomainError) as info:
        complement(-1, 3, seq())  # no entries to check
    assert info.value.code == "bad_rank"


@pytest.mark.parametrize("alphas", [(-1, 0), (-2, -1), (0, 3), (1, 0), (0,), (0, 0, 0)])
def test_validate_rejects_each_bad_sequence(alphas):
    # r = 1, d = 3: two non-decreasing entries in [0, 2]
    with pytest.raises(DomainError) as info:
        seq(*alphas).validate(1, 3)
    assert info.value.code == "ill_formed_ramification"
    seq(0, 2).validate(1, 3)


def test_build_chain_boundary_value():
    # incoming data of the component closing the zero range
    for (g, k, r, d) in [(5, 4, 1, 4), (7, 4, 1, 5), (13, 5, 2, 11)]:
        if rho(g, r, d) < 0:
            continue
        boundary = 1 + (r + 1) * (g - d + r)
        if boundary > g:
            continue
        chain = build_chain(g, k, r, d)
        comp = chain.components[boundary - 1]
        assert comp.alpha_in.alphas == ((g - d + r) * r,) * (r + 1)


def test_build_chain_last_component_budget():
    chain = build_chain(5, 4, 1, 4)
    last = chain.components[-1]
    assert last.adjusted_rho == 1
    assert last.alpha_in.weight + last.alpha_out.weight == (1 + 1) * (4 - 1 - 1)
    assert sum(c.adjusted_rho for c in chain.components) == rho(5, 1, 4) == 1


def test_build_chain_preconditions():
    with pytest.raises(DomainError):
        build_chain(4, 2, 1, 3)  # k < r+2
    with pytest.raises(DomainError):
        build_chain(4, 3, 1, 4)  # d > g-1
    with pytest.raises(DomainError):
        build_chain(8, 4, 2, 3)  # rho < 0


def test_verify_chain_full_zero_range():
    report = verify_chain(build_chain(6, 4, 1, 4))
    assert report.ok and report.total_adjusted == 0


def closed_form_incoming(g, r, d, a):
    """The incoming ramification as three ranges: zero, staircase, then one progression."""
    w = g - d + r
    if a == 1:
        return (0,) * (r + 1)
    if a <= 1 + (r + 1) * w:
        b, i = divmod(a - 2, r + 1)
        i += 1  # a = 1 + b(r+1) + i with 1 <= i <= r+1
        return (b * r + i - 1,) * i + (b * r + i,) * (r + 1 - i)
    c = r * w + (a - 1 - (r + 1) * w)
    return (c,) * (r + 1)


def test_incoming_matches_closed_form():
    # the standard tableau's reading against the closed form it replaced:
    # 59,520 components with g <= 30, r <= 5, 0 <= d < g, up to the virtual a = g+1
    cases = 0
    for g in range(1, 31):
        for r in range(6):
            for d in range(g):
                for a in range(1, g + 2):
                    expected = closed_form_incoming(g, r, d, a)
                    assert chains._incoming(g, r, d, a) == expected, (g, r, d, a)
                    cases += 1
    assert cases == 59_520


def test_weight_telescoping():
    # covers (6,4,1,4), (9,5,2,8) and (9,5,1,6) among all g <= 9, k <= 5
    verify.check_chains_telescoping(9, 5)


def test_tampered_chain_detected():
    chain = build_chain(4, 3, 1, 3)
    comp = chain.components[1]
    bumped = ChainComponent(
        a=comp.a,
        alpha_in=comp.alpha_in,
        alpha_out=RamificationSequence((comp.alpha_out.alphas[0] + 1, comp.alpha_out.alphas[1])),
        adjusted_rho=comp.adjusted_rho,
    )
    tampered = ChainSeries(
        g=chain.g,
        k=chain.k,
        r=chain.r,
        d=chain.d,
        components=(chain.components[0], bumped) + chain.components[2:],
    )
    report = verify_chain(tampered)
    assert not report.ok
    assert any("component 2" in f for f in report.failures)
    assert any("complementarity" in f for f in report.failures)


def test_report_carries_convention_note():
    report = verify_chain(build_chain(5, 4, 1, 4))
    assert any("arithmetic progression" in note for note in report.notes)


def with_components(chain, components):
    return ChainSeries(chain.g, chain.k, chain.r, chain.d, components)


def test_verify_chain_needs_every_component():
    # components 2..5 of a genus-5 chain glue and telescope to rho = 1, but
    # a chain of genus 5 has five components
    chain = build_chain(5, 4, 1, 4)
    report = verify_chain(with_components(chain, chain.components[1:]))
    assert not report.ok
    assert report.failures == ("components are not numbered 1..5",)
    report = verify_chain(with_components(chain, chain.components[:-1]))
    assert report.failures == (
        "components are not numbered 1..5",
        "total adjusted count 0 != rho = 1",
    )


def test_verify_chain_stored_count_detected():
    chain = build_chain(5, 4, 1, 4)
    comp = chain.components[2]
    bumped = ChainComponent(comp.a, comp.alpha_in, comp.alpha_out, comp.adjusted_rho + 1)
    components = chain.components[:2] + (bumped,) + chain.components[3:]
    report = verify_chain(with_components(chain, components))
    assert report.failures == (
        "component 3: stored adjusted count 1 != 0",
        "total adjusted count 2 != rho = 1",
    )


def test_verify_chain_pattern_detected():
    # moving one unit of weight across node 1 keeps complementarity and the
    # total, but components 1 and 2 leave the zero range's 0/1 pattern
    chain = build_chain(5, 4, 1, 4)
    first, second = chain.components[:2]
    assert (first.alpha_out, second.alpha_in) == (seq(2, 3), seq(0, 1))
    first = ChainComponent(first.a, first.alpha_in, seq(1, 3), 1)
    second = ChainComponent(second.a, seq(0, 2), second.alpha_out, -1)
    report = verify_chain(with_components(chain, (first, second) + chain.components[2:]))
    assert report.total_adjusted == 1
    assert report.failures == (
        "component 1: adjusted count 1, expected 0",
        "component 2: adjusted count -1, expected 0",
    )


def test_chain_and_report_do_not_read_k():
    # the chain checks build and check one chain per (g, d, r), at the first k
    for g in range(1, 13):
        for d in range(g):
            for r in range(5):
                if rho(g, r, d) < 0:
                    continue
                first = build_chain(g, r + 2, r, d)
                report = verify_chain(first)
                for k in range(r + 3, r + 6):
                    chain = build_chain(g, k, r, d)
                    assert chain.components == first.components
                    assert verify_chain(chain) == report
