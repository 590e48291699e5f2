import pytest

from k3walls import (
    ChainComponent,
    ChainSeries,
    DomainError,
    RamificationSequence,
    build_chain,
    complement,
    rho,
    verify_chain,
)
from k3walls import verify


def seq(*alphas):
    return RamificationSequence(tuple(alphas))


def test_complement_examples():
    assert complement(1, 3, seq(1, 1)) == seq(1, 1)
    assert complement(1, 3, seq(0, 0)) == seq(2, 2)
    with pytest.raises(DomainError) as info:
        complement(-1, 3, seq())  # no entries to check
    assert info.value.code == "bad_rank"


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
