"""The contract every value class keeps: fields, equality, hashing, repr, immutability."""

from fractions import Fraction

import pytest

from k3walls.chains import (
    LAST_RANGE_NOTE,
    TORSION_NOTE,
    ChainComponent,
    ChainReport,
    ChainSeries,
    RamificationSequence,
)
from k3walls.hbn import DegeneracyDims, EllDecomposition, SplittingType
from k3walls.lattice import MukaiVector, PicClass, SurfaceParams
from k3walls.stability import StabilityParams, StabilityPoint, WallPoint
from k3walls.strata import StabilityType, StratumExtremes, TypeEnumeration
from k3walls.tableaux import OracleReport, SearchResult, Tableau
from k3walls.verify import CheckResult

SEQ = RamificationSequence((0, 1))
ONE_CELL = Tableau(((1,),))

# (class, positional field values, repr); every value class of the package appears once
SAMPLES = [
    (SurfaceParams, (5, 2), "SurfaceParams(g=5, k=2)"),
    (PicClass, (1, -2), "PicClass(x=1, y=-2)"),
    (MukaiVector, (0, 1, -1, 2), "MukaiVector(r=0, x=1, y=-1, s=2)"),
    (EllDecomposition, (3, 1, 0, 2), "EllDecomposition(ell=3, e=1, m1=0, m2=2)"),
    (DegeneracyDims, (1, 2, 3, -4), "DegeneracyDims(s=1, rk_e=2, rk_f=3, expected_dim=-4)"),
    (SplittingType, (((1, 2), (-1, 1)),), "SplittingType(pairs=((1, 2), (-1, 1)))"),
    (
        StabilityParams,
        (SurfaceParams(5, 2), Fraction(1, 3)),
        "StabilityParams(surface=SurfaceParams(g=5, k=2), eps=Fraction(1, 3))",
    ),
    (StabilityPoint, (Fraction(-1), Fraction(1, 2)), "StabilityPoint(b=Fraction(-1, 1), w=Fraction(1, 2))"),
    (
        WallPoint,
        (Fraction(1, 2), MukaiVector(1, 0, 1, 1), "line_bundle", 1),
        "WallPoint(w=Fraction(1, 2), destabilizer=MukaiVector(r=1, x=0, y=1, s=1), kind='line_bundle', e=1)",
    ),
    (StabilityType, (((2, 1), (0, 2)),), "StabilityType(pairs=((2, 1), (0, 2)))"),
    (
        TypeEnumeration,
        ((StabilityType(((0, 1),)),),),
        "TypeEnumeration(items=(StabilityType(pairs=((0, 1),)),))",
    ),
    (StratumExtremes, (1, -3, 4, None), "StratumExtremes(ell=1, least=-3, largest=4, saturated=None)"),
    (Tableau, (((1, 2), (3, 4)),), "Tableau(grid=((1, 2), (3, 4)))"),
    (
        SearchResult,
        (True, 1, ONE_CELL, 7),
        "SearchResult(feasible=True, omitted=1, witness=Tableau(grid=((1,),)), nodes=7)",
    ),
    (
        OracleReport,
        (True, 1, 1, (0, 1), True, None),
        "OracleReport(feasible=True, omitted=1, rho_k=1, argmax_ell=(0, 1), equality=True, witness=None)",
    ),
    (RamificationSequence, ((0, 1),), "RamificationSequence(alphas=(0, 1))"),
    (
        ChainComponent,
        (1, SEQ, SEQ, 0),
        "ChainComponent(a=1, alpha_in=RamificationSequence(alphas=(0, 1)), "
        "alpha_out=RamificationSequence(alphas=(0, 1)), adjusted_rho=0)",
    ),
    (ChainSeries, (5, 4, 1, 4, ()), "ChainSeries(g=5, k=4, r=1, d=4, components=())"),
    (
        ChainReport,
        (False, ("bad",), 0, 1, ("note",)),
        "ChainReport(ok=False, failures=('bad',), total_adjusted=0, expected_total=1, notes=('note',))",
    ),
    (CheckResult, ("lattice.signature", True, "ok"), "CheckResult(name='lattice.signature', ok=True, detail='ok')"),
]


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=[cls.__name__ for cls, _, _ in SAMPLES])
def test_value_class_contract(cls, args, text):
    fields = cls.__match_args__
    assert len(fields) == len(args)
    value = cls(*args)
    assert value == cls(**dict(zip(fields, args)))
    assert tuple(getattr(value, name) for name in fields) == args
    assert hash(value) == hash(args)
    assert repr(value) == text
    # equal field values in another class are a different value
    twin = type("Twin", (cls,), {})(*args)
    assert value != twin and twin != value
    for name in fields + ("unrelated",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_value_classes_with_equal_fields_differ():
    assert MukaiVector(1, 2, 3, 4) != EllDecomposition(1, 2, 3, 4) != DegeneracyDims(1, 2, 3, 4)
    assert PicClass(5, 2) != SurfaceParams(5, 2)
    assert SplittingType(((1, 1),)) != StabilityType(((1, 1),))


def test_value_class_defaults():
    wall = WallPoint(Fraction(0), MukaiVector(1, 0, 0, 1), "origin_ray")
    assert wall.e is None and wall == WallPoint(Fraction(0), MukaiVector(1, 0, 0, 1), "origin_ray", None)
    assert StabilityType().pairs == () and StabilityType() == StabilityType(())
    report = ChainReport(True, (), 1, 1)
    assert report.notes == (LAST_RANGE_NOTE, TORSION_NOTE)


def test_derived_attributes_are_not_fields():
    t = StabilityType(((2, 1), (0, 2)))
    assert (t.sum_m, t.sum_me) == (3, 2)
    assert StabilityType.__match_args__ == ("pairs",)
    sp = StabilityParams(SurfaceParams(5, 2), 1)
    assert (sp.scale, sp.h_eps_square_scaled, sp.h_dot_h_eps_scaled, sp.e_dot_h_eps_scaled) == (1, 12, 10, 2)
    assert StabilityParams.__match_args__ == ("surface", "eps")
    assert hash(sp) == hash((SurfaceParams(5, 2), Fraction(1)))
