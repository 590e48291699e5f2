"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the lines).
"""

import functools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import k3walls
from k3walls import (
    MukaiVector,
    StabilityParams,
    StabilityPoint,
    SurfaceParams,
    build_chain,
    default_epsilon,
    discriminant,
    ell_decompose,
    enumerate_types,
    epsilon_threshold,
    gram_signature,
    line_bundle_vector,
    mukai_pairing,
    oracle_check,
    projection,
    rho,
    slope,
    square,
    verify_chain,
    wall_on_axis,
    wall_sequence,
)
from k3walls import verify
from k3walls.hbn import degeneracy_dims

GOLDEN = pathlib.Path(__file__).parent / "golden"
# the directory holding the k3walls package, absolute so that child processes
# started in another working directory import the same code as this test
PACKAGE_ROOT = pathlib.Path(k3walls.__file__).resolve().parent.parent


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


@criterion(1, "tableaux agree with the closed formula")
def test_criterion_1_tableaux_formula_agreement():
    start = time.monotonic()
    checked = 0
    for g in range(3, 9):
        for k in range(2, 6):
            for r in range(0, 4):
                for d in range(1, g):
                    if g - d + r < 1 or (r + 1) * (g - d + r) > 12:
                        continue
                    report = oracle_check(g, k, r, d)  # raises on omitted > rho_k etc.
                    if report.feasible:
                        assert report.omitted <= report.rho_k
                        if report.rho_k >= 0:
                            assert report.equality, (g, k, r, d)
                    else:
                        assert report.rho_k < 0, (g, k, r, d)
                    checked += 1
    elapsed = time.monotonic() - start
    assert checked > 0
    assert elapsed < 60, f"tableaux sweep took {elapsed:.1f}s"


@criterion(2, "stratum dimension identity")
def test_criterion_2_stratum_dimension_identity():
    start = time.monotonic()
    # g <= 30, k <= 10, 0 <= d < g, r <= 6, every ell with a balanced type
    result = verify.check_strata_dimension_identity(30, 10)
    assert result.ok, result.detail
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"dimension sweep took {elapsed:.1f}s"


@criterion(3, "degeneracy-locus identities")
def test_criterion_3_degeneracy_identities():
    for g in range(3, 31):
        for k in range(2, 11):
            for d in range(0, g):
                for r in range(0, 7):
                    for ell in range(max(0, r + 2 - k), r + 1):
                        dims = degeneracy_dims(g, k, d, r, ell)  # raises on mismatch
                        assert dims.expected_dim == rho(g, r - ell, d) - ell * k
                        dec = ell_decompose(r, ell)
                        e, m1 = dec.e, dec.m1
                        lhs = rho(g, m1 - 1, d - (e + 1) * k)
                        rhs = (
                            rho(g, r - ell, d)
                            - ell * k
                            + (r - ell - m1 + 1) * (g + e * k - d + r - ell + m1)
                        )
                        assert lhs == rhs, (g, k, d, r, ell)


@criterion(4, "non-existence consistency")
def test_criterion_4_nonexistence_consistency():
    # g <= 8, k <= 5, 1 <= d < g, r <= 3: wherever rho_k < 0, every type has a
    # negative count and every enumerated balanced type is empty by necessity
    result = verify.check_strata_nonexistence(8, 5)
    assert result.ok, result.detail


@criterion(5, "wall arithmetic and monotone sequences")
def test_criterion_5_wall_arithmetic():
    params = SurfaceParams(3, 2)
    sp = StabilityParams(params, Fraction(1, 10))
    v = MukaiVector(0, 1, 0, -1)
    assert wall_on_axis(sp, v, line_bundle_vector(1)).w == Fraction(25, 132)
    assert wall_on_axis(sp, v, line_bundle_vector(2)).w == Fraction(25, 66)
    pt = StabilityPoint(Fraction(0), Fraction(7, 3))
    assert slope(sp, pt, v) == Fraction(-5, 12)
    assert projection(sp, MukaiVector(1, 0, 1, 1)) == (Fraction(5, 11), Fraction(0))
    assert epsilon_threshold(params, 0) == Fraction(2, 5)

    rng = random.Random(90210)
    accepted = 0
    while accepted < 100:
        g = rng.randint(3, 8)
        k = rng.randint(2, 5)
        surf = SurfaceParams(g, k)
        r0 = rng.choice([0, 0, 0, -1, -2])
        a0 = rng.randint(0, max(0, (g - 1) // k))
        if r0 == 0:
            vec = MukaiVector(0, 1, -a0, rng.randint(-(g - a0 * k), -1))
        else:
            vec = MukaiVector(r0, 1, -a0, rng.randint(-5, -1) + r0)
        r = rng.randint(0, 4)
        candidates = [
            t for t in enumerate_types(surf, vec, r, square_filtered=True).items if t.p > 0
        ]
        if not candidates:
            continue
        t = rng.choice(candidates)
        eps = default_epsilon(surf, vec) * rng.choice(
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
        )
        walls = wall_sequence(StabilityParams(surf, eps), vec, t)
        ws = [w.w for w in walls]
        assert all(a > b for a, b in zip(ws, ws[1:])), (g, k, vec, t.to_list(), eps)
        accepted += 1


@criterion(6, "two-value scan finds no counterexample")
def test_criterion_6_lemma_scan():
    start = time.monotonic()
    # g <= 8, k <= 5, m <= 4, eps at 1/2, 3/4 and 9/10 of the threshold, box 12
    result = verify.check_stability_lemma_key(8, 5)
    assert result.ok, result.detail
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"scan took {elapsed:.1f}s"


@criterion(7, "chain construction verifies")
def test_criterion_7_chain_verification():
    worked = build_chain(4, 3, 1, 3)
    trace = [(c.alpha_in.to_list(), c.alpha_out.to_list()) for c in worked.components]
    assert trace == [([0, 0], [1, 2]), ([0, 1], [1, 1]), ([1, 1], [0, 1]), ([1, 2], [0, 0])]
    assert all(c.adjusted_rho == 0 for c in worked.components)
    for g in range(3, 11):
        for r in range(0, 5):
            for k in range(r + 2, 7):
                for d in range(0, g):
                    if rho(g, r, d) < 0:
                        continue
                    report = verify_chain(build_chain(g, k, r, d))
                    assert report.ok, (g, k, r, d, report.failures[:2])
                    assert report.total_adjusted == rho(g, r, d)


@criterion(8, "lattice identities at scale")
def test_criterion_8_lattice_suite():
    for g in range(3, 9):
        for k in range(2, 6):
            params = SurfaceParams(g, k)
            for e in range(0, 101):
                assert square(params, line_bundle_vector(e)) == -2
            assert gram_signature(params) == (2, 2)
    params = SurfaceParams(7, 3)
    rng = random.Random(987654321)
    for _ in range(10**4):
        v = MukaiVector(*(rng.randint(-10**6, 10**6) for _ in range(4)))
        assert discriminant(params, v) == square(params, v) + 2 * v.r * v.r
        w = MukaiVector(*(rng.randint(-10**6, 10**6) for _ in range(4)))
        assert mukai_pairing(params, v, w) == mukai_pairing(params, w, v)


GOLDEN_COMMANDS = {
    "rho_k.json": ["rho-k", "--g", "5", "--k", "2", "--r", "1", "--d", "3"],
    "walls.json": [
        "walls", "--g", "3", "--k", "2", "--eps", "1/10",
        "--v", "0,1,0,-1", "--type", "[[1,1]]",
    ],
    "tableaux.json": ["tableaux", "--g", "2", "--k", "2", "--r", "1", "--d", "1"],
    "types.json": ["types", "--g", "4", "--k", "2", "--v", "0,1,0,0", "--r", "1"],
    "verify.json": ["verify", "--suite", "all", "--max-g", "5", "--max-k", "3"],
}

GOLDEN_PLOTS = {
    "plot_rank_zero": [
        "plot-walls", "--g", "3", "--k", "2", "--eps", "1/10",
        "--v", "0,1,0,-1", "--type", "[[2,1],[1,1]]",
    ],
    "plot_projection": [
        "plot-walls", "--g", "3", "--k", "2", "--eps", "1/10", "--v", "1,0,1,1",
    ],
}


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "k3walls", *args],
        cwd=cwd, env=env, capture_output=True, check=True,
    )
    return proc.stdout


@criterion(9, "golden outputs byte-identical")
def test_criterion_9_golden_files(tmp_path):
    for name, args in GOLDEN_COMMANDS.items():
        out = _run(args, tmp_path)
        assert out == (GOLDEN / name).read_bytes(), f"{name} differs"
    for stem, args in GOLDEN_PLOTS.items():
        out = _run([*args, "--out", f"{stem}.svg"], tmp_path)
        assert out == (GOLDEN / f"{stem}.json").read_bytes()
        svg = (tmp_path / f"{stem}.svg").read_bytes()
        assert svg == (GOLDEN / f"{stem}.svg").read_bytes()
    # sanity on the golden payloads themselves
    doc = json.loads((GOLDEN / "verify.json").read_text())
    assert doc["result"]["failed"] == 0
    doc = json.loads((GOLDEN / "rho_k.json").read_text())
    assert doc["result"] == {"rho_k": 1, "argmax_ell": [1]}
    doc = json.loads((GOLDEN / "walls.json").read_text())
    assert doc["result"]["walls"][0]["w"] == "25/132"
    doc = json.loads((GOLDEN / "tableaux.json").read_text())
    assert doc["result"]["feasible"] is False
