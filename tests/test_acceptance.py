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
from k3walls import tableaux, verify
from k3walls.chains import build_chain
from k3walls.hbn import component_dim
from k3walls.lattice import MukaiVector, SurfaceParams, line_bundle_vector
from k3walls.stability import (
    StabilityParams,
    StabilityPoint,
    default_epsilon,
    epsilon_threshold,
    projection,
    slope,
    wall_on_axis,
)
from k3walls.strata import dimension_extremes, enumerate_types, passes_square_filter, wall_sequence
from k3walls.tableaux import oracle_check

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
def test_criterion_1_tableaux_formula_agreement(monkeypatch):
    start = time.monotonic()
    # g <= 8, k <= 5, r <= 3, 0 <= d < g:
    # oracle_check raises when omitted > rho_k or when an infeasible grid has
    # rho_k >= 0; the check also demands equality whenever rho_k >= 0
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return oracle_check(*args, **kwargs)

    monkeypatch.setattr(tableaux, "oracle_check", spy)
    verify.check_tableaux_oracle(8, 5)
    elapsed = time.monotonic() - start
    assert calls, "the tableau sweep checked no instance"
    assert elapsed < 60, f"tableaux sweep took {elapsed:.1f}s"


@criterion(2, "stratum dimension identity")
def test_criterion_2_stratum_dimension_identity():
    start = time.monotonic()
    # g <= 30, k <= 10, 0 <= d < g, r <= 6, every 0 <= ell <= r: the balanced type
    # of (r, ell) has stratum_dimension g + component_dim(g, k, r, d, ell)
    verify.check_strata_dimension_identity(30, 10)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"dimension sweep took {elapsed:.1f}s"


@criterion(3, "degeneracy-locus identities")
def test_criterion_3_degeneracy_identities():
    # g <= 40, k <= 12, 0 <= d < g, r <= 6, max(0, r+2-k) <= ell <= r: the
    # degeneracy-locus dimension equals component_dim(g, k, r, d, ell), and so does
    # its reduction to rank m1 - 1 up to the explicit correction term
    verify.check_hbn_degeneracy_identity(40, 12)


@criterion(4, "non-existence consistency")
def test_criterion_4_nonexistence_consistency():
    # g <= 8, k <= 5, 0 <= d < g, r <= 3, every 0 <= ell <= r: the balanced type of
    # (r, ell) is empty by necessity iff c_ell = component_dim(g, k, r, d, ell) < 0,
    # and, for ell >= r+2-k, non-empty iff c_ell >= 0; wherever rho_k >= 0, the
    # non-empty balanced types reach dimension g + rho_k, at exactly rho_k's
    # maximizing ells
    verify.check_strata_nonexistence(8, 5)


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
            t for t in enumerate_types(r).items if t.p > 0 and passes_square_filter(surf, vec, t)
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
    # g <= 8, k <= 5, m <= 4, eps at 1/2, 3/4 and 9/10 of the threshold: no
    # Chern character violates the two-value constraint
    verify.check_stability_lemma_key(8, 5)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"scan took {elapsed:.1f}s"


@criterion(7, "chain construction verifies")
def test_criterion_7_chain_verification():
    worked = build_chain(4, 3, 1, 3)
    trace = [(c.alpha_in.to_list(), c.alpha_out.to_list()) for c in worked.components]
    assert trace == [([0, 0], [1, 2]), ([0, 1], [1, 1]), ([1, 1], [0, 1]), ([1, 2], [0, 0])]
    assert all(c.adjusted_rho == 0 for c in worked.components)
    # g <= 10, r <= 4, r+2 <= k <= 6, rho >= 0: every chain verifies and its
    # adjusted counts add up to rho
    verify.check_chains_verify(10, 6)


@criterion(8, "lattice identities at scale")
def test_criterion_8_lattice_suite():
    # g <= 8, k <= 5: pencil powers up to e = 100 are spherical and the Gram
    # signature is (2, 2); 12,000 random vectors each for the discriminant and
    # for bilinearity, spread over the twelve surfaces with g <= 6, k <= 4
    verify.check_lattice_pencil_spherical(8, 5)
    verify.check_lattice_signature(8, 5)
    verify.check_lattice_discriminant(8, 5, budget=10**4)
    verify.check_lattice_bilinearity(8, 5, budget=10**4)


GOLDEN_COMMANDS = {
    "rho_k.json": ["rho-k", "--g", "5", "--k", "2", "--r", "1", "--d", "3"],
    "walls.json": [
        "walls", "--g", "3", "--k", "2", "--eps", "1/10",
        "--v", "0,1,0,-1", "--type", "[[1,1]]",
    ],
    "tableaux.json": ["tableaux", "--g", "2", "--k", "2", "--r", "1", "--d", "1"],
    "types.json": ["types", "--g", "4", "--k", "2", "--v", "0,1,0,0", "--r", "1"],
    "types_filtered.json": [
        "types", "--g", "6", "--k", "2", "--v", "0,1,0,0", "--r", "2", "--square-filter",
    ],
    "verify_3_2.json": ["verify", "--suite", "all", "--max-g", "3", "--max-k", "2"],
    "verify.json": ["verify", "--suite", "all", "--max-g", "5", "--max-k", "3"],
    # the grid the benchmark runs, through the forked workers of python -m k3walls
    "verify_8_5.json": ["verify", "--suite", "all", "--max-g", "8", "--max-k", "5"],
    # above the grids where some checks clamp (strata.nonexistence stops at (8, 5)),
    # so strata.dimension_identity runs at every (g, k) here
    "verify_12_7.json": ["verify", "--suite", "all", "--max-g", "12", "--max-k", "7"],
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


def child_env():
    """The environment of a child process that imports the same k3walls as this test.

    PACKAGE_ROOT goes first on PYTHONPATH; the rest of the environment, an
    existing PYTHONPATH included, is passed on.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


def run_k3walls(args, cwd):
    """stdout of ``python -m k3walls *args`` in cwd, importing this checkout's package."""
    proc = subprocess.run(
        [sys.executable, "-m", "k3walls", *args],
        cwd=cwd, env=child_env(), capture_output=True, check=True,
    )
    return proc.stdout


def write_goldens(directory):
    """Write every golden file into directory: stdout of each command, plus each plot's SVG."""
    for name, args in GOLDEN_COMMANDS.items():
        (directory / name).write_bytes(run_k3walls(args, directory))
    for stem, args in GOLDEN_PLOTS.items():
        out = run_k3walls([*args, "--out", f"{stem}.svg"], directory)
        (directory / f"{stem}.json").write_bytes(out)


@criterion(9, "golden outputs byte-identical")
def test_criterion_9_golden_files(tmp_path):
    write_goldens(tmp_path)
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(path.name for path in GOLDEN.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} differs"
    # sanity on the golden payloads themselves
    for name in ("verify_3_2.json", "verify.json", "verify_8_5.json", "verify_12_7.json"):
        doc = json.loads((GOLDEN / name).read_text())
        assert doc["result"]["failed"] == 0
    doc = json.loads((GOLDEN / "rho_k.json").read_text())
    assert doc["result"] == {"rho_k": 1, "argmax_ell": [1]}
    doc = json.loads((GOLDEN / "walls.json").read_text())
    assert doc["result"]["walls"][0]["w"] == "25/132"
    doc = json.loads((GOLDEN / "tableaux.json").read_text())
    assert doc["result"]["feasible"] is False


@criterion(10, "dimension bound through the DP")
def test_criterion_10_dimension_bound_dp():
    start = time.monotonic()
    # r <= 20, plain and refined types, on four (g, k, d) with v = (0, H, 1+d-g):
    # every ell has types, none exceeds g + component_dim(g, k, r, d, ell), and the
    # saturated ones reach it.  Enumeration cannot get here: r = 10 already
    # has 353,657 types.
    for g, k, d in ((9, 4, 5), (12, 3, 7), (20, 5, 14), (6, 2, 1)):
        params = SurfaceParams(g, k)
        v = MukaiVector(0, 1, 0, 1 + d - g)
        for r in range(0, 21):
            for refined in (False, True):
                extremes = dimension_extremes(params, v, r, refined)
                assert [ext.ell for ext in extremes] == list(range(r + 1))
                for ext in extremes:
                    bound = g + component_dim(g, k, r, d, ext.ell)
                    assert ext.largest <= bound, (g, k, d, r, refined, ext)
                    assert ext.saturated == bound, (g, k, d, r, refined, ext)
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"DP sweep took {elapsed:.1f}s"
