"""verify.run_checks across forked workers: the same results as one after another.

Also the work of the grid checks: the instances each draws from verify._grid,
the kernel calls of a full run and the searches of the tableau checks; and
the draws of the random checks.
"""

import os
import random
import select
import subprocess
import sys

import pytest

from k3walls import chains, cli, hbn, lattice, strata, tableaux, verify
from k3walls.verify import CheckResult, run_checks

PACKAGE_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the OS cannot fork")


@pytest.fixture
def fork_count(monkeypatch):
    """The number of os.fork calls made in this process during the test."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _inject(monkeypatch, *checks):
    monkeypatch.setitem(verify.CHECKS, "lattice", verify.CHECKS["lattice"] + list(checks))


@needs_fork
@pytest.mark.parametrize("max_g, max_k", [(8, 5), (5, 3)])
def test_forked_matches_serial(fork_count, max_g, max_k):
    serial = run_checks("all", max_g, max_k)
    assert not fork_count
    for suite in verify.SUITES:
        expected = [res for res in serial if res.name.startswith(f"{suite}.")]
        assert run_checks(suite, max_g, max_k, processes=2) == expected, suite
    assert run_checks("all", max_g, max_k, processes=2) == serial
    assert len(fork_count) == len(verify.SUITES) + 1
    # more processes than checks: one process per check
    lattice = [res for res in serial if res.name.startswith("lattice.")]
    assert run_checks("lattice", max_g, max_k, processes=99) == lattice
    assert len(fork_count) == len(verify.SUITES) + len(lattice)


@needs_fork
def test_injected_failures_match_serial(monkeypatch, fork_count):
    def check_lattice_zzz_fails(max_g, max_k):
        raise verify.CheckFailed("deliberate failure")

    def check_lattice_zzz_raises(max_g, max_k):
        raise ValueError("deliberate crash")

    _inject(monkeypatch, check_lattice_zzz_fails, check_lattice_zzz_raises)
    serial = run_checks("lattice", 3, 2)
    assert run_checks("lattice", 3, 2, processes=2) == serial
    assert run_checks("lattice", 3, 2, processes=6) == serial
    assert fork_count
    assert CheckResult("lattice.zzz_fails", False, "deliberate failure") in serial
    assert CheckResult("lattice.zzz_raises", False, "raised ValueError: deliberate crash") in serial


@needs_fork
def test_lost_workers_fail_their_checks(monkeypatch):
    # Three checks that exit only in a worker, each with its own status.  In this
    # process a check waits until both workers have taken one, so each worker is
    # sure to take one and die.
    parent_pid = os.getpid()
    taken_r, taken_w = os.pipe()
    statuses = {"lattice.zzz_a": 3, "lattice.zzz_b": 4, "lattice.zzz_c": 5}

    def exit_in_worker(name):
        if os.getpid() != parent_pid:
            os.write(taken_w, b"x")
            os._exit(statuses[name])
        for _ in range(2):
            assert select.select([taken_r], [], [], 30)[0], "a worker took no check"
            os.read(taken_r, 1)
        return "ran in the parent"

    def check_lattice_zzz_a(max_g, max_k):
        return exit_in_worker("lattice.zzz_a")

    def check_lattice_zzz_b(max_g, max_k):
        return exit_in_worker("lattice.zzz_b")

    def check_lattice_zzz_c(max_g, max_k):
        return exit_in_worker("lattice.zzz_c")

    monkeypatch.setitem(verify.CHECKS, "lattice", [check_lattice_zzz_a, check_lattice_zzz_b, check_lattice_zzz_c])
    try:
        results = run_checks("lattice", 3, 2, processes=3)
    finally:
        os.close(taken_r)
        os.close(taken_w)
    assert [res.name for res in results] == list(statuses)
    assert [res.detail for res in results if res.ok] == ["ran in the parent"]
    failed = [res for res in results if not res.ok]
    assert len(failed) == 2
    for res in failed:
        assert res.detail == f"worker exited with status {statuses[res.name]}"


def test_without_fork_this_process_runs_every_check(monkeypatch):
    serial = run_checks("lattice", 4, 3)
    monkeypatch.delattr(os, "fork", raising=False)
    assert run_checks("lattice", 4, 3, processes=4) == serial


def test_in_process_main_never_forks(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("an in-process cli.main call forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(verify, "available_cpus", lambda: 4)
    assert cli.main(["verify", "--suite", "lattice", "--max-g", "4", "--max-k", "3"]) == 0
    assert '"failed":0' in capsys.readouterr().out


@needs_fork
def test_entry_point_forks_with_the_same_bytes(capsys):
    # main() with no argv, as __main__ calls it, forks one worker per CPU it is told of
    script = (
        "import os, sys\n"
        "from k3walls import cli, verify\n"
        "forks = []\n"
        "real_fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or real_fork()\n"
        "verify.available_cpus = lambda: 3\n"
        "sys.argv = ['k3walls', 'verify', '--suite', 'all', '--max-g', '4', '--max-k', '3']\n"
        "status = cli.main()\n"
        "sys.stderr.write(f'forks={len(forks)}\\n')\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
    assert proc.returncode == 0
    assert proc.stderr.decode().endswith("forks=2\n")
    assert cli.main(["verify", "--suite", "all", "--max-g", "4", "--max-k", "3"]) == 0
    assert proc.stdout.decode() == capsys.readouterr().out


def test_available_cpus_is_positive():
    assert verify.available_cpus() >= 1


# instances each grid check draws from verify._grid at (8, 5)
GRID_DRAWS = {
    "strata.dimension_identity": 924,
    "strata.dimension_bounds": 540,
    "strata.nonexistence": 528,
    "strata.square_filter": 432,
    "hbn.rho_k_dominates": 1008,
    "hbn.rho_k_monotone": 144,
    "hbn.degeneracy_identity": 924,
    "hbn.splitting_correspondence": 648,
    "tableaux.pruning": 180,
    "tableaux.oracle": 528,
    "chains.verify": 660,
    "chains.telescoping": 660,
}


def _grid_draws(monkeypatch, max_g, max_k):
    """Check name -> instances it drew from verify._grid, for each check that drew one."""
    real, drawn = verify._grid, []

    def spy(*args, **kwargs):
        for instance in real(*args, **kwargs):
            drawn.append(instance)
            yield instance

    monkeypatch.setattr(verify, "_grid", spy)
    draws = {}
    for fn in (fn for suite in verify.SUITES for fn in verify.CHECKS[suite]):
        drawn.clear()
        fn(max_g, max_k)
        if drawn:
            draws[verify._check_name(fn)] = len(drawn)
    return draws


def test_every_grid_check_draws_at_the_floor(monkeypatch):
    assert set(_grid_draws(monkeypatch, 3, 2)) == set(GRID_DRAWS)


def test_grid_draws_pinned(monkeypatch):
    assert _grid_draws(monkeypatch, 8, 5) == GRID_DRAWS


def _count_calls(monkeypatch, owner, name):
    """The calls of owner.name, patched in every k3walls module that binds it."""
    real, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "k3walls" or mod_name.startswith("k3walls."):
            for attr, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_kernel_work_of_a_full_run(monkeypatch):
    # the counters the benchmark reports for a verify-all pass
    kernels = {
        "hbn.rho_k": (hbn, "rho_k", 3_216),
        # one chain per (g, d, r): 42 distinct triples for each of the two chain checks
        "chains.build_chain": (chains, "build_chain", 84),
        # dimension_bounds' 21,042, and 235 for the existence half of nonexistence
        "strata.stratum_dimension": (strata, "stratum_dimension", 21_277),
        "strata.enumerate_types": (strata, "enumerate_types", 9),
        # the checks build their (r, ell) tables once: balanced types 28 + 10 + 21, and
        # decompositions 28 + 21 beside ell_round_trip's 861, degeneracy_dims' 1,980
        # and one per balanced type
        "strata.balanced_type": (strata, "balanced_type", 59),
        "hbn.ell_decompose": (hbn, "ell_decompose", 2_949),
        # the strata verdicts read integers; the pairings left are the lattice
        # checks' own and the 5,184 residual squares square_filter compares with
        "lattice.mukai_pairing": (lattice, "mukai_pairing", 10_392),
    }
    calls = {key: _count_calls(monkeypatch, owner, name) for key, (owner, name, _) in kernels.items()}
    assert all(res.ok for res in run_checks("all", 8, 5))
    assert {key: len(made) for key, made in calls.items()} == {
        key: count for key, (_, _, count) in kernels.items()
    }


@pytest.mark.parametrize(
    "check, search, searches, nodes",
    [
        # of 528 instances; searching each takes 9,494 nodes
        (verify.check_tableaux_oracle, "max_omitted", 382, 2_589),
        # of 117 instances with at most 9 cells; searching each takes 11,811 nodes
        (verify.check_tableaux_pruning, "max_omitted_naive", 54, 3_513),
    ],
)
def test_tableau_checks_search_once_per_box(monkeypatch, check, search, searches, nodes):
    # a box's instances are searched up to its first feasible one, and shifted by g after
    real, results = getattr(tableaux, search), []

    def recording(g, k, r, d):
        results.append(real(g, k, r, d))
        return results[-1]

    monkeypatch.setattr(tableaux, search, recording)
    check(8, 5)
    assert len(results) == searches
    assert sum(res.nodes for res in results) == nodes


def test_draws_are_randint_draws(monkeypatch):
    # every draw the random checks make at (8, 5), replayed through random.Random.randint
    real, draws = verify._draws, []

    def recording(seed):
        randint = real(seed)

        def recorded(low, high):
            draws.append((seed, low, high, randint(low, high)))
            return draws[-1][-1]

        return recorded

    monkeypatch.setattr(verify, "_draws", recording)
    assert all(res.ok for res in run_checks("all", 8, 5))
    generators = {seed: random.Random(seed) for seed, *_ in draws}
    assert sorted(generators) == [20240801, 20240802, 20240803, 20240804, 20240805]
    assert len(draws) == 12_101
    assert [value for *_, value in draws] == [
        generators[seed].randint(low, high) for seed, low, high, _ in draws
    ]
