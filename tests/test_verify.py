"""verify.run_checks across forked workers: the same results as one after another."""

import os
import select
import subprocess
import sys

import pytest

from k3walls import cli, verify
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
