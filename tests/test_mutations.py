"""A standing mutation gate for the closed form rho_k.

Each mutant is hbn.rho_k off by +1 or -1 at one instance with rho_k >= 0 on
the grid g 3..8, k 2..5, r 0..3, 0 <= d < g, and exact everywhere else.  It
is patched into every k3walls module that binds rho_k; the checks that read
rho_k then run through verify._guarded at (8, 5), in order, until one fails.
Every mutant must make one of them fail.

Also what the oracle independent of rho_k covers: the instances at which the
tableau search asserts its maximum equals rho_k, searched or shifted by g from
a search of the same box, and that the search answers without rho_k.
"""

import sys

from k3walls import hbn, tableaux, verify

READERS = (
    verify.check_hbn_rho_k_dominates,
    verify.check_hbn_rho_k_monotone,
    verify.check_strata_nonexistence,
    verify.check_tableaux_oracle,
)


def _instances():
    """(g, k, r, d) with rho_k >= 0 on the (8, 5) grid of ranks 0..3."""
    return [
        (g, k, r, d)
        for g, k, d, r in verify._grid(8, 5, range(4), d_from=0)
        if hbn.rho_k(g, k, r, d)[0] >= 0
    ]


def _bind(monkeypatch, real, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "k3walls" or mod_name.startswith("k3walls."):
            for attr, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, attr, replacement)


def _caught(monkeypatch, instance, delta) -> bool:
    real = hbn.rho_k

    def mutant(g, k, r, d):
        value, argmax = real(g, k, r, d)
        return (value + delta if (g, k, r, d) == instance else value), argmax

    _bind(monkeypatch, real, mutant)
    try:
        return any(not verify._guarded(check, 8, 5).ok for check in READERS)
    finally:
        monkeypatch.undo()


def test_every_rho_k_mutant_is_caught(monkeypatch):
    instances = _instances()
    assert len(instances) == 205
    assert all(verify._guarded(check, 8, 5).ok for check in READERS)
    survivors = [
        (instance, delta)
        for instance in instances
        for delta in (1, -1)
        if not _caught(monkeypatch, instance, delta)
    ]
    caught = 2 * len(instances) - len(survivors)
    print(f"rho_k mutants caught: {caught} of {2 * len(instances)}")
    assert survivors == []


def test_search_coverage_pinned(monkeypatch):
    # the instances at which check_tableaux_oracle asserts omitted == rho_k: each is
    # searched, or shifted from a searched feasible instance of its box (k, r+1, g-d+r)
    # at a smaller g (test_tableaux.py::test_g_shift_on_the_10_5_grid); and those at
    # which check_strata_nonexistence reads rho_k >= 0, and so takes its existence branch
    real_search, searched = tableaux.max_omitted, {}
    real_check, checked = tableaux.oracle_check, set()
    real_rho_k, existence = hbn.rho_k, set()

    def search_spy(g, k, r, d):
        searched[g, k, r, d] = real_search(g, k, r, d)
        return searched[g, k, r, d]

    def check_spy(g, k, r, d, result):
        checked.add((g, k, r, d))
        return real_check(g, k, r, d, result=result)

    def rho_k_spy(g, k, r, d):
        value, argmax = real_rho_k(g, k, r, d)
        if value >= 0:
            existence.add((g, k, r, d))
        return value, argmax

    monkeypatch.setattr(tableaux, "max_omitted", search_spy)
    monkeypatch.setattr(tableaux, "oracle_check", check_spy)
    verify.check_tableaux_oracle(8, 5)
    monkeypatch.setattr(hbn, "rho_k", rho_k_spy)
    verify.check_strata_nonexistence(8, 5)
    monkeypatch.undo()
    feasible_at = {}  # box -> the least g at which it was searched and found feasible
    for (g, k, r, d), result in searched.items():
        if result.feasible:
            box = (k, r, g - d + r)
            feasible_at[box] = min(g, feasible_at.get(box, g))
    shifted = [
        (g, k, r, d)
        for g, k, r, d in checked - set(searched)
        if feasible_at.get((k, r, g - d + r), g) < g
    ]
    instances = _instances()
    assert len(instances) == 205
    assert [instance for instance in instances if instance not in checked] == []
    assert len(checked) == len(searched) + len(shifted) == 528
    assert (len(searched), len(shifted)) == (382, 146)
    assert existence == set(instances)


def test_search_never_reads_rho_k(monkeypatch):
    # the grid of check_tableaux_oracle
    instances = [(g, k, r, d) for g, k, d, r in verify._grid(8, 5, range(4), d_from=0)]
    assert len(instances) == 528
    expected = [tableaux.max_omitted(*instance) for instance in instances]

    def raising(g, k, r, d):
        raise AssertionError("the search read rho_k")

    _bind(monkeypatch, hbn.rho_k, raising)
    assert [tableaux.max_omitted(*instance) for instance in instances] == expected
