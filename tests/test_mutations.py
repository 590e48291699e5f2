"""A standing mutation gate for the closed form rho_k.

Each mutant is hbn.rho_k off by +1 or -1 at one instance with rho_k >= 0 on
the grid g 3..8, k 2..5, r 0..3, 0 <= d < g, and exact everywhere else.  It
is patched into every k3walls module that binds rho_k; the checks that read
rho_k then run through verify._guarded at (8, 5), in order, until one fails.
Every mutant must make one of them fail.

Also what the oracle independent of rho_k covers: the instances at which the
tableau search asserts its maximum equals rho_k, and that the search answers
without rho_k.
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
    # the instances at which check_tableaux_oracle asserts omitted == rho_k; its grid
    # starts at d = 1 and holds at most 12 cells, so it misses 31 of the 205
    real, searched = tableaux.oracle_check, set()

    def spy(g, k, r, d):
        searched.add((g, k, r, d))
        return real(g, k, r, d)

    monkeypatch.setattr(tableaux, "oracle_check", spy)
    verify.check_tableaux_oracle(8, 5)
    instances = _instances()
    missed = [instance for instance in instances if instance not in searched]
    assert len(instances) - len(missed) == 174
    assert sum(d == 0 for _, _, _, d in missed) == 24
    assert [instance for instance in missed if instance[3]] == [
        (7, 2, 2, 4), (7, 2, 3, 6), (8, 2, 1, 2), (8, 2, 2, 4), (8, 2, 2, 5), (8, 2, 3, 6), (8, 2, 3, 7)
    ]


def test_search_never_reads_rho_k(monkeypatch):
    # the pruning grid of check_tableaux_pruning
    instances = [(g, k, r, d) for g, k, d, r in verify._grid(7, 4, range(3)) if (r + 1) * (g - d + r) <= 9]
    assert len(instances) == 117
    expected = [tableaux.max_omitted(*instance) for instance in instances]

    def raising(g, k, r, d):
        raise AssertionError("the search read rho_k")

    _bind(monkeypatch, hbn.rho_k, raising)
    assert [tableaux.max_omitted(*instance) for instance in instances] == expected
