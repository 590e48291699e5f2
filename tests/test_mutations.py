"""A standing mutation gate for the closed form rho_k.

Each mutant is hbn.rho_k off by +1 or -1 at one instance with rho_k >= 0 on
the grid g 3..8, k 2..5, r 0..3, 0 <= d < g, and exact everywhere else.  It
is patched into every k3walls module that binds rho_k; the checks that read
rho_k then run through verify._guarded at (8, 5), in order, until one fails.
Every mutant must make one of them fail.
"""

import sys

from k3walls import hbn, verify

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
        for g in range(3, 9)
        for k in range(2, 6)
        for r in range(4)
        for d in range(g)
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
