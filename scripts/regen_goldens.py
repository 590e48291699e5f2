#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden.

Run from the repository root after an intentional output-format change:

    python scripts/regen_goldens.py

The golden commands and the runner are those of tests/test_acceptance.py,
which compares against these files.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import GOLDEN, GOLDEN_COMMANDS, GOLDEN_PLOTS, run_k3walls  # noqa: E402


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, args in GOLDEN_COMMANDS.items():
        (GOLDEN / name).write_bytes(run_k3walls(args, GOLDEN))
        print("wrote", GOLDEN / name)
    for stem, args in GOLDEN_PLOTS.items():
        out = run_k3walls([*args, "--out", f"{stem}.svg"], GOLDEN)
        (GOLDEN / f"{stem}.json").write_bytes(out)
        print("wrote", GOLDEN / f"{stem}.json", "and", GOLDEN / f"{stem}.svg")


if __name__ == "__main__":
    main()
