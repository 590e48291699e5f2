#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden.

Run from the repository root after an intentional output-format change:

    python scripts/regen_goldens.py

The writer is write_goldens of tests/test_acceptance.py, whose criterion 9
runs the same code and compares its files with these.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import GOLDEN, write_goldens  # noqa: E402

if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    write_goldens(GOLDEN)
    print("wrote", GOLDEN)
