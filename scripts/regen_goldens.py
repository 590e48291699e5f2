#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden.

Run from the repository root after an intentional output-format change:

    python scripts/regen_goldens.py
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src"

CASES = {
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
    "verify.json": ["verify", "--suite", "all", "--max-g", "5", "--max-k", "3"],
}

PLOTS = {
    "plot_rank_zero": [
        "plot-walls", "--g", "3", "--k", "2", "--eps", "1/10",
        "--v", "0,1,0,-1", "--type", "[[2,1],[1,1]]",
    ],
    "plot_projection": [
        "plot-walls", "--g", "3", "--k", "2", "--eps", "1/10", "--v", "1,0,1,1",
    ],
}


def run(args, cwd):
    # the child runs in another directory, so it gets the package root as an
    # absolute path ahead of any PYTHONPATH already set
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "k3walls", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        check=True,
    )
    return proc.stdout


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, args in CASES.items():
        (GOLDEN / name).write_bytes(run(args, GOLDEN))
        print("wrote", GOLDEN / name)
    for stem, args in PLOTS.items():
        out = run([*args, "--out", f"{stem}.svg"], GOLDEN)
        (GOLDEN / f"{stem}.json").write_bytes(out)
        print("wrote", GOLDEN / f"{stem}.json", "and", GOLDEN / f"{stem}.svg")


if __name__ == "__main__":
    main()
