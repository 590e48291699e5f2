#!/usr/bin/env python3
"""Benchmark for k3walls: three workloads, every output checked, one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-session --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each exists):

- ``cli-session``: a closed loop with one client over a seeded round of 24
  ``python -m k3walls`` processes, every subcommand except ``verify``;
- ``verify-all``: ``python -m k3walls verify --suite all --max-g 8 --max-k 5``
  processes, one at a time, with the default worker count;
- ``tableau-search``: in-process ``tableaux.oracle_check`` over a fixed list of
  1,733 instances (the 576 of the small grid three times, five deep ones once),
  in a seeded order; the latency percentiles are over each instance's median.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the same operations in this process, alternating an untraced pass and a
pass traced by ``spans.Tracer``, and prints the per-layer metrics.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.  Each run
also writes its result and exact counts to ``.bench_work/results`` (compare
two such directories with ``bench/compare.py``) and, traced, its spans to
``.bench_work/traces``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles
from oracles import Failed, Wrong

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYCACHE = SRC / "k3walls" / "__pycache__"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 11  # cold starts per run; setup_s is their median
PROBE_REPEATS = 5  # interpreter and import probes of a traced run
GRID_REPEATS = 3  # times the small tableau grid appears in a tableau-search pass
VERIFY_ARGV = ["verify", "--suite", "all", "--max-g", "8", "--max-k", "5"]
VERIFY_CHECKS = 22
COMMANDS = ("rho", "rho-k", "decompose", "types", "walls", "tableaux", "chain", "plot-walls")
# Both end in a traceback instead of a JSON error document; they stay in every
# round and count as failed until the program handles them.
FAULTY = [
    ["tableaux", "--g", "3", "--k", "0", "--r", "1", "--d", "2"],
    ["plot-walls", "--g", "3", "--k", "2", "--v", "0,1,0,-1", "--type", "[[1,1]]", "--out", "missing-dir/x.svg"],
]
ANY_ERROR = "*"  # the faulty calls name no error code yet


@dataclass
class Op:
    """One CLI call: its argv, what the checker needs, and the error code expected if any."""

    command: str
    argv: list
    params: dict = field(default_factory=dict)
    error: str | None = None
    hash_seed: int = 0


@dataclass
class Outcome:
    code: int | None
    stdout: bytes
    stderr: bytes
    seconds: float
    svg: str | None = None
    raised: str | None = None


# ------------------------------------------------------------ input making

def _flag_argv(command: str, params: dict) -> list:
    argv = [command]
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False and value is not None:
            argv += [flag, str(value)]
    return argv


def _op(command: str, **params) -> Op:
    return Op(command, _flag_argv(command, params), params)


def _plot_walls_drawn(g: int, k: int, eps: Fraction, v: tuple, pairs) -> bool:
    """Whether every requested wall of a ranked class exists on b = 0 and gets a line."""
    h_eps_sq = 2 * eps * k + eps * eps * (2 * g - 2)

    def invariants(c):
        return c[0], c[1] * (k + eps * (2 * g - 2)) + c[2] * eps * k, c[3] - c[0]

    r1, im1, c1 = invariants(v)
    proj = (im1 / (h_eps_sq * r1), Fraction(c1) / (h_eps_sq * r1))
    for e, _m in pairs:
        r2, im2, c2 = invariants(oracles.pencil(e))
        if r1 * im2 == r2 * im1 and r1 * c2 == r2 * c1 and im1 * c2 == im2 * c1:
            return False
        if im1 == 0 or im2 == 0:
            w = Fraction(0)
        else:
            denom = h_eps_sq * (r2 * im1 - r1 * im2)
            if denom == 0 or (im1 * c2 - im2 * c1) / denom < 0:
                return False
            w = (im1 * c2 - im2 * c1) / denom
        if proj == (0, w):
            return False
    return True


def _invalid_op(rng: random.Random) -> Op:
    g = rng.randint(3, 9)
    choices = [
        (["rho", "--g", "x", "--r", "1", "--d", "2"], "bad_usage"),
        (["decompose", "--r", "3", "--ell", str(rng.randint(4, 9))], "ell_out_of_range"),
        (["types", "--g", "2", "--k", "3", "--v", "0,1,0,-1", "--r", "1"], "bad_genus"),
        (["walls", "--g", str(g), "--k", "2", "--v", "0,1,0", "--type", "[[1,1]]"], "bad_vector"),
        (["chain", "--g", str(g), "--k", "2", "--r", "1", "--d", "2"], "pencil_too_small"),
        (["tableaux", "--g", str(g), "--k", "2", "--r", "1", "--d", str(g + 2)], "bad_grid"),
        (["frobnicate"], "bad_usage"),
        (["walls", "--g", str(g), "--k", "2", "--v", "0,1,0,-2", "--type", "[[1,0]]"], "ill_formed_type"),
    ]
    argv, code = rng.choice(choices)
    return Op(argv[0], argv, error=code)


def cli_round(rng: random.Random) -> list:
    """One round: 21 valid calls of fixed subcommand counts, 1 invalid, the 2 faulty."""
    ops = []
    for _ in range(2):
        ops.append(_op("rho", g=rng.randint(0, 30), r=rng.randint(0, 6), d=rng.randint(0, 30)))
    for _ in range(3):
        g = rng.randint(3, 20)
        ops.append(_op("rho-k", g=g, k=rng.randint(2, 6), r=rng.randint(0, 6), d=rng.randint(0, g - 1)))
    for _ in range(2):
        r = rng.randint(0, 12)
        ops.append(_op("decompose", r=r, ell=rng.randint(0, r)))
    g, k, r = rng.randint(3, 12), rng.randint(2, 6), rng.randint(0, 6)
    ops.append(_op("decompose", r=r, ell=rng.randint(max(0, r + 2 - k), r), g=g, k=k, d=rng.randint(0, g - 1)))
    # one r = 6 enumeration (1,725 types whatever g, k, d: the one heavy call of a
    # round) and two small ones, so the slowest tenth of calls has the same make-up
    # whatever the seed
    for r, flags in ((6, False), (rng.randint(0, 3), True), (rng.randint(0, 3), True)):
        g = rng.randint(3, 8)
        ops.append(_op("types", g=g, k=rng.randint(2, 5), r=r, v=f"0,1,0,{rng.randint(2 - g, 0)}",
                       refined=flags and rng.random() < 0.5, square_filter=flags and rng.random() < 0.5))
    for _ in range(3):
        g, r = rng.randint(3, 10), rng.randint(0, 4)
        pairs = oracles.balanced_pairs(r, rng.randint(0, r))
        ops.append(_op("walls", g=g, k=rng.randint(2, 5), v=f"0,1,0,{rng.randint(2 - g, -1)}",
                       type=json.dumps(pairs, separators=(",", ":"))))
    for _ in range(3):
        while True:
            g, r = rng.randint(3, 10), rng.randint(0, 3)
            degrees = [d for d in range(1, g) if (r + 1) * (g - d + r) <= 12]
            if degrees:
                break
        ops.append(_op("tableaux", g=g, k=rng.randint(2, 5), r=r, d=rng.choice(degrees)))
    for _ in range(2):
        while True:
            g, r = rng.randint(3, 12), rng.randint(0, 4)
            degrees = [d for d in range(g) if oracles.rho(g, r, d) >= 0]
            if degrees:
                break
        ops.append(_op("chain", g=g, k=rng.randint(r + 2, r + 5), r=r, d=rng.choice(degrees)))
    viewport = rng.choice([None, "-1/2,1/2,-1/10,1", "-2,2,-0.5,2"])
    g = rng.randint(3, 9)
    pairs = oracles.balanced_pairs(3, rng.randint(0, 3))
    plot = _op("plot-walls", g=g, k=rng.randint(2, 5), v=f"0,1,0,{rng.randint(2 - g, -1)}",
               type=json.dumps(pairs, separators=(",", ":")), out="rank-zero.svg")
    if viewport:  # the "--viewport=" form: a leading minus sign is taken for a flag otherwise
        plot.argv.append(f"--viewport={viewport}")
    ops.append(plot)
    while True:
        g, k, eps = rng.randint(3, 9), rng.randint(2, 5), rng.choice(["1/10", "1/20", "1/7"])
        v = (rng.randint(1, 2), 1, -rng.randint(0, 1), rng.randint(-2, 3))
        pairs = rng.choice([[[1, 1]], [[2, 1], [1, 1]], [[1, 2]], [[3, 1], [1, 1]]])
        if _plot_walls_drawn(g, k, Fraction(eps), v, pairs):
            break
    ops.append(_op("plot-walls", g=g, k=k, eps=eps, v=",".join(map(str, v)),
                   type=json.dumps(pairs, separators=(",", ":")), out="ranked.svg"))
    ops.append(_invalid_op(rng))
    ops += [Op(argv[0], list(argv), error=ANY_ERROR) for argv in FAULTY]
    rng.shuffle(ops)
    for op in ops:
        op.hash_seed = rng.randint(0, 2**32 - 1)
    return ops


def tableau_instances() -> list:
    """The small grid (g <= 12, k <= 5, r <= 3, at most 15 cells) GRID_REPEATS times, five deep instances once.

    The grid sets the latency percentiles and takes a seventh of a pass; repeating it
    gives each grid instance enough timings in a run for a steady median.
    """
    grid = [(g, k, r, d) for g in range(3, 13) for k in range(2, 6) for r in range(4) for d in range(1, g)
            if g - d + r >= 1 and (r + 1) * (g - d + r) <= 15]
    deep = [(16, 3, 2, 11), (18, 3, 1, 12), (16, 4, 2, 12), (15, 3, 2, 11), (14, 3, 3, 11)]
    return grid * GRID_REPEATS + deep


# ------------------------------------------------------------------ judging

def judge(op: Op, out: Outcome) -> None:
    """Raise Failed when the call gave no answer and Wrong when the answer is wrong."""
    if out.raised is not None or b"Traceback (most recent call last)" in out.stderr:
        raise Failed(out.raised or out.stderr.decode("utf-8", "replace").strip().splitlines()[-1])
    doc = oracles.parse_document(out.stdout, out.stderr)
    if op.error is not None:
        oracles.expect(out.code == 1, f"exit {out.code} for invalid argv, expected 1")
        oracles.check_error(doc, op.error)
        return
    oracles.expect(out.code == 0, f"exit {out.code}")
    res = oracles.check_report(doc, op.command)
    if op.command == "verify":
        oracles.check_verify(res, VERIFY_CHECKS)
    elif op.command == "plot-walls":
        oracles.check_plot(op.params, res, out.svg)
    else:
        CHECKERS[op.command](op.params, res)


CHECKERS = {
    "rho": oracles.check_rho,
    "rho-k": oracles.check_rho_k,
    "decompose": oracles.check_decompose,
    "types": oracles.check_types,
    "walls": oracles.check_walls,
    "tableaux": oracles.check_tableau,
    "chain": oracles.check_chain,
}


class Tally:
    """Attempted, failed and the first few wrong answers of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def judge(self, label: str, check) -> None:
        self.attempted += 1
        try:
            check()
        except Failed:
            self.failed += 1
        except Wrong as exc:
            self.wrong.append(f"{label}: {exc}")


# ------------------------------------------------------------ child processes

def child_env(hash_seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "K3WALLS"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(args: list, hash_seed: int, cwd: Path) -> tuple[Outcome, int]:
    """Run ``python <args>``; the outcome and the child's peak resident set in KiB."""
    err_path = WORK / f"child-{os.getpid()}.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(hash_seed), cwd=cwd)
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return Outcome(proc.returncode, stdout, err_path.read_bytes(), seconds), usage.ru_maxrss


def cold_setup(args: list, cwd: Path) -> float:
    """Median wall time of a child started with no k3walls bytecode: it imports,
    compiles and writes bytecode, then does one small call.  Leaves the cache warm."""
    times = []
    for i in range(SETUP_REPEATS):
        shutil.rmtree(PYCACHE, ignore_errors=True)
        out, _ = run_child(args, i, cwd)
        if out.code != 0:
            raise Wrong(f"set-up call {' '.join(args)} exited {out.code}")
        times.append(out.seconds)
    return statistics.median(times)


def probe_ms(args: list, cwd: Path) -> float:
    return statistics.median(run_child(args, i, cwd)[0].seconds for i in range(PROBE_REPEATS)) * 1e3


# ------------------------------------------------------------- in-process

def import_program():
    sys.path.insert(0, str(SRC))
    import k3walls.cli  # noqa: F401  (imports every layer module)
    return sys.modules["k3walls.cli"], sys.modules["k3walls.tableaux"]


def _clear_svg(op: Op, workdir: Path) -> None:
    if op.command == "plot-walls" and op.error is None:
        (workdir / op.params["out"]).unlink(missing_ok=True)


def call_main(cli, op: Op, workdir: Path) -> Outcome:
    _clear_svg(op, workdir)
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # an uncaught error is a failed call, as a traceback is
            code, raised = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue().encode(), err.getvalue().encode(), seconds,
                   svg=_read_svg(op, workdir), raised=raised)


def _read_svg(op: Op, workdir: Path) -> str | None:
    if op.command != "plot-walls" or op.error is not None:
        return None
    path = workdir / op.params["out"]
    return path.read_text(encoding="utf-8") if path.exists() else None


def report_dict(rep) -> dict:
    return {"feasible": rep.feasible, "omitted": rep.omitted, "rho_k": rep.rho_k,
            "argmax_ell": list(rep.argmax_ell), "equality": rep.equality,
            "witness": [list(row) for row in rep.witness.grid] if rep.witness else None}


def tableau_pass(tableaux, instances) -> tuple[list, list]:
    results, times = [], []
    for inst in instances:
        start = time.perf_counter()
        try:
            res = report_dict(tableaux.oracle_check(*inst))
        except Exception as exc:  # no answer: a failed operation
            res = {"raised": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - start)
        results.append(res)
    return results, times


def judge_calls(tally: Tally, ops: list, passes: list) -> None:
    """Check every call of every pass; each must also repeat the first pass's output."""
    for outcomes in passes:
        for op, out, ref in zip(ops, outcomes, passes[0]):
            def check(op=op, out=out, ref=ref):
                judge(op, out)
                oracles.expect((out.code, out.stdout, out.svg) == (ref.code, ref.stdout, ref.svg),
                               "output differs between calls with the same argv")
            tally.judge(" ".join(op.argv), check)


def judge_tableaux(tally: Tally, instances: list, passes: list) -> None:
    for results in passes:
        for inst, res, ref in zip(instances, results, passes[0]):
            def check(inst=inst, res=res, ref=ref):
                if "raised" in res:
                    raise Failed(res["raised"])
                oracles.check_tableau(dict(zip("gkrd", inst)), res)
                oracles.expect(res == ref, "report differs between passes")
            tally.judge(f"oracle_check{inst}", check)


# ---------------------------------------------------------------- workloads

class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.rng = random.Random(f"{workload}:{seed}")
        self.tally = Tally()
        self.counts: dict = {}
        self.workdir = WORK / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops, self.instances = [], []
        if workload == "cli-session":
            self.ops = cli_round(self.rng)
        elif workload == "verify-all":
            self.ops = [Op("verify", list(VERIFY_ARGV))]
        else:
            self.instances = tableau_instances()
            self.rng.shuffle(self.instances)

    def _more(self, start: float, done: list) -> bool:
        """Whole passes only: at least one, then until the run's seconds are spent."""
        return not done or time.perf_counter() - start < self.seconds

    # ---- end to end: children, or in-process for tableau-search

    def end_to_end(self) -> dict:
        if self.instances:
            setup = cold_setup(["-c", "import k3walls.tableaux as t; t.oracle_check(5, 3, 1, 3)"], self.workdir)
            _, tableaux = import_program()
        else:
            setup = cold_setup(["-m", "k3walls", "rho", "--g", "5", "--r", "1", "--d", "3"], self.workdir)
        passes, durations, instance_times, peak_kib = [], [], [], 0
        start = time.perf_counter()
        while self._more(start, passes):
            if self.instances:
                results, times = tableau_pass(tableaux, self.instances)
                passes.append(results)
                instance_times.append(times)
                continue
            outcomes = []
            for op in self.ops:
                # verify gets a new hash seed per process: its output must not depend on it
                hash_seed = self.rng.randint(0, 2**32 - 1) if op.command == "verify" else op.hash_seed
                _clear_svg(op, self.workdir)
                out, kib = run_child(["-m", "k3walls", *op.argv], hash_seed, self.workdir)
                out.svg = _read_svg(op, self.workdir)
                outcomes.append(out)
                durations.append(out.seconds)
                peak_kib = max(peak_kib, kib)
            passes.append(outcomes)
        elapsed = time.perf_counter() - start
        attempted = len(durations)
        if self.instances:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # The 90th percentile falls where neighbouring instances differ by a few
            # percent, so pooled timings let one slow stretch of a run move it.  The
            # percentiles are taken over each distinct instance's median timing instead.
            attempted = sum(map(len, instance_times))
            timings: dict = {}
            for times in instance_times:
                for inst, seconds in zip(self.instances, times):
                    timings.setdefault(inst, []).append(seconds)
            durations = [statistics.median(times) for times in timings.values()]
        self._judge(passes)
        return {
            "setup_s": setup,
            "peak_rss_mb": peak_kib / 1024,
            "op_p50_ms": statistics.median(durations) * 1e3,
            "op_p90_ms": p90(durations) * 1e3,
            "ops_per_s": attempted / elapsed,
        }

    def _judge(self, passes: list) -> None:
        """Judge every pass and keep the counts of one pass, which repeat exactly."""
        first = passes[0]
        if self.instances:
            judge_tableaux(self.tally, self.instances, passes)
            self.counts.update({
                "instances": len(first),
                "negative_rho_k": sum(res.get("rho_k", 0) < 0 for res in first),
                "omitted_sum": sum(res.get("omitted") or 0 for res in first),
            })
            return
        judge_calls(self.tally, self.ops, passes)
        self.counts.update({
            "ops_per_pass": len(first),
            "failed_per_pass": self.tally.failed // len(passes),
            "stdout_bytes_per_pass": sum(len(out.stdout) for out in first),
            "svg_bytes_per_pass": sum(len(out.svg or "") for out in first),
        })

    # ---- traced: untraced and traced passes in this process

    def per_layer(self) -> dict:
        from spans import Tracer

        probe_ms(["-c", "import k3walls.cli"], self.workdir)  # writes bytecode if missing
        start_ms = probe_ms(["-c", "pass"], self.workdir)
        import_ms = probe_ms(["-c", "import k3walls.cli"], self.workdir) - start_ms
        cli, tableaux = import_program()
        if self.workload == "verify-all":
            os.environ["K3WALLS_THREADS"] = "1"  # one worker, so spans nest

        def one_pass() -> list:
            if self.instances:
                return tableau_pass(tableaux, self.instances)[0]
            cwd = os.getcwd()
            os.chdir(self.workdir)  # plot-walls writes to paths relative to its working directory
            try:
                return [call_main(cli, op, self.workdir) for op in self.ops]
            finally:
                os.chdir(cwd)

        passes, layer_passes, overheads, main_times, first_tracer = [], [], [], {}, None
        start = time.perf_counter()
        while self._more(start, layer_passes):
            t0 = time.perf_counter()
            plain = one_pass()
            t1 = time.perf_counter()
            tracer = Tracer()
            tracer.install()
            try:
                traced = one_pass()
            finally:
                tracer.remove()
            t2 = time.perf_counter()
            overheads.append((t2 - t1) - (t1 - t0))
            layer_passes.append(layer_metrics(tracer.summary(), tracer.counters))
            first_tracer = first_tracer or tracer
            passes += [plain, traced]
            for op, out in zip(self.ops, plain):
                main_times.setdefault(op.command, []).append(out.seconds * 1e3)
        self._judge(passes)

        trace_path = WORK / "traces" / f"{self.workload}-seed{self.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        first_tracer.write(trace_path, {"workload": self.workload, "seed": self.seed, "pass": "first traced pass"})

        metrics = median_metrics(layer_passes, self.tally)
        all_main = [t for times in main_times.values() for t in times]
        metrics.update({
            "interpreter.start_ms": start_ms,
            "cli.import_ms": import_ms,
            "cli.main_ms": statistics.median(all_main) if all_main else 0.0,
            "trace.overhead_s": statistics.median(overheads),
        })
        for command in COMMANDS:
            metrics[f"cli.main_ms.{command}"] = statistics.median(main_times.get(command) or [0.0])
        self.counts.update({k: v for k, v in metrics.items() if isinstance(v, int)})
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        (WORK / f"child-{os.getpid()}.stderr").unlink(missing_ok=True)


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced pass, from span statistics and counters."""
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def self_s(layer):
        return sum(entry["self_s"] for name, entry in stats.items() if name.startswith(layer + "."))

    m = {
        "strata.enumerate_types.calls": calls("strata.enumerate_types"),
        "strata.types_enumerated": counters.get("strata.types_enumerated", 0),
        "strata.enumerate_types_s": total("strata.enumerate_types"),
        "strata.stratum_dimension.calls": calls("strata.stratum_dimension"),
        "strata.self_s": self_s("strata"),
        "lattice.mukai_pairing.calls": calls("lattice.mukai_pairing"),
        "lattice.self_s": self_s("lattice"),
        "stability.wall_on_axis.calls": calls("stability.wall_on_axis"),
        "stability.slope.calls": calls("stability.slope"),
        "stability.self_s": self_s("stability"),
        "hbn.rho_k.calls": calls("hbn.rho_k"),
        "hbn.self_s": self_s("hbn"),
        "chains.build_chain.calls": calls("chains.build_chain"),
        "chains.self_s": self_s("chains"),
        "tableaux.nodes": counters.get("tableaux.nodes", 0),
        "tableaux.naive_nodes": counters.get("tableaux.naive_nodes", 0),
        "tableaux.search_s": total("tableaux.max_omitted"),
        "jsonio.dumps_ms": total("jsonio.dumps_canonical") * 1e3,
        "jsonio.stdout_bytes": counters.get("jsonio.stdout_bytes", 0),
        "svg.render_ms": total("svg.render_wall_diagram") * 1e3,
        "svg.bytes": counters.get("svg.bytes", 0),
        "verify.run_checks_s": total("verify.run_checks"),
    }
    m["tableaux.nodes_per_s"] = m["tableaux.nodes"] / m["tableaux.search_s"] if m["tableaux.search_s"] else 0.0
    checks = {name: entry for name, entry in stats.items() if name.startswith("verify.check_")}
    for name in checks:
        check = name.removeprefix("verify.check_").replace("_", ".", 1)
        m[f"verify.check_s.{check}"] = total(name)
    m["verify.checks_sum_s"] = sum(total(name) for name in checks)
    return m


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def median_metrics(passes: list, tally: Tally) -> dict:
    """Counts must repeat exactly from pass to pass; times are the median over passes."""
    out = {}
    for key, value in passes[0].items():
        values = [p[key] for p in passes]
        if isinstance(value, int):
            if len(set(values)) != 1:
                tally.wrong.append(f"count {key} differs between traced passes: {values}")
            out[key] = value
        else:
            out[key] = statistics.median(values)
    return out


# ---------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-session", "verify-all", "tableau-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=WORK / "results", help="directory for the result record")
    args = parser.parse_args(argv)
    if not (SRC / "k3walls" / "cli.py").is_file():
        print(f"no k3walls source under {SRC}; run from the root of a k3walls checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    oracles.self_test()
    WORK.mkdir(exist_ok=True)

    run = Run(args.workload, args.seed, args.seconds)
    try:
        values = run.per_layer() if args.trace else run.end_to_end()
    except Wrong as exc:
        run.tally.wrong.append(str(exc))
        values = {}
    finally:
        run.close()
    for line in run.tally.wrong[:10]:
        print(f"WRONG {line}", file=sys.stderr)
    result = {
        "correct": not run.tally.wrong,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    args.results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "python": sys.version.split()[0], "cpus": os.cpu_count(), "counts": run.counts, "result": result}
    path = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
