"""pcgl benchmark: time-to-certified-report of the pcgl CLI on seeded inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain|membership|analyze \\
        --seed N --seconds S --trace 0|1

One client runs the workload's pcgl commands one subprocess at a time, each
waiting for the previous one (a closed loop; ``--jobs`` stays at its default
of 1), and repeats whole passes until S seconds have gone.  Every report is
checked (check.py) and compared byte for byte with the first pass.

--trace 0 reports the end-to-end metrics: ``wall_s`` (median pass), ``setup_s``
(median of fresh-interpreter set-ups, setup_probe.py), ``peak_rss_mb`` (largest
RSS of any pcgl process, taken per child with wait4) and ``ok_frac``.
--trace 1 alternates an untraced pass with a traced replay (traced.py) and
reports per-layer calls and self times, a few ratios and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from check import check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("chain", "membership", "analyze")
# What the installed ``pcgl`` console script runs.
PCGL = [sys.executable, "-c", "import sys; from pcgl.cli import main; sys.exit(main())"]


def spawn(cmd, cwd, env):
    """Run cmd to completion; return (exit code, stdout bytes, seconds, peak RSS in MB)."""
    with open(os.path.join(cwd, "stderr.log"), "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, seconds, usage.ru_maxrss / 1024.0


def child_failed(what: str, code: int, workdir: str) -> RuntimeError:
    """An error carrying the end of the children's stderr, which leaves with workdir."""
    with open(os.path.join(workdir, "stderr.log"), "rb") as fh:
        tail = fh.read()[-2000:].decode("utf-8", "replace")
    return RuntimeError(f"{what} exited with {code}:\n{tail}")


class Runner:
    """Runs and checks one workload's operations, counting attempts and failures."""

    def __init__(self, workload: dict, workdir: str, env: dict) -> None:
        self.ops = workload["ops"]
        self.workdir = workdir
        self.env = env
        self.reference = [None] * len(self.ops)   # stdout of the first pass
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def judge(self, i: int, code: int, out: bytes) -> None:
        self.attempted += 1
        reason = check(self.ops[i], code, out)
        if reason is None and self.reference[i] is not None and out != self.reference[i]:
            reason = "stdout differs from the first run of the same input"
        if reason is None:
            if self.reference[i] is None:
                self.reference[i] = out
            return
        self.failed += 1
        print(f"# FAILED {' '.join(self.ops[i]['argv'])}: {reason}", file=sys.stderr)

    def untraced_pass(self) -> float:
        wall = 0.0
        for i, op in enumerate(self.ops):
            code, out, seconds, rss = spawn(PCGL + op["argv"], self.workdir, self.env)
            wall += seconds
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            self.judge(i, code, out)
        return wall

    def traced_pass(self) -> tuple:
        ops_path = os.path.join(self.workdir, "ops.json")
        result_path = os.path.join(self.workdir, "trace.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump([op["argv"] for op in self.ops], fh)
        code, _out, seconds, _rss = spawn([sys.executable, os.path.join(HERE, "traced.py"),
                                           ops_path, result_path], self.workdir, self.env)
        if code != 0:
            raise child_failed("traced replay", code, self.workdir)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        for i, op_code in enumerate(result["codes"]):
            with open(os.path.join(self.workdir, f"traced-{i}.out"), "rb") as fh:
                self.judge(i, op_code, fh.read())
        return seconds, result["layers"]


def setup_probe(workload: dict, workdir: str, env: dict) -> float:
    code, _out, seconds, _rss = spawn([sys.executable, os.path.join(HERE, "setup_probe.py")]
                                      + workload["setup"], workdir, env)
    if code != 0:
        raise child_failed("set-up probe", code, workdir)
    return seconds


def another_round(t0: float, rounds: int, seconds: float) -> bool:
    """True while one more round, at the mean length so far, ends within the budget."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / rounds <= seconds


def spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def end_to_end(runner: Runner, workload: dict, seconds: float) -> dict:
    """Rounds of one set-up probe per command and one pass, so that both
    samples spread over the whole run rather than one stretch of it."""
    setup_probe(workload, runner.workdir, runner.env)   # writes bytecode; not timed
    setups, walls = [], []
    t0 = time.perf_counter()
    while not walls or another_round(t0, len(walls), seconds):
        setups += [setup_probe(workload, runner.workdir, runner.env) for _ in runner.ops]
        walls.append(runner.untraced_pass())
    print(f"# wall_s passes: {spread(walls)}; setup_s probes: {spread(setups)}")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": runner.peak_rss_mb, "unit": "MB"},
        "ok_frac": {"value": (runner.attempted - runner.failed) / runner.attempted, "unit": "ratio"},
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes; counts must repeat exactly."""
    overheads, summaries = [], []
    t0 = time.perf_counter()
    while not summaries or another_round(t0, len(summaries), seconds):
        wall = runner.untraced_pass()
        traced_wall, layers = runner.traced_pass()
        overheads.append(traced_wall - wall)
        summaries.append(layers)
    counts = [{name: rec["calls"] for name, rec in s.items()} for s in summaries]
    if any(c != counts[0] for c in counts):
        runner.failed += 1
        print("# FAILED: traced call counts differ between replays", file=sys.stderr)
    layers = summaries[0]
    metrics = {}
    for name, rec in layers.items():
        metrics[f"{name}.calls"] = {"value": rec["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(s[name]["self_s"] for s in summaries), "unit": "s"}
    tau = layers["cluster.seed_for_tau"]
    divide = layers["poly.exact_divide"]
    metrics["linalg.solve.per_tau"] = {
        "value": layers["linalg.solve"]["calls"] / tau["distinct"] if tau["distinct"] else 0.0,
        "unit": "ratio"}
    metrics["cluster.seed_for_tau.distinct"] = {"value": tau["distinct"], "unit": "count"}
    metrics["cluster.seed_for_tau.hit_ratio"] = {
        "value": tau["distinct"] / tau["calls"] if tau["calls"] else 0.0, "unit": "ratio"}
    metrics["poly.exact_divide.fail_ratio"] = {
        "value": divide["errors"].get("NotDivisible", 0) / divide["calls"] if divide["calls"] else 0.0,
        "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    print(f"# traced replays: {len(summaries)}; overhead_s: {spread(overheads)}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pcgl", "cli.py")):
        print(f"perfbench: no pcgl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from inputs import make_workload

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        print(f"# workload {args.workload} seed {args.seed}; input sha256: "
              + json.dumps(workload["sha256"], sort_keys=True))
        runner = Runner(workload, workdir, env)
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
