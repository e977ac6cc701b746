"""fockbox benchmark harness.

    python3 perfbench/run.py --workload {verify,sweep,wide} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is the fockbox package under
src/.  Single process, closed loop, one client: one workload child runs at
a time and the next iteration starts when the previous one has finished.
The BLAS threading is the program's default: this harness sets no thread
variable for the end-to-end runs, and only the one-thread reference of the
traced run sets OPENBLAS_NUM_THREADS=1.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last line of standard output is the result object; the
line before it holds the details (environment record, samples, per-family
failure counts).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import blasenv
import expect

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_CHILD = os.path.join(HERE, "workload.py")

SETUP_REPEATS = 7
MIN_ITERATIONS = 3
# Fixed work for the traced run, so its counts repeat exactly for a seed.
TRACE_ITERATIONS = {"verify": 1, "sweep": 10, "wide": 4}
# Everything, set-up and children included, must end well inside 180 s.
RUN_BUDGET_S = 165.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Child:
    """Spawn one child, wait for it, and keep its wall time and peak RSS.

    The wait blocks in wait4 (no polling that would compete with the
    child's BLAS threads for the cores); a timer kills a child that runs
    past the deadline.
    """

    def __init__(self, cmd, env, work, label, deadline):
        out_path = os.path.join(work, f"{label}.out")
        err_path = os.path.join(work, f"{label}.err")
        expired = threading.Event()
        with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)

            def kill():
                expired.set()
                proc.kill()

            timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        if expired.is_set():
            raise BenchError(f"{label} did not finish in time")
        self.maxrss_kb = usage.ru_maxrss
        with open(out_path, encoding="utf-8") as fh:
            self.stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            self.stderr = fh.read()

    def report(self) -> dict:
        if self.code != 0:
            raise BenchError(f"child exited {self.code}: {self.stderr.strip()[-2000:]}")
        try:
            return json.loads(self.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise BenchError(f"child printed no result: {exc}") from exc


def percentile_summary(walls: list[float]) -> dict | None:
    """The highest listed percentile with at least ten samples above it."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            rank = max(1, math.ceil(p / 100.0 * n))
            return {"percentile": p, "value": ordered[rank - 1]}
    return None


class Harness:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        src = os.path.join(self.root, "src")
        if not os.path.isfile(os.path.join(src, "fockbox", "__init__.py")):
            raise BenchError(f"no fockbox package under {src}; run from the root of a checkout")
        self.work = os.path.join(self.root, ".bench_work", args.workload)
        os.makedirs(self.work, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.tally = expect.Tally()

    def child(self, argv, label, env=None) -> Child:
        return Child([sys.executable, *argv], env or self.env, self.work, label, self.deadline)

    def workload_child(self, command, label, *extra, env=None) -> dict:
        argv = [WORKLOAD_CHILD, command, "--workload", self.args.workload, "--work", self.work, *extra]
        child = self.child(argv, label, env)
        report = child.report()
        report["child_wall"] = child.wall
        report["child_maxrss_kb"] = child.maxrss_kb
        return report

    def seeded(self, *extra) -> list[str]:
        return ["--seed", str(self.args.seed), *extra]

    # -- end to end ---------------------------------------------------------

    def setup_walls(self):
        walls, env = [], None
        for i in range(SETUP_REPEATS):
            report = self.workload_child("setup", f"setup{i}")
            walls.append(report["child_wall"])
            env = env or report["env"]
        return walls, env

    def verify_iterations(self):
        """Each iteration is one fresh CLI process, timed spawn to exit."""
        out = os.path.join(self.work, "cli")
        report_csv = os.path.join(out, "report.csv")
        walls, checks, worst, maxrss = [], [], [], 0
        start = time.perf_counter()
        while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < self.args.seconds:
            if os.path.exists(report_csv):
                os.remove(report_csv)
            child = self.child(["-m", "fockbox", "verify", "--out", out], "cli")
            step = expect.Tally()
            expect.check_verify_report(report_csv, child.code, step)
            self.tally.merge(step)
            walls.append(child.wall)
            checks.append(expect.VERIFY_CHECKS)
            worst.append(step.worst_ratio)
            maxrss = max(maxrss, child.maxrss_kb)
        return walls, checks, worst, maxrss

    def end_to_end(self):
        setup, env = self.setup_walls()
        if self.args.workload == "verify":
            walls, checks, worst, maxrss_kb = self.verify_iterations()
        else:
            report = self.workload_child("run", "run", *self.seeded("--seconds", str(self.args.seconds)))
            walls, checks, worst = report["walls"], report["checks"], report["worst"]
            maxrss_kb = report["child_maxrss_kb"]
            self.tally.merge(expect.Tally.from_dict(report["tally"]))
        t = self.tally
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "checks_per_s": (statistics.median(c / w for c, w in zip(checks, walls)), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
            "pass_fraction": ((t.checks - t.failed_checks) / t.checks if t.checks else 0.0, "share"),
            "worst_tol_ratio": (statistics.median(worst), "ratio"),
        }
        detail = {
            "environment": env,
            "samples": len(walls),
            "walls": walls,
            "tail": percentile_summary(walls),
            "setup_walls": setup,
            "worst_tol_ratio_max": t.worst_ratio,
        }
        return metrics, detail

    # -- traced -------------------------------------------------------------

    def traced(self):
        """Untraced, traced and one-thread runs of the same fixed work."""
        n = str(TRACE_ITERATIONS[self.args.workload])
        plain = self.workload_child("run", "plain", *self.seeded("--iterations", n))
        traced = self.workload_child("run", "traced", *self.seeded("--iterations", n, "--trace"))
        one_env = dict(self.env, OPENBLAS_NUM_THREADS="1")
        one = self.workload_child("run", "one_thread", *self.seeded("--iterations", n), env=one_env)
        for report in (plain, traced, one):
            self.tally.merge(expect.Tally.from_dict(report["tally"]))
        metrics = {name: (value, layer_unit(name)) for name, value in traced["layers"].items()}
        metrics["blas.threads"] = (blasenv.max_threads(traced["env"]), "count")
        metrics["blas.one_thread_wall_s"] = (statistics.median(one["walls"]), "s")
        overhead = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
        metrics["trace.overhead_s"] = (overhead, "s")
        detail = {
            "environment": traced["env"],
            "one_thread_environment": one["env"],
            "samples": len(traced["walls"]),
            "walls": {"plain": plain["walls"], "traced": traced["walls"], "one_thread": one["walls"]},
        }
        return metrics, detail

    def run(self):
        metrics, detail = self.traced() if self.args.trace else self.end_to_end()
        t = self.tally
        detail.update(
            workload=self.args.workload,
            seed=self.args.seed,
            trace=self.args.trace,
            checks=t.checks,
            failed_checks=t.failed_checks,
            failed_fraction=t.failed_checks / t.checks if t.checks else None,
            family_failed=dict(t.family_failed),
            problems=t.problems,
        )
        result = {
            "correct": t.failed_calls == 0 and t.calls > 0,
            "attempted": t.calls,
            "failed": t.failed_calls,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        return detail, result


def layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if quantity.endswith("_s"):
        return "s"
    return {"useful_ratio": "ratio", "bytes": "B", "joint_dim": "states"}.get(quantity, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fockbox benchmark harness")
    parser.add_argument("--workload", choices=("verify", "sweep", "wide"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = Harness(args).run()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
