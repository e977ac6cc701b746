"""Workload child: one process per set-up measurement or measured run.

    python3 perfbench/workload.py setup --workload W
    python3 perfbench/workload.py run --workload W --seed N
        (--seconds S | --iterations K) [--trace] [--work DIR]

`setup` performs the workload's set-up and exits; the harness times the
whole process.  `run` performs the set-up untimed, then times iterations
and prints one JSON object: per-iteration wall times, checks and worst
residual/tolerance, the
correctness tally, the environment record, its own peak RSS and, with
--trace, the per-layer metrics of the span recorder.  The BLAS threading is
whatever the environment gives; this file never changes it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import blasenv
import expect
from spans import SpanRecorder

MIN_ITERATIONS = 3


class Verify:
    """One in-process `fockbox verify` on the built-in config.  Used only for
    the traced run and its references: a CLI process cannot be wrapped."""

    def __init__(self, seed: int, work: str):
        from fockbox import probe

        self.probe = probe
        self.out = os.path.join(work, "verify-inproc")
        self.report = os.path.join(self.out, "report.csv")

    def inputs(self, index: int):
        return None

    def iterate(self, _inputs):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.probe.main(["verify", "--out", self.out])
        except Exception as exc:  # a failed call is counted, the run goes on
            return exc

    def gate(self, _inputs, exit_code, tally: expect.Tally) -> int:
        if isinstance(exit_code, Exception):
            tally.call(False, f"verify raised {exit_code!r}")
            tally.missing("verify", expect.VERIFY_CHECKS)
        else:
            expect.check_verify_report(self.report, exit_code, tally)
        return expect.VERIFY_CHECKS


class Sweep:
    """A batch of run_sweep calls inside the direct-check limit."""

    def __init__(self, seed: int, work: str):
        from fockbox import build_layout, default_config, probe

        self.seed = seed
        self.probe = probe
        self.tolerances = (probe.SWEEP_RESIDUAL_TOL, probe.FIT_RESIDUAL_TOL)
        self.config = default_config()
        self.layout = build_layout(self.config)
        self.limit = probe.direct_check_limit(self.config, self.layout)
        half = 0.5 * self.limit
        probe.run_sweep(self.config, probe.SweepSpec((-half, 0.0, half), half, "vacuum"), self.layout)

    def inputs(self, index: int):
        return expect.sweep_batch(self.seed, index, self.limit)

    def iterate(self, specs):
        results = []
        for spec in specs:
            try:
                sweep = self.probe.SweepSpec(tuple(spec["f1"]), spec["f2"], spec["state"])
                # Looked up per call, so the traced run sees the wrapped function.
                results.append(self.probe.run_sweep(self.config, sweep, self.layout))
            except Exception as exc:  # a failed call is counted, the run goes on
                results.append(exc)
        return results

    def gate(self, specs, results, tally: expect.Tally) -> int:
        checks = 0
        for spec, result in zip(specs, results):
            checks += len(spec["f1"]) + 2
            if isinstance(result, Exception):
                tally.missing("sweep_row", len(spec["f1"]) + 2)
                tally.call(False, f"run_sweep raised {result!r}")
            else:
                expect.check_sweep_result(spec, result, *self.tolerances, tally)
        return checks


class Wide:
    """One pass of the five single-point identity families at cutoff 64."""

    def __init__(self, seed: int, work: str):
        from fockbox import DisplacementParams, build_layout, default_config, max_admissible_amplitude
        from fockbox import displace

        self.seed = seed
        self.Params = DisplacementParams
        self.config = default_config().with_cutoff(expect.WIDE_CUTOFF)
        self.layout = build_layout(self.config)
        self.amax = max_admissible_amplitude(expect.WIDE_CUTOFF)
        self.displace = displace
        self.families = [
            ("ladder_shift", "check_ladder_shifts"),
            ("free_shift", "check_free_hamiltonian_shift"),
            ("field_shift", "check_field_shift"),
            ("unitarity", "check_unitarity"),
            ("composition", "check_composition"),
        ]
        self.iterate([(0.5, 0.5)])

    def inputs(self, index: int):
        return expect.wide_pass(self.seed, index, self.amax)

    def iterate(self, pairs):
        results = []
        for f1, f2 in pairs:
            params = self.Params(f1, f2)
            for _, name in self.families:
                # Looked up per call, so the traced run sees the wrapped function.
                check = getattr(self.displace, name)
                try:
                    results.append(check(self.config, params, self.layout))
                except Exception as exc:  # a failed call is counted, the run goes on
                    results.append(exc)
        return results

    def gate(self, pairs, results, tally: expect.Tally) -> int:
        outcomes = iter(results)
        for pair in pairs:
            for family, _ in self.families:
                out = next(outcomes)
                if isinstance(out, Exception):
                    tally.missing(family, sum(expect.WIDE_EXPECTED[family].values()))
                    tally.call(False, f"{family} raised {out!r} at {pair}")
                else:
                    checks = out if isinstance(out, list) else [out]
                    expect.check_wide_family(family, pair, checks, tally)
        return len(pairs) * expect.WIDE_CHECKS_PER_PAIR


WORKLOADS = {"verify": Verify, "sweep": Sweep, "wide": Wide}


def cmd_setup(args) -> None:
    if args.workload == "verify":
        # What a CLI verify pays before its checks: interpreter, import and
        # the first Hamiltonian assembly.
        from fockbox import build_H, build_layout, default_config

        config = default_config()
        build_H(config, build_layout(config))
    else:
        WORKLOADS[args.workload](0, args.work)
    print(json.dumps({"env": blasenv.record()}))


def cmd_run(args) -> None:
    workload = WORKLOADS[args.workload](args.seed, args.work)
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.install()
    tally = expect.Tally()
    walls, checks, worst = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        if args.iterations is not None:
            if index >= args.iterations:
                break
        elif index >= MIN_ITERATIONS and time.perf_counter() - start >= args.seconds:
            break
        inputs = workload.inputs(index)
        t0 = time.perf_counter()
        outputs = workload.iterate(inputs)
        walls.append(time.perf_counter() - t0)
        step = expect.Tally()
        checks.append(workload.gate(inputs, outputs, step))
        worst.append(step.worst_ratio)
        tally.merge(step)
        index += 1
    report = {
        "walls": walls,
        "checks": checks,
        "worst": worst,
        "tally": tally.as_dict(),
        "env": blasenv.record(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        report["layers"] = recorder.metrics()
        recorder.write(os.path.join(args.work, f"spans-{args.workload}.json"))
    print(json.dumps(report))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_run = sub.add_parser("run")
    for p in (p_setup, p_run):
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--work", default=".bench_work")
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, default=0.0)
    p_run.add_argument("--iterations", type=int)
    p_run.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    {"setup": cmd_setup, "run": cmd_run}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
