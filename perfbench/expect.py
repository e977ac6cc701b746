"""Seeded workload inputs and the correctness gates the benchmark applies.

Nothing here imports fockbox: the harness uses the verify gate on the
report.csv a CLI process wrote, and the workload child passes the sweep and
wide inputs to the library and hands its results back to these gates.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass, field

# The built-in model keeps one neutral mode (k = 2) and one charged mode
# (q = 1), so every identity family runs over the ladders a2, b1 and d1.
LADDERS = ("a2", "b1", "d1")
FIELD_KINDS = ("neutral", "charged", "charged_dagger")
X_SAMPLES = 8

# verify: the README headline run on the built-in config.
VERIFY_GRID = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
CENTRAL_F_VALUES = (-0.5, -0.25, 0.0, 0.25, 0.5)
CENTRAL_STATES = ("vacuum", "one_a", "one_b", "seeded:7")
STRUCTURAL = ("hamiltonian_quadrature", "hamiltonian_hermiticity", "charge_commutator")
QUARTIC_WINNERS = ("unit", "times4", "both")
VERIFY_CHECKS = 2652

# sweep: one batch is SWEEP_CALLS run_sweep calls with SWEEP_ROWS f1 values
# each.  Every f1 grid spans the direct-check limit exactly, with jittered
# interior points.  Two edge calls put f2 on the limit too, one per sign,
# for the package's default seeded state: the largest residual of a sweep
# comes from seeded states at the admissible edge, and with random states
# there the per-batch worst ratio would swing with the draws.  The other
# calls take each reference state kind once, with f2 drawn inside the limit.
SWEEP_EDGE_STATE = "seeded:7"
SWEEP_STATE_KINDS = ("vacuum", "one_a", "one_b", "seeded")
SWEEP_CALLS = 2 + len(SWEEP_STATE_KINDS)
SWEEP_ROWS = 7
C2_RTOL = 1e-6

# wide: one pass is WIDE_CORNERS fixed extreme pairs plus WIDE_DRAWN pairs
# drawn by Latin-hypercube stratification over [-A, A]^2, A the largest
# amplitude the cutoff-64 leakage policy admits.
WIDE_CUTOFF = 64
WIDE_DRAWN = 28
WIDE_CORNERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
WIDE_FAMILIES = ("ladder_shift", "free_shift", "field_shift", "unitarity", "composition")
# Families whose residual failures are the known working-headroom defect at
# large amplitude; a failure anywhere else breaks the wide gate.
WIDE_KNOWN_DEFECT = ("ladder_shift", "free_shift", "field_shift")


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# tallies


@dataclass
class Tally:
    """Checks attempted/failed, per family, and the worst residual/tolerance."""

    checks: int = 0
    failed_checks: int = 0
    calls: int = 0
    failed_calls: int = 0
    worst_ratio: float = 0.0
    family_failed: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def check(self, family: str, residual: float, tolerance: float, passed: bool) -> None:
        self.checks += 1
        ratio = residual / tolerance if math.isfinite(residual) else math.inf
        self.worst_ratio = max(self.worst_ratio, ratio)
        if not passed or not ratio <= 1.0:
            self.failed_checks += 1
            self.family_failed[family] += 1

    def missing(self, family: str, count: int) -> None:
        self.checks += count
        self.failed_checks += count
        self.family_failed[family] += count

    def call(self, ok: bool, problem: str = "") -> None:
        self.calls += 1
        if not ok:
            self.failed_calls += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        self.checks += other.checks
        self.failed_checks += other.failed_checks
        self.calls += other.calls
        self.failed_calls += other.failed_calls
        self.worst_ratio = max(self.worst_ratio, other.worst_ratio)
        self.family_failed.update(other.family_failed)
        self.problems.extend(other.problems[: max(0, 10 - len(self.problems))])

    def as_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "Tally":
        return cls(**{**d, "family_failed": Counter(d["family_failed"])})


def family_of(name: str) -> str:
    head = name.split("[", 1)[0]
    return "free_shift" if head == "free_shift_vacuum" else head


# ---------------------------------------------------------------------------
# verify


def point_check_names() -> list[str]:
    """Names of the identity checks run at one displacement point."""
    names = [f"ladder_shift[{lad}{sfx}]" for lad in LADDERS for sfx in ("", "_dag")]
    names += [f"free_shift[{s}]" for s in ("neutral", "charged")]
    names += [f"free_shift_vacuum[{s}]" for s in ("neutral", "charged")]
    names += [f"field_shift[{k}][x{j}]" for k in FIELD_KINDS for j in range(X_SAMPLES)]
    return names


def verify_expected() -> Counter:
    """(name, f1, f2) of every row report.csv must hold; the quartic
    adjudication row is keyed as 'quartic_coefficient' whatever its winner."""
    rows: Counter = Counter()
    per_point = point_check_names()
    per_point += [f"interchange[{s}][x{j}]" for s in ("quartic", "cubic") for j in range(X_SAMPLES)]
    per_point += ["unitarity", "composition"]
    for f1 in VERIFY_GRID:
        for f2 in VERIFY_GRID:
            for name in per_point:
                rows[(name, f1, f2)] += 1
    for state in CENTRAL_STATES:
        for f1 in CENTRAL_F_VALUES:
            for f2 in CENTRAL_F_VALUES:
                rows[(f"central_identity[{state}]", f1, f2)] += 1
    rows[("quartic_coefficient", None, None)] += 1
    for name in STRUCTURAL:
        rows[(name, None, None)] += 1
    assert sum(rows.values()) == VERIFY_CHECKS
    return rows


def _opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


def check_verify_report(path: str, exit_code: int, tally: Tally) -> None:
    """Gate one verify run: exit 0, every expected row present, all passing."""
    expected = verify_expected()
    seen: Counter = Counter()
    before = tally.failed_checks
    problem = "" if exit_code == 0 else f"verify exited with {exit_code}"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                name = row["identity_name"]
                key_name = name
                if name.startswith("quartic_coefficient["):
                    if name[len("quartic_coefficient[") : -1] not in QUARTIC_WINNERS:
                        problem = f"unexpected row {name}"
                    key_name = "quartic_coefficient"
                key = (key_name, _opt_float(row["f1"]), _opt_float(row["f2"]))
                if seen[key] >= expected[key]:
                    problem = f"unexpected row {key}"
                    continue
                seen[key] += 1
                tally.check(
                    family_of(name), float(row["residual"]), float(row["tolerance"]), row["pass"] == "true"
                )
    except (OSError, KeyError, ValueError) as exc:
        problem = f"unreadable report: {exc}"
    short = expected - seen
    for key, count in short.items():
        tally.missing(family_of(key[0]), count)
    failed = tally.failed_checks - before
    if failed and not problem:
        problem = f"{failed} verify checks failed or missing"
    tally.call(not problem, problem)


# ---------------------------------------------------------------------------
# sweep


def sweep_batch(seed: int, index: int, limit: float) -> list[dict]:
    """SWEEP_CALLS sweep specs; every amplitude stays inside the direct-check
    limit, so each row must carry a direct energy."""
    rng = _rng(seed, index)
    calls = [(SWEEP_EDGE_STATE, -limit), (SWEEP_EDGE_STATE, limit)]
    for kind in SWEEP_STATE_KINDS:
        state = f"seeded:{rng.randrange(1, 1_000_000)}" if kind == "seeded" else kind
        calls.append((state, limit * (2.0 * rng.random() - 1.0)))
    rng.shuffle(calls)
    step = 2.0 * limit / (SWEEP_ROWS - 1)
    specs = []
    for state, f2 in calls:
        inner = [-limit + (i + 0.5 * (rng.random() - 0.5)) * step for i in range(1, SWEEP_ROWS - 1)]
        specs.append({"state": state, "f1": [-limit, *inner, limit], "f2": f2})
    return specs


def check_sweep_result(spec: dict, result, residual_tol: float, fit_tol: float, tally: Tally) -> None:
    """Every row compared directly and within tolerance, the fit residual
    within tolerance, and the fitted c2 equal to A4 + f2 A5."""
    before = tally.failed_checks
    rows = list(result.rows)
    if [r.f1 for r in rows] != spec["f1"] or any(r.f2 != spec["f2"] for r in rows):
        tally.call(False, f"sweep rows do not match the requested grid for {spec['state']}")
        tally.missing("sweep_row", len(spec["f1"]) + 2)
        return
    for r in rows:
        if r.residual is None or r.energy_direct is None:
            tally.missing("sweep_row", 1)
        else:
            tally.check("sweep_row", r.residual, residual_tol, r.residual <= residual_tol)
    tally.check("sweep_fit", result.fit_residual, fit_tol, result.fit_residual <= fit_tol)
    c2_tol = C2_RTOL * (1.0 + abs(result.c2))
    c2_diff = abs(result.c2 - result.expected_c2)
    tally.check("sweep_c2", c2_diff, c2_tol, c2_diff <= c2_tol)
    ok = tally.failed_checks == before
    tally.call(ok, "" if ok else f"sweep {spec['state']} f2={spec['f2']!r} failed")


# ---------------------------------------------------------------------------
# wide


def wide_pass(seed: int, index: int, amax: float) -> list[tuple[float, float]]:
    """The four extreme admissible corners, then WIDE_DRAWN stratified pairs."""
    rng = _rng(seed, index)
    pairs = [(s1 * amax, s2 * amax) for s1, s2 in WIDE_CORNERS]
    strata1 = list(range(WIDE_DRAWN))
    strata2 = list(range(WIDE_DRAWN))
    rng.shuffle(strata1)
    rng.shuffle(strata2)
    for i, j in zip(strata1, strata2):
        u1 = (i + rng.random()) / WIDE_DRAWN
        u2 = (j + rng.random()) / WIDE_DRAWN
        pairs.append((amax * (2.0 * u1 - 1.0), amax * (2.0 * u2 - 1.0)))
    return pairs


# The checks one family call returns at one pair, keyed by family.
WIDE_EXPECTED = {
    family: Counter(n for n in point_check_names() + ["unitarity", "composition"] if family_of(n) == family)
    for family in WIDE_FAMILIES
}
WIDE_CHECKS_PER_PAIR = sum(sum(c.values()) for c in WIDE_EXPECTED.values())


def check_wide_family(family: str, pair: tuple[float, float], checks, tally: Tally) -> None:
    """Gate one family call: every expected check present at the requested
    point with a finite residual; outside the known-defect families every
    check must also pass.  Residual failures are tallied per family."""
    expected = WIDE_EXPECTED[family]
    seen = Counter()
    problem = ""
    for c in checks:
        if c.name not in expected or seen[c.name] >= expected[c.name]:
            problem = f"unexpected check {c.name}"
            continue
        if (c.f1, c.f2) != pair:
            problem = f"{c.name} reported at {(c.f1, c.f2)} for {pair}"
        seen[c.name] += 1
        if not math.isfinite(c.residual):
            problem = f"{c.name} residual {c.residual}"
        tally.check(family, c.residual, c.tolerance, c.passed)
        if not c.passed and family not in WIDE_KNOWN_DEFECT:
            problem = f"{c.name} failed at {pair}"
    short = sum((expected - seen).values())
    if short:
        tally.missing(family, short)
        problem = problem or f"{short} {family} checks missing at {pair}"
    tally.call(not problem, problem)
