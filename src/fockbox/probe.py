"""Command-line front end: verify, coeffs, sweep, demo.

Exit codes: 0 all requested checks pass, 1 an identity or verdict failed,
2 unusable configuration or arguments (including displacement amplitudes the
configured cutoffs cannot hold).  CSV outputs are byte-deterministic: fixed
column and row order, floats via repr (shortest round-trip form), empty
string for absent values, booleans as true/false.
"""

from __future__ import annotations

import argparse
import math
import csv
import operator
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from . import ladderalg
from .coeffs import (
    CENTRAL_STATES,
    CoefficientSet,
    central_identity_checks,
    descent_threshold,
    displaced_energies,
    energy_polynomial,
    reference,
    vacuum_closed_forms,
    COEFFICIENT_NAMES,
)
from .displace import (
    DisplacementParams,
    InterchangeChecker,
    ResidualCheck,
    check_composition,
    check_field_shift,
    check_free_hamiltonian_shift,
    check_ladder_shifts,
    check_unitarity,
    require_admissible,
)
from .errors import ConfigError, FockboxError
from .fockspace import FockLayout, max_admissible_amplitude
from .model import (
    ModelConfig,
    build_layout,
    charge,
    default_config,
    hamiltonian_polynomial,
    interaction_density_polynomial,
    interaction_quadrature,
    load_config,
)

VERIFY_GRID = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
SWEEP_RESIDUAL_TOL = 1e-6
FIT_RESIDUAL_TOL = 1e-9
QUADRATURE_TOL = 1e-9
HERMITICITY_TOL = 1e-12
CHARGE_COMMUTATOR_TOL = 1e-10

DEMO_F1_VALUES = tuple(0.5 * i for i in range(21))
MAX_SWEEP_ROWS = 10_000


def format_float(value: float) -> str:
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_report_csv(path: str, checks: list[ResidualCheck]) -> None:
    rows = [
        [
            c.name,
            "" if c.f1 is None else format_float(c.f1),
            "" if c.f2 is None else format_float(c.f2),
            format_float(c.residual),
            format_float(c.tolerance),
            "true" if c.passed else "false",
        ]
        for c in checks
    ]
    _write_csv(path, ["identity_name", "f1", "f2", "residual", "tolerance", "pass"], rows)


def write_coefficients_csv(path: str, cs: CoefficientSet, closed_forms: dict[str, float] | None) -> None:
    rows = []
    for name in COEFFICIENT_NAMES:
        value = getattr(cs, name)
        if closed_forms is not None and name in closed_forms:
            closed = closed_forms[name]
            rows.append([name, format_float(value), format_float(closed), format_float(abs(value - closed))])
        else:
            rows.append([name, format_float(value), "", ""])
    _write_csv(path, ["name", "value", "closed_form_value", "abs_difference"], rows)


# ---------------------------------------------------------------------------
# full verification sweep


def run_verification(config: ModelConfig, layout: FockLayout, extra_state: str | None = None) -> list[ResidualCheck]:
    """Every identity check on the standard grid, the central energy identity
    over the full reference-state test set, and the Hamiltonian structure
    checks.  extra_state appends one more state to the central-identity set,
    unless it is a spelling of one of them."""
    extreme = max(abs(f) for f in VERIFY_GRID)
    require_admissible(config, DisplacementParams(extreme, extreme), layout)
    if extra_state is not None:
        reference(config, extra_state, layout)  # a bad selector fails before the grid

    checker = InterchangeChecker(config, layout)
    checks: list[ResidualCheck] = []
    for f1 in VERIFY_GRID:
        for f2 in VERIFY_GRID:
            params = DisplacementParams(f1, f2)
            checks.extend(check_ladder_shifts(config, params, layout))
            checks.extend(check_free_hamiltonian_shift(config, params, layout))
            checks.extend(check_field_shift(config, params, layout))
            checks.extend(checker.run(params))
            checks.append(check_unitarity(config, params, layout))
            checks.append(check_composition(config, params, layout))

    extra = () if extra_state is None else (extra_state,)
    checks.extend(central_identity_checks(config, layout, CENTRAL_STATES + extra))

    # the quadrature gap, relative to the largest coefficient once that exceeds 1
    symbolic = ladderalg.integrate_box(interaction_density_polynomial(config), config.box_length)
    scale = max([1.0] + [abs(t.coefficient) for t in symbolic.terms])
    gap = ladderalg.coefficient_gap(symbolic, interaction_quadrature(config)) / scale
    checks.append(ResidualCheck("hamiltonian_quadrature", None, None, gap, QUADRATURE_TOL))
    # every monomial's adjoint is in H with the conjugate coefficient, and
    # every monomial conserves charge
    h = hamiltonian_polynomial(config)
    hermiticity = ladderalg.coefficient_gap(ladderalg.normal_order(h), ladderalg.normal_order(ladderalg.adjoint(h)))
    checks.append(ResidualCheck("hamiltonian_hermiticity", None, None, hermiticity, HERMITICITY_TOL))
    imbalance = max((abs(charge(t) * t.coefficient) for t in h.terms), default=0.0)
    checks.append(ResidualCheck("charge_commutator", None, None, imbalance, CHARGE_COMMUTATOR_TOL))
    return checks


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    f1: float
    f2: float
    energy_polynomial: float
    energy_direct: float | None
    residual: float | None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    c2: float
    expected_c2: float
    fit_residual: float
    descent_certified: bool


def direct_check_limit(config: ModelConfig, layout: FockLayout) -> float:
    """Largest |amplitude| every displaced ladder holds under the leakage
    policy: a sweep compares every row inside it directly, and a row past it
    on a ladder whose cutoff admits it too."""
    return min(max_admissible_amplitude(layout.cutoff(lad)) for lad, _ in config.displaced_ladders())


def quadratic_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(c2, residual) of the least-squares quadratic c0 + c1 x + c2 x^2
    through the points, residual its largest |p(x) - y| over 1 + max |y|.
    x is centred and scaled onto u in [-1, 1], modified Gram-Schmidt makes
    the columns 1, u and u^2 orthonormal, and y is projected on each in
    turn (Bjorck, BIT 7, 1967).  Where the fit leaves float64 it raises
    ArithmeticError: a step that divides by zero, a result that is not
    finite, or a sum of y^2, the objective at p = 0, that overflows."""
    lo, hi = min(xs), max(xs)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    u = [(x - centre) / half for x in xs]
    q: list[list[float]] = []
    r = [[0.0] * 3 for _ in range(3)]
    for j, column in enumerate(([1.0] * len(u), u, [v * v for v in u])):
        for i, qi in enumerate(q):
            r[i][j] = _dot(qi, column)
            column = [a - r[i][j] * b for a, b in zip(column, qi)]
        r[j][j] = math.sqrt(_dot(column, column))
        q.append([a / r[j][j] for a in column])
    z, rest = [], list(ys)
    for qi in q:
        z.append(_dot(qi, rest))
        rest = [a - z[-1] * b for a, b in zip(rest, qi)]
    b2 = z[2] / r[2][2]
    b1 = (z[1] - r[1][2] * b2) / r[1][1]
    b0 = (z[0] - r[0][1] * b1 - r[0][2] * b2) / r[0][0]
    c2 = b2 / (half * half)
    residual = max(abs(b0 + v * (b1 + v * b2) - y) for v, y in zip(u, ys)) / (1.0 + max(map(abs, ys)))
    if not all(math.isfinite(value) for value in (c2, residual, _dot(ys, ys))):
        raise OverflowError("the fit leaves the range of float64")
    return c2, residual


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(operator.mul, a, b))


@dataclass(frozen=True)
class SweepSpec:
    """One descent scan: energies along f1 at fixed f2 for one reference
    state."""

    f1_values: tuple[float, ...]
    f2: float
    state_selector: str = "vacuum"

    def __post_init__(self):
        if not all(math.isfinite(f) for f in (*self.f1_values, self.f2)):
            raise ConfigError("sweep amplitudes must be finite")
        if len(set(self.f1_values)) < 3:
            raise ConfigError("a sweep needs at least 3 distinct f1 values for its quadratic fit")


def run_sweep(config: ModelConfig, spec: SweepSpec, layout: FockLayout) -> SweepResult:
    """Energy polynomial along f1 at fixed f2, with direct expectations on
    every row whose amplitude on each displaced ladder is one that ladder's
    cutoff admits: the per-ladder leakage policy of require_admissible.

    descent_certified asserts three facts at once: the fitted quadratic
    coefficient is negative, it matches A4 + f2 A5, and every direct
    comparison that could be computed agrees with the polynomial.
    """
    state, cs = reference(config, spec.state_selector, layout)
    # each displaced ladder's index in (f1, f2) and the largest |f| its cutoff admits
    limits = [(index, max_admissible_amplitude(layout.cutoff(lad))) for lad, index in config.displaced_ladders()]

    f2 = spec.f2
    polynomial, inside = [], []
    for f1 in spec.f1_values:
        try:
            e_poly = energy_polynomial(cs, f1, f2)
        except OverflowError:
            e_poly = math.inf
        if not math.isfinite(e_poly):
            raise ConfigError(f"the energy polynomial overflows float64 at f1 = {f1!r}, f2 = {f2!r}")
        polynomial.append(e_poly)
        inside.append(all(abs((f1, f2)[index]) <= limit for index, limit in limits))
    direct = iter(displaced_energies(config, state, [(f1, f2) for f1, ok in zip(spec.f1_values, inside) if ok]))
    rows = []
    for f1, e_poly, ok in zip(spec.f1_values, polynomial, inside):
        if ok:
            e_direct = next(direct)
            residual = abs(e_poly - e_direct) / (1.0 + abs(e_direct))
        else:
            e_direct = None
            residual = None
        rows.append(SweepRow(f1, f2, e_poly, e_direct, residual))

    try:
        c2, fit_residual = quadratic_fit(spec.f1_values, polynomial)
    except ArithmeticError as exc:
        raise ConfigError("the quadratic fit of this sweep leaves the range of float64") from exc
    expected_c2 = cs.A4 + spec.f2 * cs.A5
    certified = (
        c2 < 0.0
        and abs(c2 - expected_c2) <= 1e-6 * (1.0 + abs(c2))
        and all(r.residual <= SWEEP_RESIDUAL_TOL for r in rows if r.residual is not None)
    )
    return SweepResult(tuple(rows), c2, expected_c2, fit_residual, certified)


def write_sweep_csv(path: str, result: SweepResult) -> None:
    rows = [
        [
            format_float(r.f1),
            format_float(r.f2),
            format_float(r.energy_polynomial),
            "" if r.energy_direct is None else format_float(r.energy_direct),
            "" if r.residual is None else format_float(r.residual),
        ]
        for r in result.rows
    ]
    _write_csv(path, ["f1", "f2", "E_polynomial", "E_direct", "residual"], rows)


def parse_f1_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--f1 must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--f1 must be numeric START:STOP:STEP, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"--f1 values must be finite, got {text!r}")
    if step <= 0.0:
        raise ConfigError("--f1 step must be positive")
    if stop < start:
        raise ConfigError("--f1 stop must not be below start")
    span = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if span >= MAX_SWEEP_ROWS:
        raise ConfigError(f"--f1 gives more than {MAX_SWEEP_ROWS} rows")
    count = int(math.floor(span)) + 1
    return [start + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# subcommands


def _missing_dirs(path: str) -> list[str]:
    """The directories creating path would add, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _print_check_summary(checks: list[ResidualCheck]) -> list[ResidualCheck]:
    failures = [c for c in checks if not c.passed]
    print(f"checks run: {len(checks)}  failed: {len(failures)}")
    for c in failures[:20]:
        point = "" if c.f1 is None else f" at f1={format_float(c.f1)}, f2={format_float(c.f2)}"
        print(f"  FAIL {c.name}{point}: residual {c.residual:.3e} > {c.tolerance:.1e}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more")
    return failures


def cmd_verify(args, config: ModelConfig, layout: FockLayout) -> int:
    checks = run_verification(config, layout, args.state)
    path = os.path.join(args.out, "report.csv")
    write_report_csv(path, checks)
    failures = _print_check_summary(checks)
    adjudication = next(c for c in checks if c.name.startswith("quartic_coefficient["))
    print(f"quartic weight matching the direct energies: {adjudication.name}")
    print(f"report: {path}")
    return 1 if failures else 0


def cmd_coeffs(args, config: ModelConfig, layout: FockLayout) -> int:
    _, cs = reference(config, args.state, layout)
    closed = vacuum_closed_forms(config) if args.state == "vacuum" else None
    path = os.path.join(args.out, "coefficients.csv")
    write_coefficients_csv(path, cs, closed)
    for name in COEFFICIENT_NAMES:
        line = f"{name} = {format_float(getattr(cs, name))}"
        if closed is not None and name in closed:
            line += f"  (closed form {format_float(closed[name])})"
        print(line)
    print(f"largest imaginary part discarded: {cs.max_imag:.3e}")
    print(f"coefficients: {path}")
    return 0


def cmd_sweep(args, config: ModelConfig, layout: FockLayout) -> int:
    spec = SweepSpec(tuple(parse_f1_range(args.f1)), args.f2, args.state)
    result = run_sweep(config, spec, layout)
    path = os.path.join(args.out, "sweep.csv")
    write_sweep_csv(path, result)
    direct_rows = sum(1 for r in result.rows if r.energy_direct is not None)
    print(f"rows: {len(result.rows)}  with direct comparison: {direct_rows}")
    print(f"fitted quadratic coefficient c2 = {format_float(result.c2)}")
    print(f"expected A4 + f2 A5 = {format_float(result.expected_c2)}")
    print(f"fit residual: {result.fit_residual:.3e}")
    print(f"descent certified: {'true' if result.descent_certified else 'false'}")
    print(f"sweep: {path}")
    bad_rows = [r for r in result.rows if r.residual is not None and r.residual > SWEEP_RESIDUAL_TOL]
    if bad_rows or result.fit_residual > FIT_RESIDUAL_TOL:
        return 1
    return 0


def cmd_demo(args, config: ModelConfig, layout: FockLayout) -> int:
    if config.lambda1 <= 0.0:
        raise ConfigError("the descent demo needs a positive cubic coupling")
    if config.k_index != 2 * config.q_index:
        raise ConfigError(
            "the descent demo needs the neutral displacement mode at twice the"
            " charged mode (k = 2q), or the cubic overlap integral vanishes"
        )
    _, cs = reference(config, "vacuum", layout)
    threshold = descent_threshold(cs)
    f2 = -2.0 * threshold

    result = run_sweep(config, SweepSpec(DEMO_F1_VALUES, f2), layout)
    checks = run_verification(config, layout)

    write_report_csv(os.path.join(args.out, "report.csv"), checks)
    write_coefficients_csv(os.path.join(args.out, "coefficients.csv"), cs, vacuum_closed_forms(config))
    write_sweep_csv(os.path.join(args.out, "sweep.csv"), result)

    first, last = result.rows[0], result.rows[-1]
    print(f"threshold |f2| for descent: {format_float(threshold)}")
    print(f"demo displacement f2 = {format_float(f2)} (twice past threshold)")
    print(f"reference energy E(0, 0) = {format_float(cs.E_ref)}")
    print(f"E(f1={format_float(first.f1)}) = {format_float(first.energy_polynomial)}")
    print(f"E(f1={format_float(last.f1)}) = {format_float(last.energy_polynomial)}")
    print(f"fitted c2 = {format_float(result.c2)}  expected A4 + f2 A5 = {format_float(result.expected_c2)}")
    failures = _print_check_summary(checks)
    descending = last.energy_polynomial < first.energy_polynomial
    print(f"energy falls along f1: {'true' if descending else 'false'}")
    print(f"descent certified: {'true' if result.descent_certified else 'false'}")
    ok = not failures and result.descent_certified and descending
    print(f"demo verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fockbox",
        description=(
            "Verify displacement identities, report displaced-energy"
            " coefficients, and sweep the energy along the pair amplitude"
            " on truncated multi-ladder boson spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_state=True):
        p.add_argument("--config", help="model config file (key = value lines)")
        p.add_argument("--out", default="out", help="output directory for CSV files")
        if with_state:
            p.add_argument(
                "--state",
                default="vacuum",
                help="reference state: vacuum, one_a, one_b or seeded:<int>",
            )

    p_verify = sub.add_parser("verify", help="run every identity check, write report.csv")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_coeffs = sub.add_parser("coeffs", help="evaluate coefficients, write coefficients.csv")
    add_common(p_coeffs)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_sweep = sub.add_parser("sweep", help="sweep the energy along f1, write sweep.csv")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--f1",
        required=True,
        help="START:STOP:STEP, inclusive; a negative START needs the = form, as in --f1=-1:1:0.5",
    )
    p_sweep.add_argument("--f2", type=float, required=True, help="fixed neutral amplitude")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser(
        "demo", help="vacuum descent demonstration; writes all three CSV files"
    )
    add_common(p_demo, with_state=False)
    p_demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    new_dirs = _missing_dirs(args.out)
    try:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use --out {args.out!r}: {exc.strerror or exc}") from exc
        config = load_config(args.config) if args.config else default_config()
        return args.func(args, config, build_layout(config))
    except FockboxError as exc:
        # a failed run leaves behind no --out it created, unless it wrote there
        for path in new_dirs:
            try:
                os.rmdir(path)
            except OSError:
                break
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
