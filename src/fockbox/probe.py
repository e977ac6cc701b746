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
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ladderalg
from .coeffs import (
    CoefficientSet,
    DEFAULT_SEED,
    central_identity_checks,
    coefficients,
    descent_threshold,
    energy_polynomial,
    reference_state,
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
    displaced_amplitudes,
    displacement,
    require_admissible,
)
from .errors import ConfigError, GeometryError, GridError, LayoutError, LeakageError
from .fockspace import FockLayout, expectation, max_admissible_amplitude
from .model import (
    ModelConfig,
    build_H,
    build_layout,
    charge_operator,
    default_config,
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

DEMO_F1_START = 0.0
DEMO_F1_STOP = 10.0
DEMO_F1_STEP = 0.5
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


def run_verification(
    config: ModelConfig, layout: FockLayout | None = None, extra_state: str | None = None
) -> list[ResidualCheck]:
    """Every identity check on the standard grid, the central energy identity
    over the full reference-state test set, and the Hamiltonian structure
    checks.  extra_state appends one more state to the central-identity set."""
    layout = layout or build_layout(config)
    extreme = max(abs(f) for f in VERIFY_GRID)
    require_admissible(config, DisplacementParams(extreme, extreme), layout)
    if extra_state is not None:
        reference_state(config, extra_state, layout)  # a bad selector fails before the grid

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

    selectors = ["vacuum", "one_a", "one_b", f"seeded:{DEFAULT_SEED}"]
    if extra_state is not None and extra_state not in selectors:
        selectors.append(extra_state)
    checks.extend(central_identity_checks(config, layout, state_selectors=selectors))

    symbolic = ladderalg.realize(
        ladderalg.integrate_box(interaction_density_polynomial(config), config.box_length),
        layout,
    )
    quadrature = interaction_quadrature(config, layout)
    checks.append(
        ResidualCheck(
            "hamiltonian_quadrature", None, None, (symbolic - quadrature).max_abs(), QUADRATURE_TOL
        )
    )
    h = build_H(config, layout)
    checks.append(
        ResidualCheck(
            "hamiltonian_hermiticity", None, None, h.hermiticity_residual(), HERMITICITY_TOL
        )
    )
    q = charge_operator(config, layout)
    checks.append(
        ResidualCheck(
            "charge_commutator", None, None, (h @ q - q @ h).max_abs(), CHARGE_COMMUTATOR_TOL
        )
    )
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


def direct_check_limit(config: ModelConfig, layout: FockLayout | None = None) -> float:
    """Largest |amplitude| every displaced ladder holds under the leakage
    policy; sweeps attempt direct comparisons only inside it."""
    layout = layout or build_layout(config)
    probe_amplitudes = displaced_amplitudes(config, DisplacementParams(1.0, 1.0))
    return min(max_admissible_amplitude(layout.cutoff(lad)) for lad in probe_amplitudes)


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


def run_sweep(
    config: ModelConfig,
    spec: SweepSpec,
    layout: FockLayout | None = None,
    cs: CoefficientSet | None = None,
) -> SweepResult:
    """Energy polynomial along f1 at fixed f2, with direct expectations on
    every row whose amplitudes stay inside the direct-check limit.

    descent_certified asserts three facts at once: the fitted quadratic
    coefficient is negative, it matches A4 + f2 A5, and every direct
    comparison that could be computed agrees with the polynomial.  A
    precomputed coefficient set may be passed; it must belong to the same
    reference state the sweep selects.
    """
    layout = layout or build_layout(config)
    state = reference_state(config, spec.state_selector, layout)
    if cs is None:
        cs = coefficients(config, state, layout)
    limit = direct_check_limit(config, layout)

    H = None
    rows = []
    for f1 in spec.f1_values:
        f2 = spec.f2
        try:
            e_poly = energy_polynomial(cs, f1, f2)
        except OverflowError:
            e_poly = math.inf
        if not math.isfinite(e_poly):
            raise ConfigError(f"the energy polynomial overflows float64 at f1 = {f1!r}, f2 = {f2!r}")
        if max(abs(f1), abs(f2)) <= limit:
            if H is None:
                H = build_H(config, layout)
            displaced = displacement(config, DisplacementParams(f1, f2), layout).apply(state)
            e_direct = float(np.real(expectation(H, displaced)))
            residual = abs(e_poly - e_direct) / (1.0 + abs(e_direct))
        else:
            e_direct = None
            residual = None
        rows.append(SweepRow(f1, f2, e_poly, e_direct, residual))

    f1_arr = np.array([r.f1 for r in rows])
    e_arr = np.array([r.energy_polynomial for r in rows])
    try:
        with np.errstate(over="raise", invalid="raise"):
            fit = np.polyfit(f1_arr, e_arr, 2)
            fit_residual = float(np.max(np.abs(np.polyval(fit, f1_arr) - e_arr)) / (1.0 + np.max(np.abs(e_arr))))
    except FloatingPointError as exc:
        raise ConfigError("the quadratic fit of this sweep overflows float64") from exc
    c2 = float(fit[0])
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


def _resolve_config(args) -> ModelConfig:
    return load_config(args.config) if args.config else default_config()


def _out_dir(args) -> str:
    """Create the --out directory once the arguments are known to be valid,
    but before any computation, so an unusable one fails early."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {args.out!r}: {exc.strerror or exc}") from exc
    return args.out


def _print_check_summary(checks: list[ResidualCheck]) -> list[ResidualCheck]:
    failures = [c for c in checks if not c.passed]
    print(f"checks run: {len(checks)}  failed: {len(failures)}")
    for c in failures[:20]:
        point = "" if c.f1 is None else f" at f1={format_float(c.f1)}, f2={format_float(c.f2)}"
        print(f"  FAIL {c.name}{point}: residual {c.residual:.3e} > {c.tolerance:.1e}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more")
    return failures


def cmd_verify(args) -> int:
    config = _resolve_config(args)
    layout = build_layout(config)
    reference_state(config, args.state, layout)
    out = _out_dir(args)
    checks = run_verification(config, layout, args.state)
    path = os.path.join(out, "report.csv")
    write_report_csv(path, checks)
    failures = _print_check_summary(checks)
    adjudication = next(c for c in checks if c.name.startswith("quartic_coefficient["))
    print(f"quartic weight matching the direct energies: {adjudication.name}")
    print(f"report: {path}")
    return 1 if failures else 0


def cmd_coeffs(args) -> int:
    config = _resolve_config(args)
    layout = build_layout(config)
    state = reference_state(config, args.state, layout)
    out = _out_dir(args)
    cs = coefficients(config, state, layout)
    closed = vacuum_closed_forms(config) if args.state == "vacuum" else None
    path = os.path.join(out, "coefficients.csv")
    write_coefficients_csv(path, cs, closed)
    for name in COEFFICIENT_NAMES:
        line = f"{name} = {format_float(getattr(cs, name))}"
        if closed is not None and name in closed:
            line += f"  (closed form {format_float(closed[name])})"
        print(line)
    print(f"largest imaginary part discarded: {cs.max_imag:.3e}")
    print(f"coefficients: {path}")
    return 0


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    layout = build_layout(config)
    spec = SweepSpec(tuple(parse_f1_range(args.f1)), args.f2, args.state)
    reference_state(config, args.state, layout)
    out = _out_dir(args)
    result = run_sweep(config, spec, layout)
    path = os.path.join(out, "sweep.csv")
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


def cmd_demo(args) -> int:
    config = _resolve_config(args)
    if config.lambda1 <= 0.0:
        raise ConfigError("the descent demo needs a positive cubic coupling")
    if config.k_index != 2 * config.q_index:
        raise ConfigError(
            "the descent demo needs the neutral displacement mode at twice the"
            " charged mode (k = 2q), or the cubic overlap integral vanishes"
        )
    layout = build_layout(config)
    out = _out_dir(args)
    state = reference_state(config, "vacuum", layout)
    cs = coefficients(config, state, layout)
    threshold = descent_threshold(cs)
    f2 = -2.0 * threshold
    f1_values = parse_f1_range(f"{DEMO_F1_START}:{DEMO_F1_STOP}:{DEMO_F1_STEP}")

    result = run_sweep(config, SweepSpec(tuple(f1_values), f2), layout, cs=cs)
    checks = run_verification(config, layout)

    write_report_csv(os.path.join(out, "report.csv"), checks)
    write_coefficients_csv(os.path.join(out, "coefficients.csv"), cs, vacuum_closed_forms(config))
    write_sweep_csv(os.path.join(out, "sweep.csv"), result)

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
    p_sweep.add_argument("--f1", required=True, help="START:STOP:STEP, inclusive")
    p_sweep.add_argument("--f2", type=float, required=True, help="fixed neutral amplitude")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser(
        "demo", help="vacuum descent demonstration; writes all three CSV files"
    )
    add_common(p_demo, with_state=False)
    p_demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GeometryError, GridError, LayoutError, LeakageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
