"""End-to-end acceptance gate.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single visible PASS/FAIL line, so a plain pytest run
doubles as the acceptance report.  The displacement-identity guarantees run
on the default model at cutoff 24 (residuals windowed at occupation 12) over
the full amplitude grid {0, +-0.25, +-0.5, +-1}^2.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fockbox import ladderalg
from fockbox.coeffs import (
    CENTRAL_STATES,
    central_identity_checks,
    coefficients,
    descent_threshold,
    reference_state,
    vacuum_closed_forms,
)
from fockbox.displace import (
    DisplacementParams,
    InterchangeChecker,
    check_field_shift,
    check_free_hamiltonian_shift,
    check_ladder_shifts,
)
from fockbox.model import (
    ModelConfig,
    build_layout,
    default_config,
    interaction_density_polynomial,
    interaction_quadrature,
)
from fockbox.probe import SweepSpec, main, parse_f1_range, run_sweep

GRID = (0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0)


def report(capsys, line):
    with capsys.disabled():
        print(line)


def worst(checks):
    return max(c.residual for c in checks)


@pytest.fixture(scope="module")
def grid24():
    """All displacement-identity checks at cutoff 24 over the full grid,
    timed per check family."""
    config = default_config().with_cutoff(24)
    layout = build_layout(config)
    checker = InterchangeChecker(config, layout)
    results = {"ladder": [], "free": [], "field": [], "interchange": []}
    timings = dict.fromkeys(results, 0.0)

    def timed(family, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        timings[family] += time.perf_counter() - start
        results[family].extend(out)

    for f1, f2 in itertools.product(GRID, GRID):
        params = DisplacementParams(f1, f2)
        timed("ladder", check_ladder_shifts, config, params, layout)
        timed("free", check_free_hamiltonian_shift, config, params, layout)
        timed("field", check_field_shift, config, params, layout)
        timed("interchange", checker.run, params)
    return results, timings


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Two demo executions with identical inputs, plus the first one's time."""
    outs = [str(tmp_path_factory.mktemp(f"demo{i}")) for i in (1, 2)]
    start = time.perf_counter()
    first = main(["demo", "--out", outs[0]])
    elapsed = time.perf_counter() - start
    second = main(["demo", "--out", outs[1]])
    return outs, (first, second), elapsed


def test_acceptance_1_ladder_shift_identities(grid24, capsys):
    results, timings = grid24
    checks, seconds = results["ladder"], timings["ladder"]
    assert len(checks) == 49 * 6
    bad = [c for c in checks if c.residual > 1e-8]
    assert not bad, bad[:3]
    assert seconds < 30.0
    report(
        capsys,
        f"acceptance[1] ladder-shift identities: PASS"
        f" (49-point grid, worst residual {worst(checks):.2e} <= 1e-8, {seconds:.2f} s)",
    )


def test_acceptance_2_free_hamiltonian_shifts(grid24, capsys):
    results, timings = grid24
    checks = results["free"]
    projected = [c for c in checks if c.name.startswith("free_shift[")]
    vacuum_rows = [c for c in checks if c.name.startswith("free_shift_vacuum[")]
    assert len(projected) == 49 * 2 and len(vacuum_rows) == 49 * 2
    assert all(c.residual <= 1e-8 for c in projected)
    assert all(c.residual <= 1e-8 for c in vacuum_rows)
    report(
        capsys,
        f"acceptance[2] free-Hamiltonian shifts: PASS"
        f" (worst projected {worst(projected):.2e}, worst vacuum expectation"
        f" {worst(vacuum_rows):.2e} <= 1e-8, {timings['free']:.2f} s)",
    )


def test_acceptance_3_field_shift_and_interchange(grid24, capsys):
    results, timings = grid24
    field, inter = results["field"], results["interchange"]
    assert len(field) == 49 * 3 * 8
    assert len(inter) == 49 * 2 * 8
    assert all(c.residual <= 1e-7 for c in field)
    assert all(c.residual <= 1e-7 for c in inter)
    seconds = timings["field"] + timings["interchange"]
    report(
        capsys,
        f"acceptance[3] field-shift and interchange checks: PASS"
        f" (8 x samples, worst field {worst(field):.2e}, worst interchange"
        f" {worst(inter):.2e} <= 1e-7, {seconds:.2f} s)",
    )


def test_acceptance_4_central_identity(capsys):
    config = default_config()
    layout = build_layout(config)
    checks = central_identity_checks(config, layout, CENTRAL_STATES)
    rows = [c for c in checks if c.name.startswith("central_identity[")]
    states = {c.name for c in rows}
    assert len(states) == 4
    assert len(rows) == 4 * 25
    assert all(c.residual <= 1e-6 for c in rows)
    (adjudication,) = [c for c in checks if c.name.startswith("quartic_coefficient[")]
    assert adjudication.passed
    assert adjudication.name == "quartic_coefficient[unit]"
    report(
        capsys,
        f"acceptance[4] central energy identity: PASS"
        f" (4 states x 25 grid points, worst relative residual {worst(rows):.2e}"
        f" <= 1e-6; matching quartic weight: unit, not the four-fold literal)",
    )


def test_acceptance_5_vacuum_closed_forms(capsys):
    config = default_config()
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout))
    vanishing = {
        "A1": cs.A1,
        "A2": cs.A2,
        "A3": cs.A3,
        "B2": cs.B2,
        "B2_ordered": cs.B2_ordered,
        "B3": cs.B3,
    }
    for name, value in vanishing.items():
        assert abs(value) <= 1e-10, (name, value)
    assert abs(cs.A4 - 2.0 * config.energy_q) <= 1e-12
    a5_closed = 1.0 / (config.energy_q * math.sqrt(2.0 * config.omega_k * config.box_length))
    assert abs(cs.A5 - a5_closed) <= 1e-12
    assert cs.A5 > 0.0
    closed = vacuum_closed_forms(config)
    assert cs.A5 == pytest.approx(closed["A5"], abs=1e-12)
    worst_vanishing = max(abs(v) for v in vanishing.values())
    report(
        capsys,
        f"acceptance[5] vacuum closed forms: PASS"
        f" (vanishing coefficients <= {worst_vanishing:.2e}, |A4 - 2E_q| ="
        f" {abs(cs.A4 - 2.0 * config.energy_q):.2e}, |A5 - closed| ="
        f" {abs(cs.A5 - a5_closed):.2e}, A5 = {cs.A5:.6f} > 0)",
    )


def test_acceptance_6_descent_verdict(demo_runs, capsys):
    outs, codes, elapsed = demo_runs
    assert codes[0] == 0 and codes[1] == 0
    assert elapsed < 60.0

    config = default_config()
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout))
    f2 = -2.0 * descent_threshold(cs)
    spec = SweepSpec(tuple(parse_f1_range("0:10:0.5")), f2)
    result = run_sweep(config, spec, layout)
    expected = cs.A4 - abs(f2) * cs.A5
    assert result.c2 < 0.0
    assert abs(result.c2 - expected) <= 1e-6 * (1.0 + abs(result.c2))
    assert result.descent_certified
    e0 = result.rows[0].energy_polynomial
    e10 = result.rows[-1].energy_polynomial
    assert result.rows[-1].f1 == 10.0
    assert e10 < e0
    report(
        capsys,
        f"acceptance[6] unboundedness verdict: PASS"
        f" (fitted c2 = {result.c2:.6f} matches A4 - |f2| A5 to"
        f" {abs(result.c2 - expected) / (1.0 + abs(result.c2)):.2e};"
        f" E(10) - E(0) = {e10 - e0:.1f} < 0; demo exit 0 in {elapsed:.1f} s)",
    )


def test_acceptance_7_symbolic_vs_quadrature(capsys):
    worst_residual = 0.0
    for config in (
        default_config(),
        ModelConfig(
            neutral_modes=(1, 2),
            charged_modes=(1, 2),
            q_index=1,
            k_index=2,
            cutoff_default=3,
        ),
    ):
        symbolic = ladderalg.integrate_box(interaction_density_polynomial(config), config.box_length)
        residual = ladderalg.coefficient_gap(symbolic, interaction_quadrature(config))
        assert residual <= 1e-9, config
        worst_residual = max(worst_residual, residual)
    report(
        capsys,
        f"acceptance[7] symbolic vs quadrature assembly: PASS"
        f" (default and two-mode-per-field configs, worst coefficient gap"
        f" {worst_residual:.2e} <= 1e-9)",
    )


def test_acceptance_8_demo_determinism(demo_runs, capsys):
    import pathlib

    outs, codes, _ = demo_runs
    assert codes == (0, 0)
    for name in ("report.csv", "coefficients.csv", "sweep.csv"):
        a = pathlib.Path(outs[0], name).read_bytes()
        b = pathlib.Path(outs[1], name).read_bytes()
        assert a == b, name
        assert len(a) > 0
    # coefficients.csv and sweep.csv come from the level-only contraction and
    # Python arithmetic, with no BLAS product, so their bytes are pinned
    # across commits; report.csv goes through LAPACK and matmul and is not.
    for name in ("coefficients.csv", "sweep.csv"):
        golden = pathlib.Path(__file__).parent / "golden" / name
        assert pathlib.Path(outs[0], name).read_bytes() == golden.read_bytes(), name
    report(
        capsys,
        "acceptance[8] determinism: PASS"
        " (two demo runs, byte-identical report.csv, coefficients.csv, sweep.csv;"
        " coefficients.csv and sweep.csv match tests/golden)",
    )
