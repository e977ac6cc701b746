import csv
import math
import pathlib
import re

import numpy as np
import pytest

from conftest import clear_package_caches
from fockbox import coeffs
from fockbox.coeffs import coefficients, descent_threshold, reference_state, vacuum_closed_forms
from fockbox.displace import DisplacementParams, InterchangeChecker, ResidualCheck, require_admissible
from fockbox.errors import ConfigError
from fockbox.fockspace import LadderId, max_admissible_amplitude
from fockbox.ladderalg import LadderMonomial, LadderPolynomial, LadderSymbol
from fockbox.model import ModelConfig, build_layout, default_config, parse_config
from fockbox import probe
from fockbox.probe import (
    VERIFY_GRID,
    SweepSpec,
    direct_check_limit,
    format_float,
    main,
    parse_f1_range,
    run_sweep,
    run_verification,
    write_coefficients_csv,
    write_report_csv,
    write_sweep_csv,
)

FREE_CONFIG_TEXT = """
box_length = 6.283185307179586
mass_neutral = 1.0
mass_charged = 1.0
lambda1 = 0.0
lambda2 = 0.0
neutral_modes = 2
charged_modes = 1
q_index = 1
k_index = 2
cutoff_default = 16
"""


def write_config(tmp_path, text):
    path = tmp_path / "model.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_format_float_shortest_roundtrip():
    assert format_float(0.1) == "0.1"
    assert format_float(1.0 / 3.0) == "0.3333333333333333"
    assert format_float(-2.0) == "-2.0"
    assert float(format_float(math.pi)) == math.pi


def test_parse_f1_range():
    values = parse_f1_range("0:10:0.5")
    assert len(values) == 21
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(10.0, abs=1e-12)
    assert parse_f1_range("0:1:0.3") == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert parse_f1_range("2:2:1") == [2.0]


@pytest.mark.parametrize(
    "text",
    ["0:10", "a:b:c", "0:10:0", "0:10:-1", "5:4:1", "nan:1:0.5", "0:1:nan", "0:inf:1", "0:10000:1"],
)
def test_parse_f1_range_rejects(text):
    with pytest.raises(ConfigError):
        parse_f1_range(text)


def test_write_report_csv_bytes(tmp_path):
    checks = [
        ResidualCheck("alpha", 0.5, -1.0, 1e-10, 1e-8),
        ResidualCheck("beta", None, None, 2e-7, 1e-7),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(str(path), checks)
    assert path.read_bytes() == (
        b"identity_name,f1,f2,residual,tolerance,pass\n"
        b"alpha,0.5,-1.0,1e-10,1e-08,true\n"
        b"beta,,,2e-07,1e-07,false\n"
    )


def test_write_sweep_csv_bytes(tmp_path):
    from fockbox.probe import SweepResult, SweepRow

    result = SweepResult(
        rows=(SweepRow(0.0, -1.0, 1.5, 1.5, 0.0), SweepRow(0.5, -1.0, 2.0, None, None)),
        c2=-1.0,
        expected_c2=-1.0,
        fit_residual=0.0,
        descent_certified=True,
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), result)
    assert path.read_bytes() == (
        b"f1,f2,E_polynomial,E_direct,residual\n"
        b"0.0,-1.0,1.5,1.5,0.0\n"
        b"0.5,-1.0,2.0,,\n"
    )


def test_write_coefficients_csv_has_closed_form_columns(tmp_path):
    config = default_config()
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout))
    path = tmp_path / "coefficients.csv"
    write_coefficients_csv(str(path), cs, vacuum_closed_forms(config))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "name,value,closed_form_value,abs_difference"
    a4 = next(line for line in lines if line.startswith("A4,"))
    fields = a4.split(",")
    assert float(fields[1]) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert float(fields[3]) <= 1e-12
    # without closed forms the extra columns stay empty
    write_coefficients_csv(str(path), cs, None)
    assert all(line.endswith(",,") for line in path.read_text(encoding="utf-8").splitlines()[1:])


def test_direct_check_limit_is_leakage_boundary():
    config = default_config()
    layout = build_layout(config)
    assert direct_check_limit(config, layout) == max_admissible_amplitude(16)
    mixed = ModelConfig(cutoff_overrides={LadderId("a", 2): 24})
    layout2 = build_layout(mixed)
    assert direct_check_limit(mixed, layout2) == max_admissible_amplitude(16)


def test_run_sweep_gates_direct_rows():
    config = default_config()
    layout = build_layout(config)
    spec = SweepSpec(f1_values=(0.0, 0.5, 5.0), f2=0.25)
    result = run_sweep(config, spec, layout)
    assert result.rows[0].energy_direct is not None
    assert result.rows[1].energy_direct is not None
    assert result.rows[2].energy_direct is None
    assert result.rows[1].residual <= 1e-6
    assert result.expected_c2 == pytest.approx(result.c2, rel=1e-9)
    assert result.fit_residual <= 1e-9
    assert not result.descent_certified  # c2 > 0 on this side of the threshold


def test_run_sweep_certifies_descent_past_threshold():
    config = default_config()
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout))
    f2 = -(descent_threshold(cs) + 1.0)
    spec = SweepSpec(f1_values=tuple(parse_f1_range("0:10:1")), f2=f2)
    result = run_sweep(config, spec, layout)
    assert result.c2 < 0.0
    assert result.descent_certified
    assert all(r.energy_direct is None for r in result.rows)  # f2 leaks at cutoff 16
    energies = [r.energy_polynomial for r in result.rows]
    assert energies[-1] < energies[0]
    # no linear term on the vacuum: strictly decreasing from the vertex at 0
    assert all(b < a for a, b in zip(energies, energies[1:]))


def sweep_bytes(result):
    """Every float of a sweep result, bit for bit."""
    rows = [[r.f1, r.f2, r.energy_polynomial, r.energy_direct, r.residual] for r in result.rows]
    rows.append([result.c2, result.expected_c2, result.fit_residual, 0.0, 0.0])
    return np.array(rows, dtype=float).tobytes()


def spy(monkeypatch, name):
    """Record the arguments of every call of coeffs.<name>: the memo calls
    reference_state and coefficients through the module."""
    calls = []
    original = getattr(coeffs, name)
    monkeypatch.setattr(coeffs, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_run_sweep_contracts_a_selector_once(monkeypatch):
    config = default_config()
    layout = build_layout(config)
    limit = direct_check_limit(config, layout)
    specs = [SweepSpec((-limit, -0.3, 0.1, limit), f2, "seeded:11") for f2 in (0.5 * limit, -limit)]
    cold = []
    for spec in specs:
        clear_package_caches()
        cold.append(sweep_bytes(run_sweep(config, spec, layout)))
    clear_package_caches()
    contracted = spy(monkeypatch, "coefficients")
    try:
        warm = [sweep_bytes(run_sweep(config, spec, layout)) for spec in specs]
    finally:
        clear_package_caches()
    assert len(contracted) == 1
    assert warm == cold


def test_demo_contracts_the_vacuum_once(tmp_path, monkeypatch):
    clear_package_caches()
    built = spy(monkeypatch, "reference_state")
    contracted = spy(monkeypatch, "coefficients")
    try:
        assert main(["demo", "--out", str(tmp_path / "out")]) == 0
    finally:
        clear_package_caches()
    # cmd_demo, run_sweep and the central identity share one vacuum
    assert sorted(args[1] for args in built) == ["one_a", "one_b", "seeded:7", "vacuum"]
    assert len(contracted) == 4


def test_run_verification_covers_reference_state_set():
    config = ModelConfig(lambda1=0.0, lambda2=0.0)
    layout = build_layout(config)
    checks = run_verification(config, layout)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    for selector in ("vacuum", "one_a", "one_b", "seeded:7"):
        rows = [c for c in checks if c.name == f"central_identity[{selector}]"]
        assert len(rows) == 25, selector
    assert "hamiltonian_quadrature" in names
    assert "hamiltonian_hermiticity" in names
    assert "charge_commutator" in names
    extra = run_verification(config, layout, extra_state="seeded:11")
    assert len([c for c in extra if c.name == "central_identity[seeded:11]"]) == 25
    assert len(extra) == len(checks) + 25


def test_quadrature_row_is_relative_to_the_largest_coefficient():
    # with lambda1 = lambda2 = 1e8 the interaction's coefficients reach
    # 6.7e6, and the quadrature's absolute gap, 3.2e-9, is their rounding
    config = ModelConfig(lambda1=1e8, lambda2=1e8)
    checks = run_verification(config)
    row = next(c for c in checks if c.name == "hamiltonian_quadrature")
    assert row.tolerance == probe.QUADRATURE_TOL
    assert row.residual < 1e-15
    assert all(c.passed for c in checks)
    # below a largest coefficient of 1 the gap stays absolute
    plain = default_config()
    rows = [c for c in run_verification(plain) if c.name == "hamiltonian_quadrature"]
    symbolic = probe.ladderalg.integrate_box(probe.interaction_density_polynomial(plain), plain.box_length)
    assert rows[0].residual == probe.ladderalg.coefficient_gap(symbolic, probe.interaction_quadrature(plain))


def test_a_spelling_of_a_central_state_adds_no_rows(monkeypatch):
    config = default_config()
    layout = build_layout(config)
    plain = run_verification(config, layout)
    assert run_verification(config, layout, extra_state="seeded") == plain
    assert run_verification(config, layout, extra_state="seeded:007") == plain
    # the central points are checked for admissibility once, not per state
    calls = []
    monkeypatch.setattr(coeffs, "require_admissible", lambda *args: calls.append(args))
    extra = run_verification(config, layout, extra_state="seeded:8")
    assert len(calls) == 25
    # every row before the four summary rows is kept, and seeded:8's follow them
    assert extra[: len(plain) - 4] == plain[:-4]
    assert len([c for c in extra if c.name == "central_identity[seeded:8]"]) == 25
    assert len(extra) == len(plain) + 25


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    free = write_config(tmp_path, FREE_CONFIG_TEXT)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", free, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "failed: 0" in captured.out
    assert "quartic_coefficient[both]" in captured.out
    assert (tmp_path / "out" / "report.csv").exists()


def test_cli_rejects_unusable_configs(tmp_path, capsys):
    tight = write_config(tmp_path, FREE_CONFIG_TEXT.replace("cutoff_default = 16", "cutoff_default = 4"))
    assert main(["verify", "--config", tight, "--out", str(tmp_path / "o1")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o2")]) == 2
    capsys.readouterr()
    assert main(["coeffs", "--config", tight, "--state", "bogus", "--out", str(tmp_path / "o3")]) == 2
    assert "state selector" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(FREE_CONFIG_TEXT.replace("lambda1", "# \xe9\nlambda1", 1).encode("latin-1"))
    assert main(["coeffs", "--config", str(latin1), "--out", str(tmp_path / "o4")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1
    # main creates --out before it reads the config, and removes it again
    for name in ("o1", "o2", "o3", "o4"):
        assert not (tmp_path / name).exists()


def test_cli_rejects_a_cutoff_past_the_bound(tmp_path, capsys):
    # one ladder at 1,001 levels past the bound; the joint size (2.9e5) is small
    text = FREE_CONFIG_TEXT + "cutoff_overrides = a2=1001\n"
    out = tmp_path / "out"
    assert main(["coeffs", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cutoffs must be <= 1000"]
    assert not out.exists()


def test_structural_rows_catch_a_non_hermitian_charged_monomial(monkeypatch):
    # b+ b+ a with a real coefficient: its adjoint a+ b b is missing, and it
    # adds two units of charge
    config = ModelConfig(lambda1=0.0, lambda2=0.0)
    b, a = LadderId("b", 1), LadderId("a", 2)
    stray = LadderMonomial(0.25, (LadderSymbol(b, True), LadderSymbol(b, True), LadderSymbol(a, False)))
    honest = probe.hamiltonian_polynomial
    monkeypatch.setattr(probe, "hamiltonian_polynomial", lambda c: LadderPolynomial(honest(c).terms + (stray,)))
    monkeypatch.setattr(probe, "central_identity_checks", lambda *args, **kwargs: [])
    monkeypatch.setattr(probe, "VERIFY_GRID", (0.0,))
    rows = {c.name: c for c in run_verification(config)}
    assert rows["hamiltonian_hermiticity"].residual == 0.25
    assert rows["charge_commutator"].residual == 0.5
    assert not rows["hamiltonian_hermiticity"].passed and not rows["charge_commutator"].passed


def test_cli_demo_requires_descent_geometry(tmp_path, capsys):
    no_cubic = write_config(
        tmp_path, FREE_CONFIG_TEXT.replace("lambda1 = 0.0", "lambda1 = 0.0").replace("lambda2 = 0.0", "lambda2 = 1.0")
    )
    assert main(["demo", "--config", no_cubic, "--out", str(tmp_path / "o1")]) == 2
    assert "cubic coupling" in capsys.readouterr().err
    assert not (tmp_path / "o1").exists()
    off_resonance = write_config(
        tmp_path,
        FREE_CONFIG_TEXT.replace("lambda1 = 0.0", "lambda1 = 1.0")
        .replace("neutral_modes = 2", "neutral_modes = 3")
        .replace("k_index = 2", "k_index = 3"),
    )
    assert main(["demo", "--config", off_resonance, "--out", str(tmp_path / "o2")]) == 2
    assert "k = 2q" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


def test_cli_sweep_writes_rows(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["sweep", "--f1", "0:1:0.5", "--f2", "-0.5", "--out", out])
    assert code == 0
    captured = capsys.readouterr()
    assert "rows: 3  with direct comparison: 3" in captured.out
    lines = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert lines[0] == "f1,f2,E_polynomial,E_direct,residual"


def test_cli_sweep_takes_a_negative_f1_start_in_the_equals_form(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--f1=-1:1:0.5", "--f2", "-0.25", "--out", str(out)]) == 0
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["f1"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(r["E_direct"] for r in rows)
    assert "rows: 5  with direct comparison: 5" in capsys.readouterr().out
    # with a space, argparse reads the leading '-' as the start of an option
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--f1", "-1:1:0.5", "--f2", "-0.25", "--out", str(out)])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def _grid_must_not_run(self, params):
    raise AssertionError("the verification grid ran")


def test_cli_verify_rejects_bad_state_before_the_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(InterchangeChecker, "run", _grid_must_not_run)
    assert main(["verify", "--state", "bogus", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "state selector" in err


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["coeffs"], ["sweep", "--f1", "0:1:0.5", "--f2", "0.25"], ["demo"]],
    ids=["verify", "coeffs", "sweep", "demo"],
)
@pytest.mark.parametrize("below_file", [False, True], ids=["file", "below_file"])
def test_cli_rejects_unusable_out(tmp_path, capsys, monkeypatch, argv, below_file):
    monkeypatch.setattr(InterchangeChecker, "run", _grid_must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "out" if below_file else taken
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--out" in err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--state", "bogus"],
        ["coeffs", "--state", "bogus"],
        ["sweep", "--f1", "0:1:0.5", "--f2", "0.25", "--state", "bogus"],
        ["sweep", "--f1", "0:1", "--f2", "0.25"],
        ["verify", "--state", "seeded:-1"],
        ["coeffs", "--state", "seeded:-1"],
        ["sweep", "--f1", "0:1:0.5", "--f2", "0.25", "--state", "seeded:-1"],
    ],
    ids=["verify-state", "coeffs-state", "sweep-state", "sweep-f1", "verify-seed", "coeffs-seed", "sweep-seed"],
)
def test_cli_bad_argument_leaves_no_out_directory(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(InterchangeChecker, "run", _grid_must_not_run)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("box_length", ["1e7", "1.7976931348623157e308"])
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["coeffs"], ["sweep", "--f1", "0:1:0.5", "--f2", "0.25"], ["demo"]],
    ids=["verify", "coeffs", "sweep", "demo"],
)
def test_cli_rejects_a_box_too_large_for_its_fields(tmp_path, capsys, monkeypatch, argv, box_length):
    monkeypatch.setattr(InterchangeChecker, "run", _grid_must_not_run)
    text = FREE_CONFIG_TEXT.replace("6.283185307179586", box_length).replace("lambda1 = 0.0", "lambda1 = 1.0")
    config = write_config(tmp_path, text)
    assert main(argv + ["--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["coeffs"], ["sweep", "--f1", "0:1:0.5", "--f2", "0.25"], ["demo"]],
    ids=["verify", "coeffs", "sweep", "demo"],
)
def test_cli_rejects_a_field_normalization_that_underflows(tmp_path, capsys, argv):
    text = (
        FREE_CONFIG_TEXT.replace("6.283185307179586", "1e-200")
        .replace("mass_neutral = 1.0", "mass_neutral = 1e-200")
        .replace("neutral_modes = 2", "neutral_modes = 0")
        .replace("k_index = 2", "k_index = 0")
    )
    out = tmp_path / "out"
    assert main(argv + ["--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "underflows" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, out_parts, existing",
    [
        (["coeffs", "--config", "box-1e7"], ("out",), False),
        (["sweep", "--f1", "0:2:1", "--f2", "1e200"], ("new", "out"), False),
        (["coeffs", "--config", "box-1e7"], ("out",), True),
    ],
    ids=["coeffs-box", "sweep-overflow-nested", "coeffs-box-existing-out"],
)
def test_cli_failed_computation_leaves_no_out_it_created(tmp_path, capsys, argv, out_parts, existing):
    text = FREE_CONFIG_TEXT.replace("6.283185307179586", "1e7").replace("lambda1 = 0.0", "lambda1 = 1.0")
    argv = [write_config(tmp_path, text) if a == "box-1e7" else a for a in argv]
    out = tmp_path.joinpath(*out_parts)
    if existing:
        out.mkdir()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert out.is_dir() == existing
    assert (tmp_path / out_parts[0]).exists() == existing


def test_cli_reports_a_csv_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "coefficients.csv").mkdir(parents=True)
    assert main(["coeffs", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize(
    "f1, f2",
    [
        ("0:1:0.5", "nan"),
        ("0:1:0.5", "inf"),
        ("nan:1:0.5", "0.25"),
        ("0:1:nan", "0.25"),
        ("0:inf:1", "0.25"),
        ("0:0:1", "0.25"),
        ("0:0.5:0.5", "0.25"),
        ("0:2:1", "1e200"),
        ("0:2:1", "1e100"),
        ("0:1e200:1e199", "0.25"),
        ("0:1e153:1e152", "0.25"),
        # subnormal f1 steps: the fit's column scaling divides by zero
        ("0:1e-320:1e-321", "0.5"),
    ],
)
def test_cli_sweep_rejects_unusable_amplitudes(tmp_path, capsys, f1, f2):
    out = tmp_path / "out"
    assert main(["sweep", "--f1", f1, "--f2", f2, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (out / "sweep.csv").exists()


def test_readme_config_example_is_admissible():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    config = parse_config(block)
    extreme = max(abs(f) for f in VERIFY_GRID)
    require_admissible(config, DisplacementParams(extreme, extreme), build_layout(config))


def test_cli_coeffs_writes_finite_closed_forms_near_the_float64_limit(tmp_path, capsys):
    # 6 lambda2 overflows at lambda2 = 1e308, but the closed forms of B1 and
    # B4, 9.5e306 and 1.9e307, fit float64
    text = FREE_CONFIG_TEXT.replace("lambda1 = 0.0", "lambda1 = 1.0").replace("lambda2 = 0.0", "lambda2 = 1e308")
    out = tmp_path / "out"
    assert main(["coeffs", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    with open(out / "coefficients.csv", encoding="utf-8", newline="") as fh:
        rows = {row["name"]: row for row in csv.DictReader(fh)}
    assert all(math.isfinite(float(v)) for row in rows.values() for k, v in row.items() if k != "name")
    for name, closed in (("B1", 9.549296585513720e306), ("B4", 1.9098593171027437e307)):
        assert float(rows[name]["closed_form_value"]) == pytest.approx(closed, rel=1e-15)
        assert float(rows[name]["abs_difference"]) <= 1e-15 * closed
    assert "inf" not in capsys.readouterr().out


def test_cli_coeffs_prints_closed_forms(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["coeffs", "--out", out]) == 0
    captured = capsys.readouterr()
    assert "A5 = 0.1333943911318217  (closed form 0.13339439113182167)" in captured.out
    assert (tmp_path / "out" / "coefficients.csv").exists()
