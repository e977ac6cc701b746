import math
import pathlib
import re

import numpy as np
import pytest

from fockbox.coeffs import coefficients, descent_threshold, reference_state, vacuum_closed_forms
from fockbox.displace import DisplacementParams, InterchangeChecker, ResidualCheck, require_admissible
from fockbox.errors import ConfigError
from fockbox.fockspace import LadderId, max_admissible_amplitude
from fockbox.model import ModelConfig, build_layout, default_config, parse_config
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
    cs = coefficients(config, reference_state(config, "vacuum", layout), layout)
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
    cs = coefficients(config, reference_state(config, "vacuum", layout), layout)
    f2 = -(descent_threshold(cs) + 1.0)
    spec = SweepSpec(f1_values=tuple(parse_f1_range("0:10:1")), f2=f2)
    result = run_sweep(config, spec, layout, cs=cs)
    assert result.c2 < 0.0
    assert result.descent_certified
    assert all(r.energy_direct is None for r in result.rows)  # f2 leaks at cutoff 16
    energies = [r.energy_polynomial for r in result.rows]
    assert energies[-1] < energies[0]
    # no linear term on the vacuum: strictly decreasing from the vertex at 0
    assert all(b < a for a, b in zip(energies, energies[1:]))


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


def test_cli_demo_requires_descent_geometry(tmp_path, capsys):
    no_cubic = write_config(
        tmp_path, FREE_CONFIG_TEXT.replace("lambda1 = 0.0", "lambda1 = 0.0").replace("lambda2 = 0.0", "lambda2 = 1.0")
    )
    assert main(["demo", "--config", no_cubic, "--out", str(tmp_path / "o1")]) == 2
    assert "cubic coupling" in capsys.readouterr().err
    off_resonance = write_config(
        tmp_path,
        FREE_CONFIG_TEXT.replace("lambda1 = 0.0", "lambda1 = 1.0")
        .replace("neutral_modes = 2", "neutral_modes = 3")
        .replace("k_index = 2", "k_index = 3"),
    )
    assert main(["demo", "--config", off_resonance, "--out", str(tmp_path / "o2")]) == 2
    assert "k = 2q" in capsys.readouterr().err


def test_cli_sweep_writes_rows(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["sweep", "--f1", "0:1:0.5", "--f2", "-0.5", "--out", out])
    assert code == 0
    captured = capsys.readouterr()
    assert "rows: 3  with direct comparison: 3" in captured.out
    lines = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert lines[0] == "f1,f2,E_polynomial,E_direct,residual"


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
    ],
    ids=["verify-state", "coeffs-state", "sweep-state", "sweep-f1"],
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


def test_cli_coeffs_prints_closed_forms(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["coeffs", "--out", out]) == 0
    captured = capsys.readouterr()
    assert "A5 = 0.13339439113182167" in captured.out
    assert "(closed form" in captured.out
    assert (tmp_path / "out" / "coefficients.csv").exists()
