import ast
import csv
import importlib.util
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lora_reliability
from lora_reliability import montecarlo
from lora_reliability.cli import DESK_REALIZATIONS, build_parser, main
from lora_reliability.params import parse_config_text

DISTANCE_HEADER = "d_km,p_snr,p_max_co,p_co,p_sf,p_snr_sf,se_snr,se_max_co,se_co,se_sf,se_snr_sf"
DENSITY_HEADER = "n_bar,p_snr,p_max_co,p_co,p_sf,p_snr_sf,se_snr,se_max_co,se_co,se_sf,se_snr_sf"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _rows(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def test_closed_form_gamma(capsys):
    code, out, _ = run_cli(["closed-form", "--gamma-bar", "2"], capsys)
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["outage"]) == pytest.approx(0.146447, abs=1e-6)
    assert float(fields["success"]) == pytest.approx(0.853553, abs=1e-6)


def test_closed_form_distance(capsys):
    code, out, _ = run_cli(["closed-form", "--distance", "1", "--sf", "7"], capsys)
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["p_snr"]) == pytest.approx(0.987156, abs=1e-6)


def test_closed_form_requires_exactly_one_form(capsys):
    code, _, _ = run_cli(["closed-form"], capsys)
    assert code != 0
    code, _, _ = run_cli(
        ["closed-form", "--gamma-bar", "2", "--distance", "1", "--sf", "7"], capsys
    )
    assert code != 0
    code, _, _ = run_cli(["closed-form", "--distance", "1"], capsys)
    assert code != 0


def test_closed_form_rejects_negative_gamma(capsys):
    code, _, _ = run_cli(["closed-form", "--gamma-bar", "-1"], capsys)
    assert code != 0


def test_closed_form_gamma_rejects_config(tmp_path, capsys):
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text("seed = 1\n", encoding="utf-8")
    code, out, err = run_cli(
        ["closed-form", "--gamma-bar", "2", "--config", str(cfg_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert "--config" in err


def test_closed_form_ignores_seed_env(monkeypatch, capsys):
    args = ["closed-form", "--distance", "6", "--sf", "9"]
    monkeypatch.delenv("LORA_REL_SEED", raising=False)
    _, unset, _ = run_cli(args, capsys)
    monkeypatch.setenv("LORA_REL_SEED", "not-a-seed")
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == unset


def test_sweep_distance_csv_shape(capsys):
    code, out, _ = run_cli(
        ["sweep-distance", "--seed", "1", "--realizations", "200"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == DISTANCE_HEADER
    assert len(lines) == 1 + 120
    for row in _rows(out):
        for col in ("p_snr", "p_max_co", "p_co", "p_sf", "p_snr_sf"):
            assert 0.0 <= float(row[col]) <= 1.0
        for col in ("se_snr", "se_max_co", "se_co", "se_sf", "se_snr_sf"):
            assert float(row[col]) >= 0.0


def test_sweep_distance_no_interferers(capsys):
    code, out, _ = run_cli(
        ["sweep-distance", "--mean-devices", "0", "--realizations", "100"], capsys
    )
    assert code == 0
    for row in _rows(out):
        assert float(row["p_max_co"]) == 1.0
        assert float(row["p_co"]) == 1.0
        assert float(row["p_sf"]) == 1.0


def test_sweep_distance_deterministic_reruns(capsys):
    args = ["sweep-distance", "--seed", "42", "--realizations", "300"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


@pytest.mark.parametrize("command", ["sweep-distance"])
def test_sweep_thread_count_does_not_change_bytes(command, capsys):
    base = [command, "--seed", "42", "--realizations", "300"]
    _, single, _ = run_cli(base + ["--threads", "1"], capsys)
    _, pooled, _ = run_cli(base + ["--threads", "8"], capsys)
    assert single == pooled


def test_sweep_distance_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    args = ["sweep-distance", "--seed", "3", "--realizations", "100"]
    _, stdout_text, _ = run_cli(args, capsys)
    code, _, _ = run_cli(args + ["--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes().decode() == stdout_text
    assert b"\r" not in out_path.read_bytes()


@pytest.mark.parametrize("setting", ["min_distance_km = 0.5", "cell_radius_km = 0.08"])
def test_sweep_distance_grid_fits_the_cell(setting, tmp_path, capsys):
    cfg_path = tmp_path / "cell.cfg"
    cfg_path.write_text(setting + "\n", encoding="utf-8")
    args = ["sweep-distance", "--config", str(cfg_path), "--realizations", "20"]
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    cfg = lora_reliability.NetworkConfig(**parse_config_text(setting))
    d_km = [float(row["d_km"]) for row in _rows(out)]
    assert len(d_km) == 120
    assert all(a < b for a, b in zip(d_km, d_km[1:]))
    assert cfg.min_distance_km <= d_km[0] and d_km[-1] == cfg.cell_radius_km


def test_sweep_distance_grid_near_the_cell_edge_keeps_distinct_distances(tmp_path, capsys):
    """A grid start a few ulps below the edge rounds the 120 distances to 7
    distinct ones; the sweep runs on those 7, in order."""
    cfg_path = tmp_path / "edge.cfg"
    cfg_path.write_text("min_distance_km = 11.99999999999999\n", encoding="utf-8")
    args = ["sweep-distance", "--config", str(cfg_path), "--realizations", "20"]
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    d_km = [float(row["d_km"]) for row in _rows(out)]
    assert len(d_km) == 7
    assert all(a < b for a, b in zip(d_km, d_km[1:]))
    assert d_km[0] == 11.99999999999999 and d_km[-1] == 12.0


def test_sweep_density_csv(capsys):
    code, out, _ = run_cli(
        ["sweep-density", "--seed", "5", "--realizations", "200"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == DENSITY_HEADER
    rows = _rows(out)
    assert len(rows) == 30
    assert float(rows[-1]["n_bar"]) == 3000.0
    snr_column = {row["p_snr"] for row in rows}
    assert len(snr_column) == 1  # exactly constant, including the printed digits


def test_sweep_density_n_bar_max(capsys):
    code, out, _ = run_cli(
        ["sweep-density", "--seed", "5", "--realizations", "50", "--n-bar-max", "500"],
        capsys,
    )
    assert code == 0
    rows = _rows(out)
    assert float(rows[-1]["n_bar"]) == 500.0


def test_sweep_density_nonincreasing_columns(capsys):
    _, out, _ = run_cli(
        ["sweep-density", "--seed", "9", "--realizations", "2000"], capsys
    )
    rows = _rows(out)
    for col in ("p_max_co", "p_co", "p_sf"):
        values = [float(r[col]) for r in rows]
        errs = [float(r["se_" + col[2:]]) for r in rows]
        for (v1, e1), (v2, e2) in zip(zip(values, errs), zip(values[1:], errs[1:])):
            assert v2 <= v1 + 3.0 * (e1 + e2)


def test_config_file_is_honored(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text("mean_devices = 0\nseed = 2\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["sweep-distance", "--config", str(cfg_path), "--realizations", "50"], capsys
    )
    assert code == 0
    assert all(float(row["p_co"]) == 1.0 for row in _rows(out))


def test_config_file_realizations_key_is_rejected(tmp_path, capsys):
    """The run size belongs to the run, not to the deployment: it is set by
    --realizations alone, and the config file has no such key."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("realizations = 64\nmean_devices = 0\n", encoding="utf-8")
    code, out, err = run_cli(["sweep-distance", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert out == ""
    assert "unknown config key 'realizations'" in err


def test_config_seed_beyond_float_precision_matches_flag(tmp_path, capsys):
    # 2**53 + 1 is the first integer a float cannot hold.
    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text("seed = 9007199254740993\n", encoding="utf-8")
    _, by_flag, _ = run_cli(
        ["sweep-distance", "--seed", "9007199254740993", "--realizations", "50"], capsys
    )
    code, by_file, _ = run_cli(
        ["sweep-distance", "--config", str(cfg_path), "--realizations", "50"], capsys
    )
    assert code == 0
    assert by_file == by_flag
    _, rounded, _ = run_cli(
        ["sweep-distance", "--seed", "9007199254740992", "--realizations", "50"], capsys
    )
    assert rounded != by_flag


def test_realizations_precedence(tmp_path, capsys):
    """--realizations sets the run size, else the desk default; a config
    file changes the run's deployment, never its size."""
    for command in ("sweep-distance", "sweep-density"):
        assert build_parser().parse_args([command]).realizations == DESK_REALIZATIONS
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("seed = 6\n", encoding="utf-8")
    _, by_flag, _ = run_cli(["sweep-distance", "--seed", "6", "--realizations", "64"], capsys)
    _, by_file, _ = run_cli(
        ["sweep-distance", "--config", str(cfg_path), "--realizations", "64"], capsys
    )
    assert by_file == by_flag
    _, other_size, _ = run_cli(
        ["sweep-distance", "--config", str(cfg_path), "--realizations", "32"], capsys
    )
    assert other_size != by_flag


def test_bad_config_key_fails_with_message(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("duty = 0.01\n", encoding="utf-8")
    code, _, err = run_cli(["sweep-distance", "--config", str(cfg_path)], capsys)
    assert code != 0
    assert "duty" in err


def test_bad_config_value_fails(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("duty_cycle = 2.0\n", encoding="utf-8")
    code, _, err = run_cli(["sweep-distance", "--config", str(cfg_path)], capsys)
    assert code != 0
    assert "duty_cycle" in err


@pytest.mark.parametrize(
    "command",
    [
        ["sweep-distance", "--realizations", "10"],
        ["sweep-density", "--realizations", "10"],
        ["closed-form", "--distance", "6", "--sf", "9"],
        ["validate"],
    ],
    ids=lambda command: command[0],
)
def test_link_budget_outside_positive_doubles_fails_naming_key(command, tmp_path, capsys):
    """Configs whose transmit power, noise floor or cell-edge received power
    leaves the positive finite doubles exit 2 naming the key, in every
    command that reads a config."""
    cfg_path = tmp_path / "budget.cfg"
    for setting in (
        "tx_power_dbm = -4000",
        "tx_power_dbm = 4000",
        "noise_density_dbm_hz = 4000",
        "carrier_hz = 1e300",
        "path_loss_exponent = 60",
        "cell_radius_km = 1e300",
    ):
        cfg_path.write_text(setting + "\n", encoding="utf-8")
        code, out, err = run_cli(command + ["--config", str(cfg_path)], capsys)
        assert code == 2, (setting, err)
        assert out == ""
        assert setting.split()[0] in err


@pytest.mark.parametrize(
    "args, key",
    [
        (["sweep-distance", "--mean-devices", "nan"], "mean_devices"),
        (["sweep-distance", "--mean-devices", "inf"], "mean_devices"),
        (["sweep-density", "--n-bar-max", "nan"], "n_bar_max"),
        (["sweep-density", "--n-bar-max", "inf"], "n_bar_max"),
    ],
)
def test_non_finite_flag_fails_naming_key(args, key, capsys):
    code, out, err = run_cli(args + ["--realizations", "10"], capsys)
    assert code == 2
    assert out == ""
    assert key in err


def test_sweep_density_rejects_zero_threads(capsys):
    """The density sweep runs on one thread, so it takes no --threads, zero
    or otherwise."""
    for threads in ("0", "2"):
        code, out, err = run_cli(
            ["sweep-density", "--realizations", "10", "--threads", threads], capsys
        )
        assert code == 2
        assert out == ""
        assert "--threads" in err


def test_non_finite_config_value_fails_naming_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("cell_radius_km = inf\n", encoding="utf-8")
    code, _, err = run_cli(["sweep-distance", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "cell_radius_km" in err


def test_missing_config_file_fails(capsys):
    code, _, err = run_cli(["sweep-distance", "--config", "/nonexistent.cfg"], capsys)
    assert code != 0
    assert err


def test_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text("seed = 1\nmean_devices = 0\n", encoding="utf-8")
    args = ["sweep-distance", "--config", str(cfg_path), "--realizations", "50"]
    _, with_file_seed, _ = run_cli(args, capsys)
    _, with_flag_seed, _ = run_cli(args + ["--seed", "1"], capsys)
    assert with_file_seed == with_flag_seed


def test_env_seed_fallback(monkeypatch, capsys):
    args = ["sweep-distance", "--realizations", "100", "--mean-devices", "5"]
    monkeypatch.setenv("LORA_REL_SEED", "77")
    _, from_env, _ = run_cli(args, capsys)
    monkeypatch.delenv("LORA_REL_SEED")
    _, from_flag, _ = run_cli(args + ["--seed", "77"], capsys)
    assert from_env == from_flag
    monkeypatch.setenv("LORA_REL_SEED", "not-a-seed")
    code, _, err = run_cli(args, capsys)
    assert code != 0
    assert "LORA_REL_SEED" in err


def test_validate_passes(capsys):
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_validate_fails_on_swapped_kernel(monkeypatch, capsys):
    """The interference-algebra check reads the sweep kernel: a kernel that
    returns (sum, strongest) instead of (strongest, sum) fails it."""
    field_powers = montecarlo._field_powers
    monkeypatch.setattr(
        montecarlo, "_field_powers", lambda *args: field_powers(*args)[::-1]
    )
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 1
    assert "FAIL interference algebra" in out


@pytest.mark.parametrize(
    "setting, level",
    [("tx_power_dbm = -3000", "0"), ("path_loss_exponent = 56", "0"), ("tx_power_dbm = 3000", "1")],
)
def test_validate_passes_saturated_noise_only_success(setting, level, tmp_path, capsys):
    """A link so weak, or so strong, that the noise-only success is 0 (or
    1) on both sides of every annulus boundary has no jump to show; the
    saw-tooth check names those boundaries and passes."""
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(setting + "\n")
    code, out, _ = run_cli(["validate", "--config", str(cfg_path)], capsys)
    assert code == 0, out
    saw_tooth = next(line for line in out.splitlines() if "annulus saw-tooth" in line)
    assert saw_tooth.startswith("PASS")
    assert "upward at 0 of 5" in saw_tooth
    assert saw_tooth.count(f"(at {level})") == 5


@pytest.mark.parametrize(
    "success",
    [
        lambda d_km, sf, cfg: 0.95 - 0.1 * (sf - 7),  # a drop inside (0, 1)
        lambda d_km, sf, cfg: 1.0 if sf == 7 else 0.5,  # a drop from 1
        lambda d_km, sf, cfg: 0.5,  # level inside (0, 1)
    ],
    ids=["drop", "drop-from-one", "level"],
)
def test_validate_fails_without_upward_jump(monkeypatch, capsys, success):
    """Only a success of exactly 0 or 1 on both sides of a boundary excuses
    the missing jump: a drop, saturated on one side or not, and a level
    success inside (0, 1) still fail."""
    monkeypatch.setattr("lora_reliability.cli.snr_success_probability", success)
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 1
    assert "FAIL annulus saw-tooth: no upward jump at annulus boundary 2.0 km" in out


@pytest.mark.parametrize(
    "command, flag, value",
    [
        # A mean of SIR draws has no stable value, so no sweep offers one.
        ("sweep-distance", "--sir-mode", "mean-sir"),
        # The product of outages put p_sf above p_co, against the abstract.
        ("sweep-distance", "--joint-mode", "outage-product"),
        # The density sweep takes its mean device counts from --n-bar-max.
        ("sweep-density", "--mean-devices", "5"),
        # The free-space gain has one form; the literal variant's constant
        # lambda**(1 - eta) depends on the length unit.
        ("sweep-distance", "--path-loss-form", "paper_literal"),
        ("sweep-density", "--path-loss-form", "paper_literal"),
        ("closed-form", "--path-loss-form", "paper_literal"),
        ("validate", "--path-loss-form", "paper_literal"),
        # closed-form makes no random draw.
        ("closed-form", "--seed", "9"),
    ],
)
def test_removed_flag_is_rejected(command, flag, value, capsys):
    extra = {
        "validate": [],
        "closed-form": ["--distance", "6", "--sf", "9"],
    }.get(command, ["--realizations", "10"])
    code, out, err = run_cli([command, *extra, flag, value], capsys)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("command", ["sweep-distance", "sweep-density"])
def test_removed_full_switch_is_rejected(command, capsys):
    """The run size has one setting, --realizations; --full was the same as
    --realizations 100000."""
    code, out, err = run_cli([command, "--full"], capsys)
    assert code == 2
    assert out == ""
    assert "--full" in err


def test_reproduce_script_rejects_removed_desk_switch(tmp_path, capsys):
    """The script's run size is --realizations; --desk was the same as
    --realizations 10000."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_paper_sweeps.py"
    spec = importlib.util.spec_from_file_location("reproduce_paper_sweeps", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(SystemExit) as exc:
        module.main(["--desk", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--desk" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_readme_command_lines_parse():
    """Every ``lora-reliability ...`` line in the README's code blocks is
    accepted by the command-line parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    lines = [
        line.split("#", 1)[0].split()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("lora-reliability ")
    ]
    assert len(lines) >= 5
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {' '.join(argv)}")


def test_reproduce_script_writes_cli_sweep_bytes(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_paper_sweeps.py"
    spec = importlib.util.spec_from_file_location("reproduce_paper_sweeps", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    flags = ["--seed", "3", "--realizations", "64"]
    threads = ["--threads", "2"]
    assert module.main(flags + threads + ["--out-dir", str(tmp_path / "script")]) == 0
    capsys.readouterr()  # the script's progress lines
    for command, name, extra in (
        ("sweep-distance", "success_vs_distance.csv", threads),
        ("sweep-density", "coverage_vs_density.csv", []),
    ):
        code, out, _ = run_cli([command] + flags + extra, capsys)
        assert code == 0
        assert (tmp_path / "script" / name).read_bytes() == out.encode()


def test_only_the_package_root_imports_reference():
    """The object-level reference is a leaf: no module on the sweep or
    command path imports it."""
    package = Path(lora_reliability.__file__).resolve().parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "reference" for name in names):
                importers.add(path.name)
    assert importers == {"__init__.py"}


def test_sweeps_and_cli_do_not_load_scipy():
    """Only the quadrature oracle needs scipy, and it imports it when
    called; a fresh interpreter runs the import, a small sweep of each kind
    and the command line without loading it."""
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import lora_reliability as lr
        from lora_reliability import cli

        cfg = lr.NetworkConfig()
        spec = lr.SweepSpec("distance", (1.0, 7.0), 100, 1)
        lr.success_vs_distance(cfg, spec, threads=2)
        lr.coverage_vs_density(cfg, lr.SweepSpec("density", (0.0, 10.0), 100, 1))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep-distance", "--realizations", "20", "--seed", "1"]) == 0
            assert cli.main(["sweep-density", "--realizations", "20", "--seed", "1"]) == 0
            assert cli.main(["closed-form", "--distance", "6", "--sf", "9"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = str(Path(lora_reliability.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
