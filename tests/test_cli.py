import csv
import math

import numpy as np
import pytest

import plasmacas.asymptotics as asy
import plasmacas._quadrature as quadrature
from plasmacas import cli
from plasmacas.cli import (HBARC_J_M, SweepConfig, UsageError, build_parser,
                           main, parse_config, run_sweep)
from plasmacas.scattering import PERFECT_CONDUCTOR


def _parse(argv):
    return build_parser().parse_args(argv)


def _rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_defaults_with_required_flags(tmp_path):
    cfg = parse_config(_parse(["point", "--radius", "1e-3", "--gap", "1e-5"]))
    assert cfg.method == "asympt"
    assert cfg.omega_s == PERFECT_CONDUCTOR and cfg.omega_p == PERFECT_CONDUCTOR
    assert cfg.radii == (1e-3,) and cfg.gaps == (1e-5,)
    assert cfg.threads == 1


def test_flag_overrides_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("lmax = 32\nradius = 1e-3\ngap = 1e-5  # comment\n")
    cfg = parse_config(_parse(["point", "--config", str(conf), "--lmax", "64"]))
    assert cfg.lmax == 64
    cfg = parse_config(_parse(["point", "--config", str(conf)]))
    assert cfg.lmax == 32


def test_inf_marker_selects_pc(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("radius=1.0\ngap=0.5\nomega_sphere=inf\nomega_plane=2.5\n")
    cfg = parse_config(_parse(["point", "--config", str(conf)]))
    assert cfg.omega_s == PERFECT_CONDUCTOR
    assert cfg.omega_p == 2.5


def test_unknown_key_rejected(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("radius=1.0\nbogus_key=3\n")
    with pytest.raises(UsageError, match=r"run\.conf:2.*bogus_key"):
        parse_config(_parse(["point", "--config", str(conf)]))


def test_malformed_value_reports_line(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("radius=1.0\ngap=abc\n")
    with pytest.raises(UsageError, match=r"run\.conf:2"):
        parse_config(_parse(["point", "--config", str(conf)]))


def test_usage_error_exit_code(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("nonsense=1\n")
    code = main(["point", "--config", str(conf), "--radius", "1", "--gap", "0.1"])
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


def test_point_config_without_out_writes_point_csv(tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("method=pfa\nradius=1e-3\ngap=1e-5\n")
    monkeypatch.chdir(tmp_path)
    assert main(["point", "--config", str(conf)]) == 0
    assert (tmp_path / "point.csv").exists()
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("key", ["gap", "radius"])
def test_point_with_range_config_is_usage_error(tmp_path, capsys, key):
    conf = tmp_path / "run.conf"
    other = "radius" if key == "gap" else "gap"
    conf.write_text(f"{other}=1e-5\n{key}_min=1e-6\n{key}_max=1e-5\n{key}_count=3\n")
    out = tmp_path / "point.csv"
    assert main(["point", "--config", str(conf), "--method", "pfa", "--out", str(out)]) == 2
    assert "sweep" in capsys.readouterr().err
    assert not out.exists()
    # the same file drives a sweep of three rows
    assert main(["sweep", "--config", str(conf), "--method", "pfa", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    # a single-value flag wins over the file's range
    assert main(["point", "--config", str(conf), f"--{key}", "2e-6", "--method", "pfa",
                 "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 1 and float(rows[0][{"gap": "d_m", "radius": "R_m"}[key]]) == 2e-6


@pytest.mark.parametrize("flag", ["--omega-sphere", "--omega-plane"])
def test_nan_omega_is_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "nan.csv"
    code = main(["point", "--method", "pfa", "--radius", "1e-3", "--gap", "1e-5",
                 flag, "nan", "--out", str(out)])
    assert code == 2
    assert flag[2:] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--lmax", "0"), ("--mmax", "-1"), ("--rel-tol", "-1"),
                                         ("--lmax", "1"), ("--rel-tol", "inf")])
def test_bad_numerics_flag_is_usage_error(tmp_path, capsys, flag, value):
    # checked up front for every method, not row by row
    for method in ("exact", "asympt"):
        out = tmp_path / f"{method}.csv"
        code = main(["point", "--method", method, "--radius", "1e-6", "--gap", "1e-7",
                     flag, value, "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["point", "--method", "pfa", "--radius", "1e-3", "--gap", "inf"],
    ["point", "--method", "asympt", "--radius", "inf", "--gap", "1e-5"],
    ["point", "--method", "pfa", "--radius", "1e-3", "--gap", "nan"],
    ["sweep", "--method", "pfa", "--radius", "1e-3", "--gap-min", "1e-6", "--gap-max", "inf"],
])
def test_non_finite_geometry_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "geometry.csv"
    assert main([*args, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_point_pfa_transparent_zero(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(["point", "--method", "pfa", "--radius", "1e-3", "--gap", "1e-5",
                 "--omega-sphere", "0", "--omega-plane", "1e5", "--out", str(out)])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert float(rows[0]["energy_J"]) == 0.0
    assert rows[0]["status"] == "ok"


def test_sweep_csv_columns_and_dimensionless_consistency(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--method", "asympt", "--radius", "1e-3",
                 "--gap-min", "1e-6", "--gap-max", "1e-5", "--gap-count", "3",
                 "--omega-sphere", "6.75e5", "--omega-plane", "6.75e5",
                 "--out", str(out)])
    assert code == 0
    rows = _rows(out)
    assert list(rows[0].keys()) == cli.CSV_COLUMNS
    assert len(rows) == 3
    for row in rows:
        e = float(row["energy_J"])
        r, d = float(row["R_m"]), float(row["d_m"])
        dimless = e * d * d / (HBARC_J_M * r)
        assert abs(dimless - float(row["energy_dimensionless"])) <= 1e-12 * abs(dimless)
        assert float(row["L_m"]) == pytest.approx(r + d, rel=1e-15)


def test_sweep_deterministic_bytes(tmp_path):
    args = ["sweep", "--method", "asympt", "--radius", "1e-3",
            "--gap-min", "1e-6", "--gap-max", "1e-5", "--gap-count", "3",
            "--omega-sphere", "6.75e5", "--omega-plane", "6.75e5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_worker_pool_matches_serial(tmp_path):
    base = ["sweep", "--method", "pfa", "--radius", "1e-3",
            "--gap-min", "1e-6", "--gap-max", "1e-5", "--gap-count", "4",
            "--omega-sphere", "1e6", "--omega-plane", "1e6"]
    out1, out2 = tmp_path / "ser.csv", tmp_path / "par.csv"
    assert main(base + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(base + ["--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_point_asympt_pc_theta_column(tmp_path):
    out = tmp_path / "pc.csv"
    code = main(["point", "--method", "asympt", "--radius", "1.0", "--gap", "0.05",
                 "--omega-sphere", "inf", "--omega-plane", "inf", "--out", str(out)])
    assert code == 0
    row = _rows(out)[0]
    assert float(row["theta"]) == pytest.approx(1.0 / 3.0 - 20.0 / math.pi ** 2, abs=1e-4)
    # PC asympt energy ratio: 1 + eps * theta against the PC PFA column
    assert float(row["ratio_to_PFA_PC"]) == pytest.approx(
        1.0 + 0.05 * (1.0 / 3.0 - 20.0 / math.pi ** 2), rel=1e-6)


def test_row_error_recorded_with_exit_3(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = main(["point", "--method", "exact", "--radius", "1.0", "--gap", "0.05",
                 "--omega-sphere", "inf", "--omega-plane", "inf",
                 "--lmax", "6", "--rel-tol", "1e-4", "--out", str(out)])
    assert code == 3
    row = _rows(out)[0]
    assert row["status"].startswith("error:")
    assert row["energy_J"] == ""


def test_pfa_row_at_tau_cap_recorded_with_exit_3(tmp_path, monkeypatch):
    # w = Omega d = 1e-3 needs more than 48 tau nodes
    monkeypatch.setattr(quadrature, "_N_TAU_MAX", 48)
    out = tmp_path / "capped.csv"
    code = main(["point", "--method", "pfa", "--radius", "1.0", "--gap", "0.01",
                 "--omega-sphere", "0.1", "--omega-plane", "0.1", "--out", str(out)])
    assert code == 3
    row = _rows(out)[0]
    assert row["status"].startswith("error: PFA: tau rule not settled")
    assert row["energy_J"] == ""


def test_figure_configs():
    (cfg,) = cli._figure_configs(1, None, 1)
    assert cfg.method == "asympt"
    assert cfg.omega_s == 6.75e5 and cfg.radii == (1e-3,)
    assert min(cfg.gaps) >= 1e-6 and max(cfg.gaps) <= 1.2e-4
    with pytest.raises(UsageError):
        cli._figure_configs(7, None, 1)


def test_figure_run_small(tmp_path, monkeypatch):
    # shrink the grid so the end-to-end path stays fast
    orig = cli._spacing
    monkeypatch.setattr(cli, "_spacing",
                        lambda lo, hi, count, kind: orig(lo, hi, min(count, 2), kind))
    out = tmp_path / "fig2.csv"
    assert main(["figure", "2", "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["method"] == "asympt" for r in rows)


def test_figure_multi_material_run_small(tmp_path, monkeypatch):
    # preset 4: one block of rows per plasma parameter, graphene up to PC
    orig = cli._spacing
    monkeypatch.setattr(cli, "_spacing",
                        lambda lo, hi, count, kind: orig(lo, hi, min(count, 2), kind))
    out = tmp_path / "fig4.csv"
    assert main(["figure", "4", "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 8
    assert all(r["status"] == "ok" and r["method"] == "asympt" for r in rows)
    omegas = [6.75e5, 6.75e6, 6.75e7, math.inf]
    assert [float(r["omega_s_per_m"]) for r in rows] == [om for om in omegas for _ in range(2)]
    assert [float(r["omega_p_per_m"]) for r in rows] == [om for om in omegas for _ in range(2)]
    assert [float(r["d_m"]) for r in rows] == pytest.approx([1e-7, 1e-3] * 4, rel=1e-15)
    for r in rows[6:]:
        assert float(r["theta"]) == pytest.approx(1.0 / 3.0 - 20.0 / math.pi ** 2, abs=1e-4)


def test_asympt_row_runs_each_series_once(monkeypatch):
    # one PFA integral for E0 and one E1 s-series
    calls = {"_polylog_integral": 0, "_tail_corrected_sum": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(asy, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(asy, name, counted)
    row = cli._compute_row(("asympt", 1e-3, 1e-5, 6.75e5, 6.75e5, None, None, None))
    assert row["status"] == "ok" and row["theta"] < 0.0
    assert calls == {"_polylog_integral": 1, "_tail_corrected_sum": 1}


def test_graphene_sweep_monotone_energy_and_theta_minimum(tmp_path):
    # spans the theta minimum near d = 1/Omega = 1.48 um
    out = tmp_path / "g.csv"
    code = main(["sweep", "--method", "asympt", "--radius", "1e-3",
                 "--gap-min", "3e-7", "--gap-max", "1e-5", "--gap-count", "6",
                 "--omega-sphere", "6.75e5", "--omega-plane", "6.75e5",
                 "--out", str(out)])
    assert code == 0
    rows = _rows(out)
    mags = [abs(float(r["energy_J"])) for r in rows]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    thetas = [float(r["theta"]) for r in rows]
    i = int(np.argmin(thetas))
    assert 0 < i < len(thetas) - 1


def test_version_mentions_hbarc(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "3.1615268e-26" in capsys.readouterr().out


def test_sweep_config_validation():
    with pytest.raises(UsageError):
        SweepConfig(method="nope", radii=(1.0,), gaps=(0.1,), omega_s=1.0, omega_p=1.0)
    with pytest.raises(UsageError):
        SweepConfig(method="pfa", radii=(), gaps=(0.1,), omega_s=1.0, omega_p=1.0)
    with pytest.raises(UsageError):
        SweepConfig(method="pfa", radii=(1.0,), gaps=(-0.1,), omega_s=1.0, omega_p=1.0)


@pytest.mark.parametrize("args", [
    ["--method", "pfa", "--radius", "1", "--gap", "1e-200"],
    ["--method", "asympt", "--radius", "1e200", "--gap", "1e-170"],
    ["--method", "pfa", "--radius", "1e300", "--gap", "1e300"],
    # the library's energy is fine; the CLI's own d^2 rounds to 0
    ["--method", "exact", "--radius", "1e-200", "--gap", "1e-201"],
])
def test_lengths_outside_the_double_range_fail_the_row(tmp_path, capsys, args):
    out = tmp_path / "range.csv"
    assert main(["point", *args, "--out", str(out)]) == 3
    (row,) = _rows(out)
    assert row["status"].startswith("error:") and "outside the double range" in row["status"]
    assert row["energy_J"] == row["ratio_to_PFA_PC"] == row["error_estimate"] == ""
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 2])
def test_bad_config_spacing_is_usage_error_for_any_count(tmp_path, capsys, count):
    conf = tmp_path / "run.conf"
    conf.write_text(f"radius = 1e-3\ngap_min = 1e-5\ngap_max = 1e-5\ngap_count = {count}\n"
                    "gap_spacing = bogus\n")
    out = tmp_path / "spacing.csv"
    assert main(["sweep", "--config", str(conf), "--method", "pfa", "--out", str(out)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()
    conf.write_text(f"gap = 1e-5\nradius_min = 1e-3\nradius_max = 1e-3\n"
                    f"radius_count = {count}\nradius_spacing = bogus\n")
    assert main(["sweep", "--config", str(conf), "--method", "pfa", "--out", str(out)]) == 2
    assert not out.exists()
