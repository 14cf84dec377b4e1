"""CLI: config handling, data generation, inversion runs, verify report."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from aescatter.cli import cmd_forward, cmd_invert, cmd_verify, dump_config, load_config, main


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("AESCATTER_OUTPUT_DIR", str(out))
    return out


def write_config(path, **overrides):
    cfg = {
        "wave": {"theta": np.pi / 8},
        "obstacle": {"kind": "apple"},
        "grids": {"n_data": 48, "n_forward": 32, "observation_points": 128},
        "inversion": {"initial_center": [-0.6, -0.3], "initial_radius": 0.4,
                      "epsilon": 0.2, "M": 6, "rho": 0.9, "max_iter": 50},
        "noise": {"delta": 0.01, "model": "uniform"},
        "seed": 3,
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


class TestConfig:
    def test_roundtrip_idempotent(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        cfg = load_config(p)
        dump_config(cfg, tmp_path / "c2.json")
        cfg2 = load_config(tmp_path / "c2.json")
        dump_config(cfg2, tmp_path / "c3.json")
        assert (tmp_path / "c2.json").read_text() == (tmp_path / "c3.json").read_text()

    def test_defaults_filled(self, tmp_path):
        p = tmp_path / "min.json"
        p.write_text("{}")
        cfg = load_config(p)
        assert cfg["material"]["lam"] == 3.88
        assert cfg["material"]["mu"] == 2.56
        assert cfg["inversion"]["M"] == 6
        assert cfg["ball"] is None

    @pytest.mark.parametrize("section, key", [("material", "lamda"), ("inversion", "max_iters")])
    def test_unknown_key_raises(self, tmp_path, outdir, section, key):
        # a misspelt field must not fall back silently to its default
        p = write_config(tmp_path / "typo.json", **{section: {key: 3}})
        with pytest.raises(TypeError, match=key):
            cmd_invert(p, tmp_path / "never_read.dat")

    @pytest.mark.parametrize("section, key, value", [
        ("noise", "delta", float("nan")), ("inversion", "epsilon", float("nan")),
        ("material", "lam", float("inf")), ("wave", "theta", -float("inf"))])
    def test_non_number_constant_raises(self, tmp_path, section, key, value):
        # Python's json reads these as floats: a NaN delta wrote noise-free
        # data, and a NaN epsilon ran on to the iteration cap
        p = write_config(tmp_path / "constant.json", **{section: {key: value}})
        with pytest.raises(ValueError, match=json.dumps(value)):
            load_config(p)

    @pytest.mark.parametrize("section, key", [("grids", "n_forwad"), ("noise", "delat"),
                                              ("wave", "thetta"), ("obstacle", "radius"),
                                              ("ball", "raduis")])
    def test_unknown_section_key_raises(self, tmp_path, section, key):
        # before the check these loaded with the key's default in its place, or
        # (a ball's radius) failed later with a KeyError
        p = write_config(tmp_path / "typo.json", **{section: {key: 16}})
        with pytest.raises(ValueError, match=f"{section} key: {key}"):
            load_config(p)

    @pytest.mark.parametrize("section, body, key", [
        ("ball", {"center": [6.6, 0]}, "radius"), ("ball", {"radius": 0.7}, "center"),
        ("obstacle", {"kind": "circle"}, "radius"), ("obstacle", {"kind": "fourier"}, "a")],
        ids=["ball-radius", "ball-center", "circle-radius", "fourier-a"])
    def test_missing_section_key_raises(self, tmp_path, section, body, key):
        # before the check these failed later, in cmd_forward, with a bare KeyError
        p = tmp_path / "short.json"
        p.write_text(json.dumps({section: body}))
        with pytest.raises(ValueError, match=f"missing config {section} key: {key}"):
            load_config(p)

    def test_unknown_obstacle_kind_raises(self, tmp_path):
        p = write_config(tmp_path / "typo.json", obstacle={"kind": "cirle", "radius": 0.5})
        with pytest.raises(ValueError, match="obstacle kind 'cirle'"):
            load_config(p)

    def test_unknown_section_raises(self, tmp_path):
        p = write_config(tmp_path / "typo.json", inversions={"M": 3})
        with pytest.raises(ValueError, match="section: inversions"):
            load_config(p)

    @pytest.mark.parametrize("overrides", [
        {"grids": {"observation_points": 10.5}}, {"grids": {"observation_points": True}},
        {"seed": 2.5}, {"seed": True}], ids=["points-float", "points-true", "seed-float",
                                             "seed-true"])
    def test_non_integer_count_raises(self, tmp_path, overrides):
        # 10.5 observation points wrote 11 rows at the angles 2 pi k / 10.5
        p = write_config(tmp_path / "float.json", **overrides)
        with pytest.raises(ValueError, match="must be integers"):
            load_config(p)

    @pytest.mark.parametrize("key", ["M", "max_iter"])
    def test_non_integer_inversion_field_raises(self, tmp_path, outdir, key):
        # these constructed, then raised a TypeError inside the run
        p = write_config(tmp_path / "float.json", inversion={key: 2.5})
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            cmd_invert(p, tmp_path / "never_read.dat")


class TestForwardCommand:
    def test_list_theta_raises(self, tmp_path, outdir):
        # [0.5] wrote a table with a 2 x 1 incident direction
        p = write_config(tmp_path / "apple.json", wave={"theta": [0.5]})
        with pytest.raises(ValueError, match="theta"):
            cmd_forward(p)
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_phased_file_shape(self, tmp_path, outdir):
        p = write_config(tmp_path / "apple.json")
        (path,) = cmd_forward(p)
        table = np.loadtxt(path)
        assert table.shape == (128, 3)

    def test_rerun_byte_identical(self, tmp_path, outdir):
        p = write_config(tmp_path / "apple.json")
        (path,) = cmd_forward(p)
        first = path.read_bytes()
        (path,) = cmd_forward(p)
        assert path.read_bytes() == first

    def test_phaseless_file(self, tmp_path, outdir):
        p = write_config(tmp_path / "peanut.json",
                         obstacle={"kind": "peanut"},
                         ball={"center": [6.6, 0.0], "radius": 0.71},
                         grids={"n_data": 48, "n_forward": 32,
                                "observation_points": 64})
        (path,) = cmd_forward(p)
        assert path.name.endswith("_phaseless.dat")
        table = np.loadtxt(path)
        assert table.shape == (64, 2)
        assert np.all(table[:, 1] >= 0)


class TestInvertCommand:
    def test_converged_run_exit_zero(self, tmp_path, outdir):
        p = write_config(tmp_path / "apple.json")
        (data,) = cmd_forward(p)
        code = cmd_invert(p, data)
        assert code == 0
        hist = np.loadtxt(outdir / f"{data.stem}_history.dat")
        assert hist[-1, 1] <= 0.2
        # Err column present for a known shape
        assert hist.shape[1] == 3 + 2 + 7 + 6
        curve_tab = np.loadtxt(outdir / f"{data.stem}_curve.dat")
        assert curve_tab.shape == (256, 3)
        assert (outdir / f"{data.stem}_truth.dat").exists()

    def test_unreachable_epsilon_exit_nonzero(self, tmp_path, outdir):
        p = write_config(tmp_path / "apple.json",
                         inversion={"epsilon": 1e-9, "max_iter": 2,
                                    "initial_center": [-0.6, -0.3],
                                    "initial_radius": 0.4, "M": 6, "rho": 0.9})
        (data,) = cmd_forward(p)
        code = cmd_invert(p, data)
        assert code != 0
        # history still written
        assert (outdir / f"{data.stem}_history.dat").exists()

    def test_unknown_truth_omits_err(self, tmp_path, outdir):
        p = write_config(tmp_path / "circle.json",
                         obstacle={"kind": "circle", "center": [0.0, 0.0],
                                   "radius": 0.5},
                         inversion={"epsilon": 0.5, "max_iter": 3,
                                    "initial_center": [0.0, 0.0],
                                    "initial_radius": 0.45, "M": 6, "rho": 0.9},
                         noise={"delta": 0.0, "model": "uniform"})
        (data,) = cmd_forward(p)
        cmd_invert(p, data)
        hist = np.loadtxt(outdir / f"{data.stem}_history.dat")
        hist = np.atleast_2d(hist)
        assert hist.shape[1] == 2 + 2 + 7 + 6  # no Err column
        assert not (outdir / f"{data.stem}_truth.dat").exists()

    def test_phased_table_with_nan_raises(self, tmp_path, outdir):
        # the run stopped at k=0 with E_k=nan; a phaseless table already raised
        p = write_config(tmp_path / "apple.json")
        data = tmp_path / "apple_phased.dat"
        values = np.ones((8, 2))
        values[3, 0] = np.nan
        np.savetxt(data, np.column_stack([np.arange(8.0), values]), header="angle re im")
        with pytest.raises(ValueError, match="finite"):
            cmd_invert(p, data)

    def test_phased_table_with_nan_angle_raises(self, tmp_path, outdir):
        # the run stopped in tikhonov_step, with "regularization parameter
        # must be finite and non-negative"
        p = write_config(tmp_path / "apple.json", inversion={"max_iter": 1})
        data = tmp_path / "apple_phased.dat"
        angles = 2.0 * np.pi * np.arange(8) / 8
        angles[5] = np.nan
        np.savetxt(data, np.column_stack([angles, np.ones((8, 2))]), header="angle re im")
        with pytest.raises(ValueError, match="angles must be finite"):
            cmd_invert(p, data)

    def test_phased_run_on_phaseless_table_raises(self, tmp_path, outdir):
        p = write_config(tmp_path / "apple.json")
        data = tmp_path / "apple_phaseless.dat"
        np.savetxt(data, np.column_stack([np.arange(8.0), np.ones(8)]), header="angle abs2")
        with pytest.raises(ValueError, match="angle re im"):
            cmd_invert(p, data)

    def test_phaseless_run_on_phased_table_raises(self, tmp_path, outdir):
        # Re u >= 0 everywhere, so the table would pass as squared moduli
        p = write_config(tmp_path / "peanut.json", obstacle={"kind": "peanut"},
                         ball={"center": [6.6, 0.0], "radius": 0.71},
                         grids={"n_data": 32, "n_forward": 16, "observation_points": 8},
                         inversion={"max_iter": 1})
        data = tmp_path / "peanut_phased.dat"
        np.savetxt(data, np.column_stack([np.arange(8.0), np.ones(8), np.ones(8)]),
                   header="angle re im")
        with pytest.raises(ValueError, match="angle abs2"):
            cmd_invert(p, data, phaseless=True)

    def test_phaseless_run_through_main(self, tmp_path, outdir):
        p = write_config(tmp_path / "peanut.json", obstacle={"kind": "peanut"},
                         ball={"center": [6.6, 0.0], "radius": 0.71},
                         grids={"n_data": 32, "n_forward": 16, "observation_points": 128},
                         inversion={"max_iter": 1})
        assert main(["forward", str(p)]) == 0
        data = outdir / "peanut_phaseless.dat"
        assert main(["invert", str(p), str(data), "--phaseless"]) == 2
        history = (outdir / "peanut_phaseless_history.dat").read_text().splitlines()
        assert history[0] == "# reference ball: center=(6.6, 0.0) radius=0.71"


class TestVerifyCommand:
    def test_quick_report_passes(self):
        ok, report = cmd_verify()
        assert ok, report
        assert "translation covariance" in report
        assert report.count("PASS") >= 8

    def test_main_dispatch(self, tmp_path, outdir, capsys):
        p = write_config(tmp_path / "apple.json")
        assert main(["forward", str(p)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_main_verify(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("PASS") for line in lines) == 10
