"""Command-line behavior: examples, exit codes, overrides, reruns."""

import json

import numpy as np
import pytest

from freeconv import cli
from freeconv import tracywidom as tw


def run(*argv):
    return cli.main(list(argv))


def test_help_lists_commands_and_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in cli.COMMANDS:
        assert name in out
    for key in ("mu1", "ks_threshold", "sizes", "out_dir", "seed"):
        assert key in out


def test_edge_semicircle_pair(tmp_path):
    assert run("edge", "--mu1", "semicircle:1", "--mu2", "semicircle:1",
               "--out-dir", str(tmp_path)) == 0
    rec = json.loads((tmp_path / "edge.json").read_text())
    assert abs(rec["e_plus"] - 2.8284271) < 1e-6
    assert rec["residual"] < 1e-9


def test_edge_point_mass_shift(tmp_path):
    assert run("edge", "--mu1", "point_mass:0.5", "--mu2", "semicircle:1",
               "--out-dir", str(tmp_path)) == 0
    rec = json.loads((tmp_path / "edge.json").read_text())
    assert abs(rec["e_plus"] - 2.5) < 1e-9


def test_convolve_density_integrates(tmp_path):
    assert run("convolve", "--mu1", "uniform:-1,1", "--mu2", "uniform:-1,1",
               "--grid-points", "200", "--out-dir", str(tmp_path)) == 0
    lines = (tmp_path / "density.csv").read_text().strip().split("\n")
    assert lines[0] == "x,density"
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    integral = np.trapezoid(data[:, 1], data[:, 0])
    assert abs(integral - 1.0) < 1e-3
    rec = json.loads((tmp_path / "edge.json").read_text())
    assert abs(rec["e_plus"] - 1.5429018527568684) < 1e-6


def test_tabulate_tw_matches_evaluator(tmp_path):
    assert run("tabulate-tw", "--s-lo", "-5", "--s-hi", "2", "--s-points",
               "11", "--out-dir", str(tmp_path)) == 0
    lines = (tmp_path / "tw_cdf.csv").read_text().strip().split("\n")
    assert lines[0] == "s,F2"
    assert len(lines) == 12
    ev = tw.TWEvaluator(40)
    values = []
    for line in lines[1:]:
        s, f2 = (float(c) for c in line.split(","))
        assert abs(f2 - tw.tw2_cdf(ev, s)) < 1e-12
        values.append(f2)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_sample_reproducible(tmp_path):
    args = ("sample", "--mu1", "uniform:-1,1", "--mu2", "uniform:-1,1",
            "--n", "60", "--seed", "5")
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert run(*args, "--out-dir", str(d)) == 0
    first, second = (d / "spectrum.csv" for d in dirs)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    eigs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(eigs) == 60
    assert all(a >= b for a, b in zip(eigs, eigs[1:]))


def test_verify_tw_pass_and_fail(tmp_path):
    assert run("verify-tw", "--n", "80", "--n-samples", "60", "--seed", "9",
               "--ks-threshold", "0.3", "--out-dir", str(tmp_path)) == 0
    rec = json.loads((tmp_path / "report.json").read_text())
    assert rec["pass"] is True
    assert rec["tag"] == "tw"
    assert "wall_time" not in rec
    # an absurdly tight threshold turns the same statistic into a FAIL
    assert run("verify-tw", "--n", "80", "--n-samples", "60", "--seed", "9",
               "--ks-threshold", "0.001", "--out-dir", str(tmp_path)) == 1
    rec = json.loads((tmp_path / "report.json").read_text())
    assert rec["pass"] is False


def test_config_errors_exit_2(tmp_path):
    assert run("verify-tw", "--n-samples", "0") == 2
    assert run("edge", "--mu1", "nosuch:1", "--mu2", "semicircle:1",
               "--out-dir", str(tmp_path)) == 2
    assert run("edge", "--mu2", "semicircle:1") == 2
    assert run("verify-dbm", "--chi", "0.5") == 2
    assert run("verify-local-law", "--sizes", "100,200") == 2
    assert run("verify-rigidity", "--n", "50", "--top-k", "60") == 2
    assert run("verify-local-law", "--eta-exponent", "40") == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_samples": 10, "bogus": 1}')
    assert run("verify-tw", "--config", str(bad)) == 2
    mismatched = tmp_path / "cmd.json"
    mismatched.write_text('{"command": "edge"}')
    assert run("verify-tw", "--config", str(mismatched)) == 2


def test_numerical_failure_exit_3(tmp_path):
    # two point masses at t=0 have an atomic limit with no usable edge fit
    assert run("edge", "--mu1", "point_mass:0", "--mu2", "point_mass:0",
               "--out-dir", str(tmp_path)) == 3


def test_convolve_failed_density_point_exit_3(tmp_path, monkeypatch, capsys):
    real_sweep = cli.sub.density_sweep

    def one_failure(*args, **kwargs):
        rho, resid, iters = real_sweep(*args, **kwargs)
        rho[3] = np.nan
        return rho, resid, iters

    monkeypatch.setattr(cli.sub, "density_sweep", one_failure)
    assert run("convolve", "--mu1", "uniform:-1,1", "--mu2", "uniform:-1,1",
               "--grid-points", "20", "--out-dir", str(tmp_path)) == 3
    captured = capsys.readouterr()
    assert "density solve failed at 1 of 20 points" in captured.err
    assert "failed=1 iterations=" in captured.out
    assert "max_residual=" in captured.out
    assert (tmp_path / "density.csv").exists()
    assert (tmp_path / "edge.json").exists()


def test_programming_error_is_not_exit_3(tmp_path, monkeypatch):
    # exit code 3 is for the package's numerical error types only; any other
    # RuntimeError is a bug and propagates
    def broken(*args):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli.eg, "find_edge_stability", broken)
    with pytest.raises(RuntimeError, match="bug"):
        run("edge", "--mu1", "semicircle:1", "--mu2", "semicircle:1",
            "--out-dir", str(tmp_path))


def test_config_file_with_flag_override(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "verify-tw", "n": 80,
                                    "n_samples": 60, "seed": 9,
                                    "ks_threshold": 0.3}))
    assert run("verify-tw", "--config", str(manifest), "--n-samples", "40",
               "--out-dir", str(tmp_path)) == 0
    rec = json.loads((tmp_path / "report.json").read_text())
    assert rec["n_samples"] == 40
    assert rec["config"]["seed"] == 9


def test_verify_rerun_byte_identical(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"n": 80, "n_samples": 40, "seed": 11,
                                    "ks_threshold": 0.5}))
    first = tmp_path / "first"
    second = tmp_path / "second"
    for d in (first, second):
        assert run("verify-tw", "--config", str(manifest),
                   "--out-dir", str(d)) == 0
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()


def test_verify_local_law_reports_three_medians(tmp_path, capsys):
    rc = run("verify-local-law", "--sizes", "40,60,80", "--n-samples", "2",
             "--seed", "3", "--out-dir", str(tmp_path))
    assert rc in (0, 1)
    rec = json.loads((tmp_path / "report.json").read_text())
    assert len(rec["stats"]["entry_medians"]) == 3
    assert sorted(rec["stats"]["per_size"]) == ["40", "60", "80"]
    out = capsys.readouterr().out
    assert "entry medians per size:" in out


def test_decompose_check_reports_identities(tmp_path):
    assert run("decompose-check", "--n", "48", "--n-samples", "10",
               "--out-dir", str(tmp_path)) == 0
    rec = json.loads((tmp_path / "decomposition.json").read_text())
    assert rec["pass"] is True
    assert rec["max_residual"] <= 1e-12
    assert set(rec["residuals"]) == {"unit_norm", "involution",
                                     "reconstruction", "length_formula"}
