"""Command-line behavior: examples, exit codes, overrides, reruns."""

import json

import numpy as np
import pytest

from freeconv import cli
from freeconv import harness as hz
from freeconv import rmt
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


def test_convolve_density_integrates(tmp_path, capsys):
    assert run("convolve", "--mu1", "uniform:-1,1", "--mu2", "uniform:-1,1",
               "--grid-points", "200", "--out-dir", str(tmp_path)) == 0
    assert " integral=" in capsys.readouterr().out
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
    s, values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]]).T
    assert np.all(np.abs(values - tw.tw2_cdf(tw.TWEvaluator(40), s)) < 1e-12)
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


def test_config_errors_exit_2(tmp_path, capsys):
    assert run("verify-tw", "--n-samples", "0") == 2
    assert run("edge", "--mu1", "nosuch:1", "--mu2", "semicircle:1",
               "--out-dir", str(tmp_path)) == 2
    assert run("edge", "--mu2", "semicircle:1") == 2
    assert run("verify-dbm", "--chi", "0.5") == 2
    assert run("verify-local-law", "--sizes", "100,200") == 2
    assert run("verify-local-law", "--sizes", "1000,500,250") == 2
    assert run("verify-local-law", "--sizes", "250,250,500") == 2
    for spec in ("point_mass:nan", "atoms:nan,1", "atoms:0,nan", "uniform:0,inf",
                 "semicircle:inf", "semicircle:1,2,3", "point_mass:"):
        assert run("edge", "--mu1", spec, "--mu2", "semicircle:1",
                   "--out-dir", str(tmp_path)) == 2, spec
    capsys.readouterr()
    run("edge", "--mu1", "semicircle:1,2,3", "--mu2", "semicircle:1")
    assert "semicircle takes (variance, center=0.0), got 3 parameters" in capsys.readouterr().err
    assert run("verify-rigidity", "--n", "50", "--top-k", "60") == 2
    assert run("verify-local-law", "--eta-exponent", "40") == 2
    # experiment settings are checked by ExperimentConfig, as config errors
    assert run("verify-local-law", "--sizes", "0,1,2") == 2
    assert run("verify-rigidity", "--top-k", "0") == 2
    assert run("verify-rigidity", "--rigidity-limit", "-1") == 2
    # the quantiles are built at max(sizes), so the sizes rule runs before them
    capsys.readouterr()
    assert run("verify-local-law", "--sizes=-3,-2,-1") == 2
    assert "sizes entries must be >= 1" in capsys.readouterr().err
    # seeds outside int64 would share Philox streams or overflow the key
    assert run("verify-tw", "--seed", "9223372036854775808") == 2
    assert run("verify-tw", "--seed", "-9223372036854775809") == 2
    # non-finite floats stop at the config layer, before any solve
    uu = ("--mu1", "uniform:-1,1", "--mu2", "uniform:-1,1", "--out-dir", str(tmp_path))
    for value in ("nan", "inf"):
        assert run("convolve", *uu, "--t", value) == 2, value
        assert run("edge", *uu, "--t", value) == 2, value
    assert run("verify-tw", "--t", "nan") == 2
    assert run("convolve", *uu, "--grid-lo", "nan", "--grid-points", "4") == 2
    assert run("convolve", *uu, "--grid-hi", "inf", "--grid-points", "4") == 2
    # a reversed grid is a config error even where the edge solve would fail
    assert run("convolve", "--mu1", "point_mass:0", "--mu2", "point_mass:0",
               "--grid-lo", "1", "--grid-hi", "0", "--out-dir", str(tmp_path)) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"t": NaN}')
    assert run("edge", *uu, "--config", str(bad)) == 2
    bad.write_text('{"n_samples": 10, "bogus": 1}')
    assert run("verify-tw", "--config", str(bad)) == 2
    mismatched = tmp_path / "cmd.json"
    mismatched.write_text('{"command": "edge"}')
    assert run("verify-tw", "--config", str(mismatched)) == 2


def test_numerical_failure_exit_3(tmp_path, capsys):
    # two point masses at t=0 are a shift case without a square-root edge
    assert run("edge", "--mu1", "point_mass:0", "--mu2", "point_mass:0",
               "--out-dir", str(tmp_path)) == 3
    # a grid end so far out that m_mu rounds to 0 fails those density points
    for mu1, hi in (("uniform:-1,1", "1e20"), ("arcsine:-1,1", "1e70")):
        capsys.readouterr()
        assert run("convolve", "--mu1", mu1, "--mu2", "uniform:-1,1", "--grid-hi", hi,
                   "--grid-points", "3", "--out-dir", str(tmp_path)) == 3, mu1
        captured = capsys.readouterr()
        assert "density solve failed at 2 of 3 points" in captured.err
        # failed points have no density, so no integral is printed
        assert "integral=" not in captured.out
        assert "failed=2 " in captured.out


def test_worker_eigensolver_error_exit_3(tmp_path, monkeypatch, capsys):
    # an eigensolver failure raised in a pool worker reaches the command
    # with its type, so the command still exits 3
    monkeypatch.setattr(hz, "_pool_size", lambda n_tasks, n: 2)
    bad = np.full((3, 3), np.nan)

    def failing_experiment(cfg):
        return hz._map(rmt.descending_eigenvalues, [(bad, 7), (bad, 7)], 3)

    monkeypatch.setattr(cli.hz, "run_tw_experiment", failing_experiment)
    assert run("verify-tw", "--n", "20", "--n-samples", "2",
               "--out-dir", str(tmp_path)) == 3
    assert "eigensolver failure for seed 7" in capsys.readouterr().err


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


def test_convolve_writes_density_before_edge_failure(tmp_path, capsys):
    # the uniform law shifted by a point mass has a jump, not a square-root
    # upper edge: the edge search fails, but only after the density is written
    assert run("convolve", "--mu1", "uniform:-1,1", "--mu2", "point_mass:0.7",
               "--out-dir", str(tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: Measure(uniform(-1.0, 1.0)) "
                            "has no square-root upper edge\n")
    assert not (tmp_path / "edge.json").exists()
    lines = (tmp_path / "density.csv").read_text().strip().split("\n")
    assert lines[0] == "x,density" and len(lines) == 401
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(data))
    # the trapezoid rule errs by about a grid step times the jump, 2.5e-3
    assert abs(np.trapezoid(data[:, 1], data[:, 0]) - 1.0) < 5e-3


def test_parser_shared_across_calls(tmp_path):
    # the parser is built once per process; no flag of one call leaks into
    # the next, which reads its defaults: 400 points at t = 0
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("convolve", "--mu1", "uniform:-1,1", "--mu2", "uniform:-1,1",
               "--grid-points", "50", "--t", "0.5", "--out-dir", str(first)) == 0
    assert run("convolve", "--mu1", "uniform:-1,1", "--mu2", "uniform:-1,1",
               "--out-dir", str(second)) == 0
    for out, rows in ((first, 50), (second, 400)):
        assert len((out / "density.csv").read_text().strip().split("\n")) == rows + 1
    rec = json.loads((second / "edge.json").read_text())
    assert abs(rec["e_plus"] - 1.5429018527568684) < 1e-6


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
