"""Command-line front end: config resolution, orchestration, exit codes.

Each command merges three layers (built-in defaults, an optional flat-key
JSON config file, explicit flags) and validates the result against the keys
its row of _COMMANDS lists before anything runs.  A verify command's
experiment settings (ks_threshold, chi, eta_exponent, sizes, top_k >= 1,
rigidity_limit > 0) are checked by harness.ExperimentConfig, built before
any solve; a value it rejects is a config error too.  Files are written by
harness.write_json and harness.write_csv, with deterministic bytes, so
reruns under a fixed seed overwrite identically.
Exit codes: 0 pass, 1 statistical fail, 2 config error, 3 numerical failure.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import edge as eg
from . import harness as hz
from . import measure as ms
from . import rmt
from . import subordination as sub
from . import tracywidom as tw

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Unknown key, wrong type, or out-of-range configuration value."""


def _cast_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (key, value))
    return value


def _cast_float(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s must be a number, got %r" % (key, value))
    if not math.isfinite(value):
        raise ConfigError("%s must be finite, got %r" % (key, value))
    return float(value)


def _cast_str(key, value):
    if not isinstance(value, str):
        raise ConfigError("%s must be a string, got %r" % (key, value))
    return value


def _cast_sizes(key, value):
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
        try:
            value = [int(part) for part in value]
        except ValueError:
            raise ConfigError("%s must be a comma-separated integer list" % key)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError("%s must be a non-empty list of integers" % key)
    return tuple(_cast_int(key, v) for v in value)


# key -> (caster, help line for --help)
_KEY_SPECS = {
    "mu1": (_cast_str, "first measure as '<tag>:<params>', e.g. semicircle:1 or uniform:-1,1"),
    "mu2": (_cast_str, "second measure, same format (atoms alternate location,weight)"),
    "t": (_cast_float, "semicircular time added to the free convolution, >= 0"),
    "n": (_cast_int, "matrix size"),
    "n_samples": (_cast_int, "Monte Carlo sample count (pairs for verify-dbm, decompose-check)"),
    "seed": (_cast_int, "master seed; every stream derives from (seed, sample index)"),
    "ks_threshold": (_cast_float, "decision threshold for the verify commands, in (0, 1)"),
    "eta_exponent": (_cast_float, "probe height exponent: eta = N^(-eta_exponent)"),
    "chi": (_cast_float, "flow exponent offset for verify-dbm: t0 = N^(-1/3 + chi)"),
    "sizes": (_cast_sizes, "matrix sizes for verify-local-law, at least three, increasing"),
    "top_k": (_cast_int, "eigenvalue count scored by verify-rigidity"),
    "rigidity_limit": (_cast_float, "bound on the 95th-percentile rigidity statistic"),
    "out_dir": (_cast_str, "directory receiving the output files"),
    "grid_lo": (_cast_float, "left end of the density grid (default: support bound)"),
    "grid_hi": (_cast_float, "right end of the density grid (default: support bound)"),
    "grid_points": (_cast_int, "density grid size"),
    "s_lo": (_cast_float, "left end of the tabulated argument range"),
    "s_hi": (_cast_float, "right end of the tabulated argument range"),
    "s_points": (_cast_int, "tabulation grid size"),
    "tol": (_cast_float, "identity tolerance for decompose-check"),
}

_COMMON_DEFAULTS = {"t": 0.0, "seed": 1, "out_dir": "."}

# A ConfigError raised while a command runs is caught before these, and
# _experiment_config turns the config's ValueError into one, so a ValueError
# that gets here came from a solver.
_NUMERICAL_ERRORS = (ValueError, sub.NonConvergenceError, sub.DomainError,
                     eg.BracketNotFound, eg.FitUnstable,
                     rmt.EigensolverError, rmt.DegenerateError,
                     np.linalg.LinAlgError, FloatingPointError)


def parse_measure(key, spec):
    """'<tag>:<p1,p2,...>' -> Measure; atoms alternate location,weight."""
    tag, _, rest = spec.partition(":")
    tag = tag.strip()
    try:
        params = [float(part) for part in rest.split(",") if part.strip()]
    except ValueError:
        raise ConfigError("%s: non-numeric parameter in %r" % (key, spec))
    if tag == "atoms":
        if len(params) < 2 or len(params) % 2:
            raise ConfigError("%s: atoms need location,weight pairs" % key)
        params = [params[0::2], params[1::2]]
    try:
        return ms.from_config(tag, params)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (key, exc))


def resolve_config(command, args):
    """Merge defaults, config file, and flags; validate against the schema."""
    _, allowed, defaults = _COMMANDS[command]
    merged = {k: _COMMON_DEFAULTS[k] for k in allowed if k in _COMMON_DEFAULTS}
    merged.update(defaults)

    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config file: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config file is not valid JSON: %s" % exc)
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a flat JSON object")
        file_command = raw.pop("command", None)
        if file_command is not None and file_command != command:
            raise ConfigError("config file is for command %r, invoked %r"
                              % (file_command, command))
        unknown = sorted(set(raw) - set(allowed))
        if unknown:
            raise ConfigError("unknown config keys for %s: %s"
                              % (command, ", ".join(unknown)))
        for key, value in raw.items():
            merged[key] = _KEY_SPECS[key][0](key, value)

    for key in allowed:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = _KEY_SPECS[key][0](key, value)

    optional = {"grid_lo", "grid_hi"}
    missing = sorted(set(allowed) - set(merged) - optional)
    if missing:
        raise ConfigError("missing required keys for %s: %s"
                          % (command, ", ".join(missing)))

    if "t" in merged and merged["t"] < 0:
        raise ConfigError("t must be >= 0")
    if "seed" in merged and not rmt.SEED_LO <= merged["seed"] < rmt.SEED_HI:
        raise ConfigError("seed must lie in [-2^63, 2^63)")
    for key in ("n", "n_samples"):
        if key in merged and merged[key] < 1:
            raise ConfigError("%s must be >= 1" % key)
    for key in ("grid_points", "s_points"):
        if key in merged and merged[key] < 2:
            raise ConfigError("%s must be >= 2" % key)
    if "tol" in merged and merged["tol"] <= 0:
        raise ConfigError("tol must be > 0")
    if "s_lo" in merged and merged["s_lo"] >= merged["s_hi"]:
        raise ConfigError("s_lo must be < s_hi")
    # not in ExperimentConfig: the TW and DBM experiments keep top_k = 100 at small n
    if "top_k" in merged and merged["top_k"] > merged["n"]:
        raise ConfigError("top_k must be <= n")
    return merged


def _out_path(cfg, name):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return os.path.join(cfg["out_dir"], name)


def _embedded_spec(cfg):
    mu1 = parse_measure("mu1", cfg["mu1"])
    mu2 = parse_measure("mu2", cfg["mu2"])
    # a local-law run draws at its largest size: check its sizes before that
    n = max(hz.check_sizes(cfg["sizes"])) if "sizes" in cfg else cfg["n"]
    spec = rmt.EnsembleSpec(n, ms.quantiles(mu1, n), ms.quantiles(mu2, n),
                            cfg["t"], cfg["seed"])
    return mu1, mu2, spec


def _experiment_config(cfg):
    # ExperimentConfig checks the experiment settings: what it rejects is a config error
    try:
        mu1, mu2, spec = _embedded_spec(cfg)
        kwargs = dict(ensemble=spec, n_samples=cfg["n_samples"], mu1=mu1, mu2=mu2,
                      t=cfg["t"])
        for key in ("ks_threshold", "eta_exponent", "chi", "sizes", "top_k",
                    "rigidity_limit"):
            if key in cfg:
                kwargs[key] = cfg[key]
        return hz.ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _finish_verify(command, cfg, report):
    hz.write_report(report, json_path=_out_path(cfg, "report.json"),
                    csv_path=_out_path(cfg, "samples.csv"))
    verdict = "PASS" if report.passed else "FAIL"
    print("%s: %s statistic=%.6g threshold=%.6g n_samples=%d"
          % (command, verdict, report.ks_statistic, report.threshold,
             report.n_samples))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_edge(cfg):
    mu1 = parse_measure("mu1", cfg["mu1"])
    mu2 = parse_measure("mu2", cfg["mu2"])
    rep = eg.find_edge_stability(mu1, mu2, cfg["t"])
    hz.write_json(_out_path(cfg, "edge.json"), dataclasses.asdict(rep))
    print("edge: e_plus=%.10g gamma=%.10g method=%s residual=%.3g"
          % (rep.e_plus, rep.gamma, rep.method, rep.residual))
    return EXIT_PASS


def cmd_convolve(cfg):
    mu1 = parse_measure("mu1", cfg["mu1"])
    mu2 = parse_measure("mu2", cfg["mu2"])
    t = cfg["t"]
    pad = 2.0 * math.sqrt(t) + 0.25
    lo = cfg.get("grid_lo", mu1.lower + mu2.lower - pad)
    hi = cfg.get("grid_hi", mu1.upper + mu2.upper + pad)
    if hi <= lo:
        raise ConfigError("grid_lo must be < grid_hi")
    grid = np.linspace(lo, hi, cfg["grid_points"])
    rho, resid, iters = sub.density_sweep(mu1, mu2, t, grid)
    failed = int(np.sum(~np.isfinite(rho)))
    # a failed point has no density, so with one the integral means nothing
    integral = "" if failed else " integral=%.6f" % float(np.trapezoid(rho, grid))
    hz.write_csv(_out_path(cfg, "density.csv"), ("x", "density"),
                 [(float(x), float(r)) for x, r in zip(grid, rho)])
    # after the density is written: a pair without a square-root edge still
    # leaves its density.csv when the edge search fails
    rep = eg.find_edge_stability(mu1, mu2, t)
    hz.write_json(_out_path(cfg, "edge.json"), dataclasses.asdict(rep))
    print("convolve: e_plus=%.10g%s grid=%d failed=%d "
          "iterations=%d max_residual=%.3e"
          % (rep.e_plus, integral, len(grid), failed, int(iters.sum()),
             float(resid.max())))
    if failed:
        print("density solve failed at %d of %d points" % (failed, len(grid)),
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_PASS


def cmd_tabulate_tw(cfg):
    grid = np.linspace(cfg["s_lo"], cfg["s_hi"], cfg["s_points"])
    rows = [(float(s), float(f)) for s, f in zip(grid, tw.tw2_cdf(tw.TWEvaluator(), grid))]
    hz.write_csv(_out_path(cfg, "tw_cdf.csv"), ("s", "F2"), rows)
    print("tabulate-tw: %d points on [%g, %g]"
          % (len(rows), cfg["s_lo"], cfg["s_hi"]))
    return EXIT_PASS


def cmd_sample(cfg):
    _, _, spec = _embedded_spec(cfg)
    h = rmt.sample_matrix(spec, rmt.sample_stream(spec.seed, 0))[0]
    lam = rmt.descending_eigenvalues(h, spec.seed)
    rows = [(k, float(v)) for k, v in enumerate(lam)]
    hz.write_csv(_out_path(cfg, "spectrum.csv"), ("index", "eigenvalue"), rows)
    print("sample: n=%d t=%g lambda_max=%.10g" % (spec.n, spec.t, lam[0]))
    return EXIT_PASS


def cmd_verify_tw(cfg):
    report = hz.run_tw_experiment(_experiment_config(cfg))
    return _finish_verify("verify-tw", cfg, report)


def cmd_verify_local_law(cfg):
    report = hz.run_local_law_experiment(_experiment_config(cfg))
    medians = " ".join("%.6g" % m for m in report.stats["entry_medians"])
    print("entry medians per size: %s" % medians)
    return _finish_verify("verify-local-law", cfg, report)


def cmd_verify_rigidity(cfg):
    report = hz.run_rigidity_experiment(_experiment_config(cfg))
    return _finish_verify("verify-rigidity", cfg, report)


def cmd_verify_dbm(cfg):
    report = hz.run_dbm_comparison(_experiment_config(cfg))
    return _finish_verify("verify-dbm", cfg, report)


def cmd_decompose_check(cfg):
    n, pairs, tol = cfg["n"], cfg["n_samples"], cfg["tol"]
    eye = np.eye(n)
    worst = {"unit_norm": 0.0, "involution": 0.0, "reconstruction": 0.0,
             "length_formula": 0.0}
    for k in range(pairs):
        rng = rmt.sample_stream(cfg["seed"], k)
        u = rmt.sample_haar_unitary(n, rng)
        index = int(rng.integers(n))
        parts = rmt.partial_decomposition(u, index)
        reflect = eye - np.outer(parts.r_vec, np.conj(parts.r_vec))
        rebuilt = -np.exp(1j * parts.theta) * (reflect @ parts.u_reduced)
        worst["unit_norm"] = max(worst["unit_norm"],
                                 float(abs(np.linalg.norm(parts.h_vec) - 1.0)))
        worst["involution"] = max(worst["involution"],
                                  float(np.max(np.abs(reflect @ reflect - eye))))
        worst["reconstruction"] = max(worst["reconstruction"],
                                      float(np.max(np.abs(rebuilt - u))))
        worst["length_formula"] = max(
            worst["length_formula"],
            float(abs(parts.ell
                      - 1.0 / math.sqrt(1.0 + parts.h_vec[parts.index].real))))
    max_residual = max(worst.values())
    passed = bool(max_residual <= tol)
    hz.write_json(_out_path(cfg, "decomposition.json"),
                  {"n": n, "n_samples": pairs, "tol": tol,
                   "max_residual": max_residual, "residuals": worst,
                   "pass": passed})
    print("decompose-check: %s max_residual=%.3e tol=%.1e pairs=%d"
          % ("PASS" if passed else "FAIL", max_residual, tol, pairs))
    return EXIT_PASS if passed else EXIT_FAIL


# command -> (handler, keys in --help order, defaults).  Bare verify
# commands reproduce the reference experiments, so the GUE control and the
# uniform-by-uniform comparisons run with no flags at all.
_COMMANDS = {
    "convolve": (cmd_convolve,
                 ("mu1", "mu2", "t", "grid_lo", "grid_hi", "grid_points", "out_dir"),
                 {"grid_points": 400}),
    "edge": (cmd_edge, ("mu1", "mu2", "t", "out_dir"), {}),
    "tabulate-tw": (cmd_tabulate_tw, ("s_lo", "s_hi", "s_points", "out_dir"),
                    {"s_lo": -10.0, "s_hi": 5.0, "s_points": 151}),
    "sample": (cmd_sample, ("mu1", "mu2", "t", "n", "seed", "out_dir"), {"n": 400}),
    "verify-tw": (cmd_verify_tw,
                  ("mu1", "mu2", "t", "n", "n_samples", "seed", "ks_threshold", "out_dir"),
                  {"mu1": "point_mass:0", "mu2": "point_mass:0", "t": 1.0, "n": 400,
                   "n_samples": 2000, "ks_threshold": 0.05}),
    "verify-local-law": (cmd_verify_local_law,
                         ("mu1", "mu2", "t", "sizes", "n_samples", "seed", "ks_threshold",
                          "eta_exponent", "out_dir"),
                         {"mu1": "uniform:-1,1", "mu2": "uniform:-1,1",
                          "sizes": (250, 500, 1000), "n_samples": 20,
                          "eta_exponent": 0.6, "ks_threshold": 0.9}),
    "verify-rigidity": (cmd_verify_rigidity,
                        ("mu1", "mu2", "t", "n", "n_samples", "seed", "top_k",
                         "rigidity_limit", "out_dir"),
                        {"mu1": "point_mass:0", "mu2": "point_mass:0", "t": 1.0, "n": 1000,
                         "n_samples": 50, "top_k": 100, "rigidity_limit": 10.0}),
    "verify-dbm": (cmd_verify_dbm,
                   ("mu1", "mu2", "t", "n", "n_samples", "seed", "chi", "ks_threshold",
                    "out_dir"),
                   {"mu1": "uniform:-1,1", "mu2": "uniform:-1,1", "n": 300,
                    "n_samples": 1000, "chi": 0.1, "ks_threshold": 0.08}),
    "decompose-check": (cmd_decompose_check, ("n", "n_samples", "seed", "tol", "out_dir"),
                        {"n": 64, "n_samples": 50, "tol": 1e-10}),
}

COMMANDS = tuple(_COMMANDS)


def _key_reference():
    lines = ["config keys (flat JSON file via --config; flags override):"]
    for key, (_, text) in _KEY_SPECS.items():
        lines.append("  %-15s %s" % (key, text))
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process and shared by every `main`
    call: parsing leaves it unchanged, and callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="Free additive convolution, spectral edges, and "
                    "matrix-model verification experiments.",
        epilog=_key_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    flag_kind = {_cast_int: int, _cast_float: float, _cast_str: str,
                 _cast_sizes: str}
    for name, (_, keys, _) in _COMMANDS.items():
        p = subparsers.add_parser(name, help="run %s" % name,
                                  description="Keys: %s" % ", ".join(keys))
        p.add_argument("--config", help="flat-key JSON config file")
        for key in keys:
            caster, text = _KEY_SPECS[key]
            p.add_argument("--%s" % key.replace("_", "-"),
                           dest=key, type=flag_kind[caster], default=None,
                           help=text)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        cfg = resolve_config(command, args)
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[command][0](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
