"""freeconv benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the repository root (or any checkout holding `src/freeconv`).  The
load is closed-loop: one process, one call at a time, `workers=1`, BLAS at its
default thread count.  A run lasts `run_seconds` of BENCHMARK.json.  It
repeats the workload's pass with the same seed while another pass fits in
the run, and checks every pass's outputs.  Between passes it times
`SETUP_LAUNCHES` fresh interpreters in all that import freeconv and build the
workload's inputs (`setup_s`, the median).  `--seconds` is accepted because
benchmark harnesses pass it; it must equal `run_seconds`.

With `--trace 0` the last line reports the end-to-end metrics: median pass
`wall_s` and `cpu_s` (user + system, all threads), `setup_s` and the process's
`peak_rss_mb`.  With `--trace 1` each untraced pass is followed by a traced
one and the last line reports the per-layer metrics (medians over traced
passes) plus `trace.overhead_s`.  `failed_frac` is `failed / attempted` of the
last line, printed by name above it with the environment block and the
determinism record.  `--workload all` runs every workload in its own process.
Emitted files, spans and records go to `.perfbench_out/` in the checkout.
Exits 2 without a result when the checkout holds no `src/freeconv`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_LAUNCHES = 20
EMITTED = ("report.json", "samples.csv", "density.csv", "edge.json")


def _parse_args(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        p.error("--seconds must equal run_seconds of BENCHMARK.json (%d)" % spec["run_seconds"])
    args.run_seconds = spec["run_seconds"]
    args.names = names
    args.units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    args.metric_names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    return args


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
        "seed": seed,
    }


def launch_setup(name, seed, times, count):
    """Time fresh interpreters importing freeconv and building inputs until
    `times` holds `count` launches."""
    while len(times) < count:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)


def _digests(out_dir):
    found = {}
    for base, _, files in os.walk(out_dir):
        for f in files:
            if f in EMITTED:
                path = os.path.join(base, f)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def one_pass(wl, seed, out_dir, tracer=None):
    """Run the timed pass, then check its outputs: (wall, cpu, Tally, digests)."""
    import workloads
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    hold = contextlib.nullcontext() if tracer is None else tracer.installed()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with hold, contextlib.redirect_stdout(io.StringIO()):
            outcome = wl.run(wl, seed, out_dir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome = None
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if outcome is None:
        tally = workloads.Tally()
        tally.check("pass raised an exception", False)
    else:
        tally = wl.check(wl, seed, out_dir, outcome)
    return wall, cpu, tally, _digests(out_dir)


def source_digest():
    """sha256 over the freeconv sources, so that only runs of the same code are compared."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "freeconv")
    for base, dirs, files in os.walk(pkg):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def determinism_record(wl, seed, passes, env):
    """Compare emitted-file digests across this run's passes and with an earlier
    run of the same code, workload, seed and settings in this checkout."""
    digests = [p[3] for p in passes]
    key = "%s n_samples=%d seed=%d blas_threads=%s src=%s" % (
        wl.name, wl.n_samples, seed, env["blas_threads"], source_digest())
    path = os.path.join(OUT, "determinism.json")
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {}
    earlier = stored.get(key)
    stored.setdefault(key, digests[0])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    return {
        "key": key,
        "passes": len(digests),
        "passes_identical": all(d == digests[0] for d in digests),
        "matches_earlier_run": None if earlier is None else earlier == digests[0],
        "sha256": digests[0],
    }


def run_workload(args):
    name, seed = args.workload, args.seed
    start = time.perf_counter()
    # Set-up launches are spread over the run: host speed shifts within
    # seconds, and a burst at the start would time one such phase only.
    setup = []
    launch_setup(name, seed, setup, SETUP_LAUNCHES // 3)
    import workloads
    import tracing
    wl = workloads.WORKLOADS[name]
    env = environment(seed)
    out_dir = os.path.join(OUT, name)
    passes, traced, layer = [], [], []
    while True:
        passes.append(one_pass(wl, seed, out_dir))
        if args.trace:
            tracer = tracing.Tracer()
            traced.append(one_pass(wl, seed, out_dir, tracer))
            spans = tracer.span_records()
            metrics = tracer.metrics()
            metrics["trace.overhead_s"] = traced[-1][0] - passes[-1][0]
            layer.append(metrics)
        elapsed = time.perf_counter() - start
        launch_setup(name, seed, setup,
                     min(SETUP_LAUNCHES, int(SETUP_LAUNCHES * elapsed / args.run_seconds)))
        round_s = sum(p[0] for p in passes + traced) / len(passes)
        left_s = (SETUP_LAUNCHES - len(setup)) * statistics.mean(setup)
        if time.perf_counter() - start + round_s + left_s > args.run_seconds:
            break
    launch_setup(name, seed, setup, SETUP_LAUNCHES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    every = passes + traced
    attempted = sum(p[2].attempted for p in every)
    failed = sum(p[2].failed for p in every)
    if args.trace:
        metrics = tracing.median_metrics(layer)
        with open(os.path.join(OUT, name + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "spans": spans}, fh)
    else:
        metrics = {
            "wall_s": statistics.median(p[0] for p in passes),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p[1] for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
    record = determinism_record(wl, seed, every, env)
    for failure in sorted({f for p in every for f in p[2].failures}):
        print("%s FAILED CHECK: %s" % (name, failure))
    print("%s env %s" % (name, json.dumps(env, sort_keys=True)))
    print("%s determinism %s" % (name, json.dumps(record, sort_keys=True)))
    if not record["passes_identical"] or record["matches_earlier_run"] is False:
        print("%s DETERMINISM: emitted files differ at the same seed and settings" % name)
    print("%s passes=%d pass wall_s: %s" % (name, len(passes),
                                           " ".join("%.3f" % p[0] for p in passes)))
    print("%s setup launches=%d s: %s" % (name, len(setup), " ".join("%.3f" % t for t in setup)))
    for key in args.metric_names:
        print("%s %s = %.6g %s" % (name, key, metrics[key], args.units[key]))
    print("%s failed_frac = %.6g fraction (%d of %d operations failed)"
          % (name, failed / attempted, failed, attempted))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": args.units[k]} for k in args.metric_names},
    }


def run_all(args):
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in args.names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit("workload %s exited %d" % (name, proc.returncode))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = value
    return merged


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "freeconv", "__init__.py")):
        print("perfbench: no freeconv sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    args = _parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
