"""fedcl benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload fl_grid|fcl_grid|central_csv \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program under test is the fedcl source tree in
``src/`` next to this directory. Every repetition is a fresh Python process
(perfbench/child.py). Within about ``--seconds`` the benchmark repeats the
workload untraced, then makes one traced repetition. Every invocation does
both and checks the outputs of all of them; ``--trace`` only picks what the
last line reports: 0 the end-to-end metrics, 1 the per-layer metrics. The
timings ``setup_s`` and ``wall_s`` are scaled to a reference host speed that
a probe measures inside each untraced process (perfbench/probe.py). The
workload seed generates the synthetic dataset and the central_csv file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything a run
writes goes to ``.perfbench_runs/<workload>/`` in the checkout, including
``result.json`` with every sample, the machine record and all metrics.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# The workloads are single-process and single-threaded. A second BLAS thread
# only adds contention for the other core, so this process and every child
# it starts use one. Set before numpy loads, so the machine record shows it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

DEFAULT_SEED = 0
DEFAULT_SECONDS = 40
MIN_REPS = 5
TRACED_REPS = 2.5  # the traced process costs about this many timed repetitions
DEADLINE_S = 170.0

_GRID_EXPERIMENT = """\
[experiment]
rounds = 10
batch_size = 32
seed = 42
"""

WORKLOADS = {
    "fl_grid": _GRID_EXPERIMENT + """
[sweep]
strategies = fedavg, fedbn, fedprox, fedopt, feddistill
clients = 2, 10
augmentation = false, true

[suite]
synthetic_n = 1000
""",
    "fcl_grid": _GRID_EXPERIMENT + """
[sweep]
cl_methods = ewc, ewc_online, si, mas, nr
clients = 2, 10
augmentation = false, true

[suite]
synthetic_n = 1000
""",
    "central_csv": """\
[experiment]
clients = 1
rounds = 20
batch_size = 32
learning_rate = 0.001
strategy = fedavg
seed = 42

[suite]
dataset = {csv}
""",
}

CSV_ROWS = 20000
LABEL_COLUMNS = ["label_vacuuming", "label_mopping", "label_carry_warm_food",
                 "label_carry_cold_food", "label_carry_big_objects",
                 "label_carry_small_objects", "label_carry_drinks", "label_clean_or_converse"]
FEATURE_COLUMNS = ["f_within_circle"] + [f"f_feat{i:02d}" for i in range(1, 29)]

# one sample per timed process; the run reports the median of each
SAMPLED = {"raw_setup_s": "s", "raw_wall_s": "s", "host_slowdown": "x",
           "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "completed_run_ratio": "ratio",
    "final_mse": "mse",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({"nn.backward.train_rows": "rows", "data.load_csv.rows": "rows",
                  "store.ResultsStore.write_run.bytes": "bytes", "trace.overhead_ratio": "ratio"})
    return units


def write_csv(path: str, seed: int, n: int = CSV_ROWS) -> None:
    """A dataset file in fedcl's CSV schema from a seeded random affine map,
    written with the benchmark's own generator so inputs do not depend on
    the program under test."""
    rng = np.random.default_rng([seed, 1729])
    features = rng.uniform(0.0, 1.0, size=(n, len(FEATURE_COLUMNS)))
    features[:, 0] = rng.integers(0, 2, size=n)
    weights = rng.uniform(-0.1, 0.1, size=(len(FEATURE_COLUMNS), len(LABEL_COLUMNS)))
    bias = 3.0 + rng.uniform(-0.2, 0.2, size=len(LABEL_COLUMNS))
    labels = np.clip(features @ weights + bias + rng.normal(0.0, 0.1, size=(n, len(LABEL_COLUMNS))),
                     1.0, 5.0)
    np.savetxt(path, np.hstack([features, labels]), fmt="%.17g", delimiter=",",
               header=",".join(FEATURE_COLUMNS + LABEL_COLUMNS), comments="")


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name", "unknown"), version=dep.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": _blas()}


def prepare(workload: str, seed: int, work: str) -> str:
    """Write the workload's inputs into ``work``; returns the config path."""
    config_text = WORKLOADS[workload]
    if "{csv}" in config_text:
        csv_path = os.path.join(work, "data.csv")
        write_csv(csv_path, seed)
        config_text = config_text.format(csv=csv_path)
    config = os.path.join(work, "workload.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    return config


class Runner:
    """Spawns child processes one at a time within an overall deadline."""

    def __init__(self, config: str, data_seed: int, work: str):
        self.config, self.data_seed, self.work = config, data_seed, work
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str, out: str) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
               "--config", self.config, "--out", out, "--data-seed", str(self.data_seed),
               "--mode", mode]
        spawn = time.monotonic()
        proc = subprocess.run(cmd + ["--spawn", repr(spawn)], capture_output=True, text=True,
                              timeout=remaining, cwd=self.work)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed for the generated data (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long to repeat the untraced workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fedcl", "__init__.py")):
        print(f"fedcl sources not found under {SRC}", file=sys.stderr)
        return 2
    machine = machine_record()
    if machine["blas"]["threads"] is not None and machine["blas"]["threads"] > machine["nproc"]:
        print(f"BLAS uses {machine['blas']['threads']} threads on {machine['nproc']} cores",
              file=sys.stderr)
        return 2

    work = os.path.join(RUNS, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = prepare(args.workload, args.seed, work)
    # build: byte-compile the sources, then one set-up to warm the file cache
    compileall.compile_dir(SRC, quiet=1)
    runner = Runner(config, args.seed, work)
    try:
        runner.spawn("setup", os.path.join(work, "warmup"))
        # repeat until the next repetition and the traced one would overrun --seconds
        timed, rep_s = [], []
        began = time.monotonic()
        while True:
            rep_start = time.monotonic()
            timed.append(runner.spawn("timed", os.path.join(work, "rep")))
            rep_s.append(time.monotonic() - rep_start)
            ahead = (1 + TRACED_REPS) * statistics.median(rep_s)
            if len(timed) >= MIN_REPS and time.monotonic() - began + ahead > args.seconds:
                break
        traced = runner.spawn("traced", os.path.join(work, "traced"))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    problems = [p for rep in timed + [traced] for p in rep["problems"]]
    if any(rep["final_mse"] != traced["final_mse"] for rep in timed):
        problems.append("final avg_mse differs between repetitions")
    attempted = sum(rep["attempted"] for rep in timed + [traced])
    failed = sum(rep["failed"] for rep in timed + [traced])

    # timings in seconds at the probe's reference host speed (probe.py)
    for rep in timed:
        rep["setup_s"] = rep["raw_setup_s"] / rep["host_slowdown"]
        rep["wall_s"] = rep["raw_wall_s"] / rep["host_slowdown"]
    medians = {name: statistics.median(rep[name] for rep in timed) for name in SAMPLED}
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["raw_wall_s"] / medians["raw_wall_s"]
    end_to_end = {name: medians[name] for name in ("setup_s", "wall_s", "peak_rss_mb")}
    end_to_end.update({
        "train_samples_per_s": layers["nn.backward.train_rows"] / end_to_end["wall_s"],
        "completed_run_ratio": (attempted - failed) / attempted,
        "final_mse": statistics.fmean(traced["final_mse"]) if traced["final_mse"] else float("nan"),
    })

    print(f"workload {args.workload}, seed {args.seed}: {len(timed)} timed processes "
          f"+ 1 traced, {attempted} experiments, {failed} failed")
    print("machine " + json.dumps(machine))
    for name, unit in SAMPLED.items():
        samples = sorted(rep[name] for rep in timed)
        print(f"  {name:<22} {medians[name]:.6g} {unit} (median of {len(samples)} processes; "
              f"min {samples[0]:.6g}, max {samples[-1]:.6g})")
    for name in ("train_samples_per_s", "completed_run_ratio", "final_mse"):
        print(f"  {name:<22} {end_to_end[name]:.6g} {END_TO_END_UNITS[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": machine, "end_to_end": end_to_end, "per_layer": layers,
                   "timed": [{k: rep[k] for k in [*SAMPLED, "probes"]} for rep in timed],
                   "traced_raw_wall_s": traced["raw_wall_s"], "problems": problems}, fh, indent=1)

    units = END_TO_END_UNITS if args.trace == 0 else per_layer_units()
    values = end_to_end if args.trace == 0 else layers
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
