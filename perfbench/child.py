"""One fedcl workload process, started fresh by run.py for every repetition.

Set-up is everything from process start (the spawn time run.py passes in)
to the dataset being ready: imports, ``config.parse_config`` and
``data.synthetic_generate`` or ``data.load_csv``. The timed section is
``store.run_suite`` plus ``store.emit_table``, as ``fedcl run`` and
``fedcl table`` do. In ``timed`` mode a host-speed probe (probe.py) runs
beside it on the same thread; its time is taken out of ``raw_wall_s`` and
its slowdown is reported. The process then checks its own outputs and
prints one JSON line.

    python3 perfbench/child.py --src SRC --config INI --out DIR --spawn T \
        [--data-seed N] [--mode timed|traced|setup]

``traced`` installs the tracer for set-up and the timed section, removes it,
and re-runs every experiment untraced through ``store.execute_experiment``
to compare SHA-256 digests of ``final_params``.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

import probe

RUN_FILES = ("config.json", "rounds.csv", "report.json")


def _digest(params) -> str:
    return hashlib.sha256(params.tobytes()).hexdigest()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (Linux
    reports ru_maxrss in KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _check_runs(suite, out_dir: str) -> tuple[list[str], list[float]]:
    """Problems with the run directories, and each run's final avg_mse."""
    problems, final_mse = [], []
    for spec in suite.experiments:
        run_dir = os.path.join(out_dir, spec.run_id())
        missing = [f for f in RUN_FILES if not os.path.isfile(os.path.join(run_dir, f))]
        if missing:
            problems.append(f"run {spec.run_id()}: missing {', '.join(missing)}")
            continue
        with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
            mse = json.load(fh)["final"]["avg_mse"]
        if not (isinstance(mse, float) and math.isfinite(mse)):
            problems.append(f"run {spec.run_id()}: final avg_mse {mse!r} is not finite")
        final_mse.append(mse)
    return problems, final_mse


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--mode", choices=("timed", "traced", "setup"), default="timed")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from fedcl import config, data, store

    tracer, traced_digests = None, {}
    if args.mode == "traced":
        import tracing

        def record_digest(call_args, call_kwargs, result):
            traced_digests[call_args[0].run_id()] = _digest(result.final_params)

        tracer = tracing.Tracer(hooks={"store.execute_experiment": record_digest})
        tracer.install()

    suite = config.parse_config(args.config)
    if suite.suite.dataset == "synthetic":
        dataset, _ = data.synthetic_generate(suite.suite.synthetic_n, seed=args.data_seed,
                                             noise_std=suite.suite.synthetic_noise)
    else:
        dataset = data.load_csv(suite.suite.dataset)
    ready = time.monotonic()
    report = {"raw_setup_s": ready - args.spawn}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    host = probe.HostProbe() if args.mode == "timed" else None
    if host is not None:
        host.start()
    t0 = time.perf_counter()
    results, failures = store.run_suite(suite, dataset, args.out)
    table = store.emit_table(results)
    report["raw_wall_s"] = time.perf_counter() - t0
    if host is not None:
        host.stop()
        report["raw_wall_s"] -= host.total_s()
        report.update(host_slowdown=host.slowdown(), probes=len(host.samples))

    problems, final_mse = _check_runs(suite, args.out)
    problems += [f"run {run_id} failed: {message}" for run_id, message in failures]
    if not table.startswith("## "):
        problems.append("emit_table produced no table")
    report.update(peak_rss_mb=_peak_rss_mb(), attempted=len(suite.experiments),
                  failed=len(failures), final_mse=final_mse)

    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(os.path.join(args.out, "spans.tsv"))
        report["layers"] = tracer.summary()
        for spec in suite.experiments:
            untraced = _digest(store.execute_experiment(spec, dataset).final_params)
            if traced_digests.get(spec.run_id()) != untraced:
                problems.append(f"run {spec.run_id()}: traced final_params digest "
                                f"{traced_digests.get(spec.run_id())} != untraced {untraced}")
    else:
        import tracing
        report["wrappers"] = tracing.find_wrappers()
        problems += [f"tracing wrapper installed in untraced run: {name}"
                     for name in report["wrappers"]]
    report["problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
