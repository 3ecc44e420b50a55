"""Command-line benchmark harness.

Subcommands:
    run     execute a benchmark suite from a config file
    table   emit a Loss/RMSE/PCC comparison table from stored results
    verify  re-run stored experiments and check bit-identical metrics
    synth   generate a synthetic dataset CSV

Exit codes: 0 success, 1 any experiment failed, verification violated or
an output that cannot be written, 2 invalid configuration or options, or a
dataset that cannot be read. Only the output directory may come from the
environment (FEDCL_OUT); everything science-relevant lives in the config.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import data as dataio
from .config import ConfigError, parse_config
from .store import ResultsStore, emit_table, run_suite, verify_store


def _resolve_out(args) -> str:
    return args.out or os.environ.get("FEDCL_OUT") or "results"


def _load_dataset(suite_spec, data_override: str | None) -> dataio.Dataset | None:
    """The dataset of ``--data``, else of the config's suite (``suite_spec``
    may be None when ``--data`` is given); ``None``, with the reason on
    stderr, when the file cannot be read."""
    source = data_override or suite_spec.dataset
    if source == "synthetic" and suite_spec is not None:
        ds, _ = dataio.synthetic_generate(suite_spec.synthetic_n, seed=0,
                                          noise_std=suite_spec.synthetic_noise)
        return ds
    try:
        return dataio.load_csv(source)
    except (dataio.DataError, OSError) as exc:
        print(f"invalid dataset: {exc}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    try:
        suite = parse_config(args.config, seed=args.seed)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    dataset = _load_dataset(suite.suite, args.data)
    if dataset is None:
        return 2
    out_dir = _resolve_out(args)
    store, failures = run_suite(suite, dataset, out_dir)
    print(f"{len(suite.experiments) - len(failures)} run(s) completed, "
          f"{len(failures)} failed, results in {out_dir}")
    for run_id, message in failures:
        print(f"FAILED {run_id}: {message}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_table(args) -> int:
    store = ResultsStore(_resolve_out(args))
    try:
        document = emit_table(store, args.format)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(document, end="")
    return 0


def _cmd_verify(args) -> int:
    try:
        suite = parse_config(args.config) if args.config else None
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    store = ResultsStore(_resolve_out(args))
    try:
        records = store.list_runs()
    except ValueError as exc:  # a missing directory or an IncompleteRunError
        print(str(exc), file=sys.stderr)
        return 1
    if not records:
        print("results store is empty", file=sys.stderr)
        return 1
    if suite is None and not args.data:
        print("verify needs --config or --data to rebuild the dataset", file=sys.stderr)
        return 2
    dataset = _load_dataset(suite.suite if suite else None, args.data)
    if dataset is None:
        return 2
    violations = verify_store(store, dataset)
    if violations:
        for run_id, message in violations:
            print(f"REPRODUCIBILITY VIOLATION {run_id}: {message}", file=sys.stderr)
        return 1
    print(f"{len(records)} run(s) verified bit-identical")
    return 0


def _cmd_synth(args) -> int:
    try:
        ds, _ = dataio.synthetic_generate(args.n, seed=args.seed, noise_std=args.noise_std)
        dataio.save_csv(ds, args.out)
    except ValueError as exc:
        print(f"invalid synth option: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedcl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark suite")
    p_run.add_argument("--config", required=True, help="benchmark config file")
    p_run.add_argument("--data", help="dataset CSV (overrides the config's dataset path)")
    p_run.add_argument("--out", help="results directory (or FEDCL_OUT)")
    p_run.add_argument("--seed", type=int, help="override every experiment's seed")
    p_run.set_defaults(func=_cmd_run)

    p_table = sub.add_parser("table", help="emit a comparison table")
    p_table.add_argument("--out", help="results directory (or FEDCL_OUT)")
    p_table.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="re-run stored experiments and compare")
    p_verify.add_argument("--config", help="config file naming the dataset source")
    p_verify.add_argument("--data", help="dataset CSV")
    p_verify.add_argument("--out", help="results directory (or FEDCL_OUT)")
    p_verify.set_defaults(func=_cmd_verify)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--n", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise-std", type=float, default=0.1)
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
