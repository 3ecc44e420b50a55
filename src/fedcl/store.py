"""Result persistence and comparison-table emission.

Each run gets one directory named by its deterministic run-id containing a
config snapshot, a per-round CSV log, and the final report with the SHA-256
of the final parameters. Directories are plain files so results diff and
version cleanly. A run directory appears complete or not at all: it is
written under a temporary name and moved into place. A run that failed
leaves the traceback of its error in ``<run_id>.failed.txt`` instead, until
a later run of it succeeds.

``run_suite`` draws every experiment's outcome from one stream, which
trains the experiments of one shape (``orchestrator.group_key``, FL or FCL)
as one lockstep group, shape by shape, and stores each result on its own,
in suite order, as soon as it exists. ``orchestrator.group_outcomes``
decides how many of a shape's experiments train at once
(``orchestrator.GROUP_CLIENTS``), trains FCL's task 1, which a shape's
experiments share, once, as one lead that finishes it, and forks each
experiment from that lead, a copy that consolidates on its own, and
trains experiments of one ``orchestrator.trajectory_key`` once, a spec
listed twice included. An error that stops a whole shape is
each member's own copy, so each traceback reads as if it ran alone.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import os
import shutil
from collections.abc import Iterator
from dataclasses import dataclass

from . import __version__
from . import data as dataio
from .config import EXPERIMENT_SCHEMA, BenchmarkSuite, ExperimentSpec
from .orchestrator import RunResult, group_key, group_outcomes, own_copy


# the columns of rounds.csv that a re-run must reproduce exactly
_TRAJECTORY_KEYS = ("avg_mse", "avg_rmse", "avg_pcc", "mean_client_train_loss")
# the metrics of each report in report.json
_METRIC_KEYS = ("avg_mse", "avg_rmse", "avg_pcc")
# the seconds each round took, per phase, in rounds.csv
_TIME_KEYS = ("wall_time", "local_train_time", "consolidate_time", "aggregate_time",
              "evaluate_time")


@dataclass
class RunRecord:
    run_id: str
    values: dict                 # config snapshot
    rounds: list[dict]
    report: dict                 # {"final": {...}, "after_task": {"0": {...}, "1": {...}}}

    @property
    def is_fcl(self) -> bool:
        return ExperimentSpec(self.values).is_fcl


def _round_rows(result: RunResult) -> list[dict]:
    return [{"round": log.round_index, "task": log.task_index,
             **{key: repr(getattr(log.report, key)) for key in _METRIC_KEYS},
             "mean_client_train_loss": repr(sum(log.client_train_losses)
                                            / len(log.client_train_losses)),
             **{key: f"{getattr(log, key):.4f}" for key in _TIME_KEYS}}
            for log in result.round_logs]


def _params_sha256(result: RunResult) -> str:
    return hashlib.sha256(result.final_params.tobytes()).hexdigest()


def _build_report(result: RunResult) -> dict:
    # the last round of each task wins
    after_task = {str(log.task_index): log.report.as_dict() for log in result.round_logs}
    return {"final": result.round_logs[-1].report.as_dict(), "after_task": after_task,
            "final_params_sha256": _params_sha256(result)}


class IncompleteRunError(ValueError):
    """A run directory lacks one of the files every complete run has, or
    one of them is cut short or malformed."""


def _corrupt(d: str, name: str, problem: str) -> IncompleteRunError:
    return IncompleteRunError(f"corrupt run directory {d}: {name}: {problem}")


def _check_keys(obj, keys, d: str, name: str, where: str) -> dict:
    """``obj``, checked to be a JSON object with every one of ``keys``;
    ``where`` is its path in the file, as a prefix of its keys."""
    if not isinstance(obj, dict):
        raise _corrupt(d, name, f"{where.rstrip('.') or 'the file'} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise _corrupt(d, name, f"missing key {where}{key}")
    return obj


def _read_json(d: str, name: str, keys: tuple) -> dict:
    """The run file's JSON object, checked to have ``keys``."""
    try:
        with open(os.path.join(d, name), encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise _corrupt(d, name, f"not valid JSON: {exc}") from exc
    return _check_keys(obj, keys, d, name, "")


def _read_rounds(d: str, n_rounds: int) -> list[dict]:
    """The rows of the run's ``rounds.csv``, checked: ``n_rounds`` rows,
    each ended by its line end, whose ``round`` counts 0, 1, ... and whose
    trajectory columns hold numbers."""
    name = "rounds.csv"
    with open(os.path.join(d, name), newline="", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise _corrupt(d, name, "cut short: the last line has no line end")
    reader = csv.DictReader(text.splitlines(keepends=True))
    columns = reader.fieldnames or []
    for key in ("round",) + _TRAJECTORY_KEYS:
        if key not in columns:
            raise _corrupt(d, name, f"missing column {key}")
    rows = list(reader)
    for i, row in enumerate(rows):
        if None in row or None in row.values():
            raise _corrupt(d, name, f"row {i + 1} has {'more' if None in row else 'fewer'} "
                                    f"fields than the header")
        if row["round"] != str(i):
            raise _corrupt(d, name, f"row {i + 1}: round {row['round']!r}, expected {i}")
        for key in _TRAJECTORY_KEYS:
            try:
                float(row[key])
            except ValueError:
                problem = f"row {i + 1}: {key} {row[key]!r} is not a number"
                raise _corrupt(d, name, problem) from None
    if len(rows) != n_rounds:
        raise _corrupt(d, name, f"{len(rows)} rounds, the run's config has {n_rounds}")
    return rows


class ResultsStore:
    """Append-only directory-per-run result store. Its directory is made by
    the first write, so reading a store never creates one."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def run_dir(self, run_id: str) -> str:
        return os.path.join(self.out_dir, run_id)

    def failure_path(self, run_id: str) -> str:
        return os.path.join(self.out_dir, f"{run_id}.failed.txt")

    def write_failure(self, spec: ExperimentSpec, exc: Exception) -> None:
        """Write the full traceback of the exception that stopped the run,
        cause chain included, to ``<run_id>.failed.txt``, whole or not at
        all; a later ``write_run`` of the run removes it."""
        import traceback  # here, not at start-up: it adds 0.13 MB to every process's peak RSS

        path = self.failure_path(spec.run_id())
        os.makedirs(self.out_dir, exist_ok=True)
        tmp = os.path.join(self.out_dir, f".{os.path.basename(path)}.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("".join(traceback.format_exception(exc)))
        os.replace(tmp, path)

    def write_run(self, spec: ExperimentSpec, result: RunResult) -> RunRecord:
        """Write the run's files into a dot-prefixed temporary directory,
        then move it into place, replacing any earlier directory of the run
        as a whole; a write that fails leaves no run directory behind."""
        run_id = spec.run_id()
        d = self.run_dir(run_id)
        tmp = os.path.join(self.out_dir, f".{run_id}.{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)  # left behind by a killed write
        os.makedirs(tmp)  # and the store's directory, on its first write
        try:
            snapshot = {
                "run_id": run_id,
                "config": spec.values,
                "software_version": __version__,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            }
            with open(os.path.join(tmp, "config.json"), "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=2)
            rows = _round_rows(result)
            with open(os.path.join(tmp, "rounds.csv"), "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
            report = _build_report(result)
            with open(os.path.join(tmp, "report.json"), "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
            if os.path.isdir(d):
                # os.replace moves a directory only onto an empty one, so the
                # earlier run steps aside under a hidden name first
                os.replace(d, tmp + ".old")
                os.replace(tmp, d)
                shutil.rmtree(tmp + ".old")
            else:
                os.replace(tmp, d)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if os.path.exists(self.failure_path(run_id)):
            os.remove(self.failure_path(run_id))
        return RunRecord(run_id, dict(spec.values), rows, report)

    def load_run(self, run_id: str) -> RunRecord:
        """The stored run, checked: each file parses and has the keys every
        complete run has, ``config.json``'s ``run_id`` and the run id of its
        config are both the directory's name, so an edited config or a
        renamed directory cannot pass one run's numbers off as another's,
        and ``rounds.csv`` holds one whole row per round of the run's
        config, ``round`` counting 0, 1, ..., each with every trajectory
        column. A failed check raises ``IncompleteRunError`` naming the run
        directory, the file and the problem."""
        d = self.run_dir(run_id)
        for name in ("config.json", "rounds.csv", "report.json"):
            if not os.path.isfile(os.path.join(d, name)):
                raise IncompleteRunError(f"incomplete run directory {d}: missing {name}")
        snapshot = _read_json(d, "config.json", ("run_id", "config"))
        values = _check_keys(snapshot["config"], EXPERIMENT_SCHEMA, d, "config.json", "config.")
        spec = ExperimentSpec(values)
        try:
            config = spec.build()
        except (ValueError, TypeError) as exc:
            raise _corrupt(d, "config.json", f"invalid config: {exc}") from exc
        for what, rid in (("run_id", snapshot["run_id"]), ("config's run id", spec.run_id())):
            if rid != run_id:
                raise _corrupt(d, "config.json", f"{what} {rid!r} is not the directory's name")
        if spec.is_fcl:  # two tasks, circle then arrow
            tasks, per_task = ("0", "1"), config.task_rounds
        else:
            tasks, per_task = ("0",), config.n_rounds
        rounds = _read_rounds(d, len(tasks) * per_task)
        report = _read_json(d, "report.json", ("final", "after_task"))
        _check_keys(report["final"], _METRIC_KEYS, d, "report.json", "final.")
        _check_keys(report["after_task"], tasks, d, "report.json", "after_task.")
        for task in tasks:
            _check_keys(report["after_task"][task], _METRIC_KEYS, d, "report.json",
                        f"after_task.{task}.")
        return RunRecord(snapshot["run_id"], values, rounds, report)

    def list_runs(self) -> list[RunRecord]:
        """Every run in the store. Each subdirectory is a run, and one that
        lacks a run file raises ``IncompleteRunError``; plain files and
        dot-prefixed entries (``write_run``'s temporary directories) are
        ignored. A rewrite stopped between its two moves left the earlier
        run only under its hidden ``.<run_id>.<pid>.old`` name; it is moved
        back first. A store whose directory does not exist raises
        ``ValueError`` naming it."""
        if not os.path.isdir(self.out_dir):
            raise ValueError(f"results store is empty: {self.out_dir} does not exist")
        names = os.listdir(self.out_dir)
        for name in names:
            if name.startswith(".") and name.endswith(".old"):
                run_id = name[1:].split(".")[0]
                if run_id not in names and os.path.isdir(os.path.join(self.out_dir, name)):
                    os.replace(os.path.join(self.out_dir, name), self.run_dir(run_id))
                    names.append(run_id)
        return [self.load_run(name) for name in sorted(names)
                if not name.startswith(".") and os.path.isdir(self.run_dir(name))]

    def failures(self) -> dict[str, str]:
        """run id -> the error line (the traceback's last line) of each
        ``<run_id>.failed.txt`` in the store, in run id order."""
        failed = {}
        for name in sorted(os.listdir(self.out_dir)):
            if name.endswith(".failed.txt") and not name.startswith("."):
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                failed[name.removesuffix(".failed.txt")] = lines[-1] if lines else ""
        return failed


def _stream(specs: list[ExperimentSpec],
            dataset: dataio.Dataset) -> Iterator[tuple[int, RunResult | Exception]]:
    """(position in ``specs``, outcome) of every experiment, shape by shape,
    in the order each shape first appears: a shape is FL or FCL and one
    ``orchestrator.group_key``, and a spec whose config does not build is a
    shape of its own, which reports that error. A shape splits the
    dataset's row indices with its seed (``data.split_indices``) and passes
    ``orchestrator.group_outcomes`` through, which takes the rows of the
    shape's shards and test sets once, as one copy; so the rows are held
    at most twice, by the caller's dataset and by that copy, besides the
    copies FL's augmentation makes. An error that stops a shape is the
    outcome of every member not yet handed out, each its own copy."""
    shapes: dict[tuple, list[int]] = {}
    for position, spec in enumerate(specs):
        try:
            key = (spec.is_fcl, group_key(spec.build()))
        except Exception:
            key = ("alone", position)
        shapes.setdefault(key, []).append(position)
    for positions in shapes.values():
        handed = set()
        try:
            configs = [specs[p].build() for p in positions]
            # only group_outcomes holds the shape's rows, so they go when the shape ends
            for i, outcome in group_outcomes(
                    configs, dataset, dataio.split_indices(len(dataset), 0.75, configs[0].seed),
                    continual=specs[positions[0]].is_fcl):
                handed.add(i)
                yield positions[i], outcome
                del outcome  # held here, a result would outlive its write
        except Exception as exc:
            yield from ((p, own_copy(exc)) for i, p in enumerate(positions) if i not in handed)


def execute_experiment(spec: ExperimentSpec, dataset: dataio.Dataset,
                       outcome: RunResult | Exception | None = None) -> RunResult:
    """The experiment's result: its ``outcome`` from a suite's stream, or,
    without one, its result trained alone, as a stream of one. Either way
    the bits are those of the experiment run alone."""
    if outcome is None:
        ((_, outcome),) = _stream([spec], dataset)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_suite(suite: BenchmarkSuite, dataset: dataio.Dataset,
              out_dir: str) -> tuple[ResultsStore, list[tuple[str, str]]]:
    """Execute every experiment, persisting results. Experiments of one
    shape train as one lockstep group, but each is executed, stored and
    reported on its own, in suite order: the suite's stream trains on only
    until the next experiment's outcome exists, keeping the outcomes of
    later experiments it finishes on the way, and each result is let go
    before the stream trains later chunks. A shape trains to its end before
    the next one starts, so one shape's shards and client state are alive
    at a time. Individual failures are recorded and do not stop the suite;
    an experiment that fails leaves its traceback in the store
    (``ResultsStore.write_failure``). Returns (store, failures)."""
    store = ResultsStore(out_dir)
    stream = _stream(suite.experiments, dataset)
    ready: dict[int, RunResult | Exception] = {}  # position -> outcome not yet executed
    failures = []
    for position, spec in enumerate(suite.experiments):
        while position not in ready:
            ready.update([next(stream)])
        try:
            result = execute_experiment(spec, dataset, ready.pop(position))
        except Exception as exc:
            failures.append((spec.run_id(), str(exc)))
            store.write_failure(spec, exc)
            continue
        try:
            store.write_run(spec, result)
        except Exception as exc:  # the store's own error: a second write would meet it too
            failures.append((spec.run_id(), str(exc)))
        del result  # let go before the stream trains later chunks
    return store, failures


def verify_store(store: ResultsStore, dataset: dataio.Dataset) -> list[tuple[str, str]]:
    """Re-run every stored experiment alone and compare bit-exactly the
    round count, every round's metrics in ``rounds.csv``, the final metrics
    and, when the run stored it, the SHA-256 of the final parameters.
    Returns a list of (run_id, message) reproducibility violations."""
    violations = []
    for record in store.list_runs():
        spec = ExperimentSpec(record.values)
        try:
            result = execute_experiment(spec, dataset)
        except Exception as exc:
            violations.append((record.run_id, f"re-run failed: {exc}"))
            continue
        rows = _round_rows(result)
        if len(rows) != len(record.rounds):
            violations.append((record.run_id, f"rounds: stored {len(record.rounds)} "
                                              f"!= re-run {len(rows)}"))
        else:
            for row, stored_row in zip(rows, record.rounds):
                for key in _TRAJECTORY_KEYS:
                    if stored_row.get(key) != row[key]:
                        violations.append((record.run_id, f"round {row['round']}: {key}: stored "
                                                          f"{stored_row.get(key)!r} != re-run {row[key]!r}"))
        stored_sha = record.report.get("final_params_sha256")
        if stored_sha is not None and stored_sha != _params_sha256(result):
            violations.append((record.run_id, f"final_params_sha256: stored {stored_sha} "
                                              f"!= re-run {_params_sha256(result)}"))
        fresh = _build_report(result)["final"]
        for key in _METRIC_KEYS:
            a, b = fresh[key], record.report["final"][key]
            if repr(a) != repr(b):  # bit-exact, NaN equal to NaN
                violations.append((record.run_id, f"{key}: stored {b!r} != re-run {a!r}"))
    return violations


# ---------------------------------------------------------------------------
# Comparison tables
# ---------------------------------------------------------------------------

_METRIC_TITLES = ("Loss", "RMSE", "PCC")


def _fmt(value: float) -> str:
    return f"{value:.3f}" if value == value else "nan"


def _decorate(column_values: list[str], higher_is_better: bool) -> list[str]:
    """Bold the best and bracket the second-best 3-decimal value."""
    numeric = [(i, float(v)) for i, v in enumerate(column_values) if v not in ("-", "nan")]
    if len(numeric) < 2:
        return list(column_values)
    ordered = sorted(numeric, key=lambda p: -p[1] if higher_is_better else p[1])
    best_val = ordered[0][1]
    second_val = next((v for _, v in ordered if v != best_val), None)
    out = list(column_values)
    for i, v in numeric:
        if v == best_val:
            out[i] = f"**{column_values[i]}**"
        elif second_val is not None and v == second_val:
            out[i] = f"[{column_values[i]}]"
    return out


def _method_label(record: RunRecord) -> str:
    if record.is_fcl:
        label = f"FedAvg_{record.values['cl_method']}"
    else:
        label = record.values["strategy"]
    if record.values["augmentation"]:
        label += "_aug"
    return label


def _table_grid(records: list[RunRecord], fcl: bool):
    """Returns (header, labels, rows of cell strings, higher_is_better flag
    per column). A row is a method label, with `` key=value`` for each
    experiment key besides the method, augmentation and client count whose
    value differs among ``records``, so runs that differ only there (seeds,
    say) keep rows of their own."""
    client_counts = sorted({r.values["clients"] for r in records})
    stages = ["1"] if not fcl else ["0", "1"]
    stage_titles = [""] if not fcl else ["T1 ", "T2 "]

    header = ["Method"]
    col_better = []  # higher_is_better flag per metric column
    for n_cli in client_counts:
        for stage_title in stage_titles:
            for title, key in zip(_METRIC_TITLES, _METRIC_KEYS):
                header.append(f"{stage_title}{title} ({n_cli}c)")
                col_better.append(key == "avg_pcc")

    varying = [key for key in EXPERIMENT_SCHEMA
               if key not in ("strategy", "cl_method", "augmentation", "clients")
               and len({repr(r.values[key]) for r in records}) > 1]
    by_key = {}
    for r in records:
        label = _method_label(r) + "".join(f" {key}={r.values[key]}" for key in varying)
        by_key[(label, r.values["clients"])] = r
    labels = list(dict.fromkeys(label for label, _ in by_key))

    rows = []
    for label in labels:
        cells = []
        for n_cli in client_counts:
            r = by_key.get((label, n_cli))
            for stage in stages:
                if fcl:
                    rep = r.report["after_task"].get(stage) if r else None
                else:
                    rep = r.report["final"] if r else None
                for key in _METRIC_KEYS:
                    cells.append(_fmt(rep[key]) if rep else "-")
        rows.append(cells)
    return header, labels, rows, col_better


def emit_table(store: ResultsStore, fmt: str = "markdown") -> str:
    """Emit Loss/RMSE/PCC comparison tables for the stored runs (FL table,
    then FCL table when both kinds are present), 3-decimal values; markdown
    marks best values bold and second-best bracketed per column, and lists
    each failed run under the tables with its error line. A store with no
    completed run is a ValueError that names its failed runs."""
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"unknown table format {fmt!r}")
    records, failed = store.list_runs(), store.failures()
    if not records:
        raise ValueError(f"no run completed; failed: {', '.join(failed)}" if failed
                         else "results store is empty")
    blocks = []
    for fcl, title in ((False, "Federated Learning"), (True, "Federated Continual Learning")):
        subset = [r for r in records if r.is_fcl == fcl]
        if not subset:
            continue
        header, labels, rows, col_better = _table_grid(subset, fcl)
        if fmt == "markdown":
            rows = zip(*(_decorate(list(column), better)
                         for column, better in zip(zip(*rows), col_better)))
            lines = [f"## {title}", "", "| " + " | ".join(header) + " |",
                     "|" + "|".join("---" for _ in header) + "|"]
            lines += ["| " + " | ".join([label, *cells]) + " |"
                      for label, cells in zip(labels, rows)]
        else:
            lines = [",".join(header)] + [",".join([label, *cells])
                                          for label, cells in zip(labels, rows)]
        blocks.append("\n".join(lines))
    if failed and fmt == "markdown":
        blocks.append("\n".join(["## Failed runs", ""] + [f"- `{run_id}`: {error}"
                                                        for run_id, error in failed.items()]))
    return "\n\n".join(blocks) + "\n"
