"""Span tracing for the fedcl benchmark.

A ``Tracer`` wraps the public functions of each fedcl module (the layers in
``LAYERS``) at every name a caller looks them up by: the defining module,
every module that imported the function under its own name, and the class
dictionary for methods. Each call records one span (name, start, end,
parent) in memory; counters are read off the arguments and results at the
same boundaries. ``uninstall`` puts every original object back.

Spans assume the traced code runs on one thread, as the benchmark workloads do.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

LAYERS = {
    "nn": ["backward", "MlpModel.forward", "Optimizer.step", "extract_params",
           "inject_params", "MlpModel.clone", "mse_loss"],
    "data": ["load_csv", "synthetic_generate", "train_test_split", "partition_clients",
             "split_tasks", "augment", "minibatches"],
    "metrics": ["compute_report"],
    "strategies": ["fedavg_aggregate", "fedbn_aggregate", "fedopt_server_step",
                   "fedprox_penalty", "distill_target"],
    "continual": ["compute_fisher", "mas_importance", "quadratic_penalty", "si_accumulate",
                  "si_consolidate", "ewc_online_update", "nr_store", "nr_mixed_batches",
                  "ReplayBuffer.add", "ReplayBuffer.sample"],
    "orchestrator": ["run_fl", "run_fcl", "local_train", "evaluate", "derive_seed"],
    "config": ["parse_config"],
    "store": ["run_suite", "execute_experiment", "ResultsStore.write_run",
              "ResultsStore.list_runs", "emit_table"],
}

FUNCTIONS = [f"{layer}.{qual}" for layer, quals in LAYERS.items() for qual in quals]

_MARK = "__perfbench_original__"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _train_rows(args, kwargs, result) -> int:
    """Rows passed to nn.backward in train mode."""
    if _arg(args, kwargs, 4, "mode", "train") != "train":
        return 0
    return len(_arg(args, kwargs, 1, "batch"))


def _csv_rows(args, kwargs, result) -> int:
    return len(result)


def _run_bytes(args, kwargs, result) -> int:
    """Bytes of every file in the run directory write_run just wrote."""
    run_dir = args[0].run_dir(result.run_id)
    return sum(entry.stat().st_size for entry in os.scandir(run_dir) if entry.is_file())


COUNTERS = {
    "nn.backward.train_rows": ("nn.backward", _train_rows),
    "data.load_csv.rows": ("data.load_csv", _csv_rows),
    "store.ResultsStore.write_run.bytes": ("store.ResultsStore.write_run", _run_bytes),
}


def fedcl_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fedcl" or name.startswith("fedcl."))]


def find_wrappers() -> list[str]:
    """Names in the loaded fedcl modules and their classes that are tracing
    wrappers; empty when no tracer is installed."""
    found = []
    for module in fedcl_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{name}"
                          for name, member in vars(value).items() if hasattr(member, _MARK)]
    return found


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Per span: its duration minus the part of its interval covered by its
    child spans. ``spans`` holds (name, start, end, parent index or -1)."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters for the functions named in ``LAYERS``.

    ``hooks`` maps a function name to ``hook(args, kwargs, result)``, called
    after each traced call returns."""

    def __init__(self, hooks: dict | None = None):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._hooks = defaultdict(list)
        for counter, (fn_name, measure) in COUNTERS.items():
            self._hooks[fn_name].append(self._counting(counter, measure))
        for fn_name, hook in (hooks or {}).items():
            self._hooks[fn_name].append(hook)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _counting(self, counter, measure):
        def hook(args, kwargs, result):
            self.counters[counter] += measure(args, kwargs, result)
        return hook

    def _wrap(self, name: str, fn):
        spans, stack, hooks, clock = self.spans, self._stack, self._hooks.get(name, ()), time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1])
            for hook in hooks:
                hook(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever fedcl binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"fedcl.{layer}")
        modules = fedcl_modules()
        for layer, quals in LAYERS.items():
            module = sys.modules[f"fedcl.{layer}"]
            for qual in quals:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                    sites = [(owner, attr)]
                    original = vars(owner)[attr]
                else:
                    original = getattr(module, qual)
                    sites = [(m, attr) for m in modules
                             for attr, value in vars(m).items() if value is original]
                wrapper = self._wrap(name, original)
                for owner, attr in sites:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """``<function>.calls`` and ``<function>.self_s`` for every traced
        function (0 when never called), plus the counters."""
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_s[name] += own
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counters)
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
