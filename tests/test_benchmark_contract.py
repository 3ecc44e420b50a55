"""The benchmark (perfbench/) traces fedcl through names it looks up at run
time. These tests fail when fedcl renames or removes one of them."""

import importlib
import importlib.util
import inspect
import pathlib

from fedcl import nn

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for layer, quals in tracing.LAYERS.items():
        module = importlib.import_module(f"fedcl.{layer}")
        for qual in quals:
            owner = module
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{qual}")
    assert not missing


def test_backward_arguments_the_row_counter_reads():
    # nn.backward.train_rows counts len(batch) at index 1 when mode, at
    # index 4 and "train" by default, is "train"
    params = inspect.signature(nn.backward).parameters
    names = list(params)
    assert names[1] == "batch" and names[4] == "mode"
    assert params["mode"].default == "train"
