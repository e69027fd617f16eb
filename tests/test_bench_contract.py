"""The benchmark's probes still fit the package.

perfbench/spans.py wraps respred functions by module and attribute name,
and its span-name and span-attribute lambdas read call arguments by
position. A refactor that renames a probed function or moves one of those
arguments would silently break traced benchmark runs; this test catches it.
The test only reads perfbench/.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
spans = importlib.import_module("spans")
sys.path.remove(str(PERFBENCH))


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in spans.PROBES])
def test_probe_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))


@pytest.mark.parametrize("module_name, attr, index, name", [
    ("respred.pipeline", "train_target", 1, "target"),
    ("respred.encode", "encode", 0, "records"),
    ("respred.nnet", "predict", 1, "records"),
    ("respred.simsynth", "simulate", 1, "mode"),
])
def test_probed_argument_positions(module_name, attr, index, name):
    params = list(inspect.signature(resolve(module_name, attr)).parameters)
    assert params[index] == name, params
