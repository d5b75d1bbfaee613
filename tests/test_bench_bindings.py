"""The benchmark's tracer (bench/spans.py) times each layer by rebinding
names that matchline's modules import. A refactor that renames or moves one
of those names leaves its layer unmeasured; this pins the bindings the
library lacks to the one already known."""

import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import matchline

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_layer_but_the_known_one():
    lib = types.SimpleNamespace(
        **{
            info.name: importlib.import_module(f"matchline.{info.name}")
            for info in pkgutil.iter_modules(matchline.__path__)
        }
    )
    before = {name: dict(vars(module)) for name, module in vars(lib).items()}
    tracer = load_spans().Tracer()
    with tracer.installed(lib):
        # divide no longer imports monotone_optimal: that binding lost its
        # target; nor make_matching, as a DIVIDE_k run builds its matching
        # from the exact total it priced while serving, and so does an LR
        # run from the total lr_serve returns
        assert tracer.unbound == {
            "divide.monotone_optimal",
            "divide.make_matching",
            "lr.make_matching",
        }
        assert lib.experiment.lr_oracle is not lib.lr.lr_oracle
    # uninstalling restores every module-level name
    assert {name: dict(vars(module)) for name, module in vars(lib).items()} == before
