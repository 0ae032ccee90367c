"""`python3 bench/run.py --trace 1` looks up every name in bench/tracing.py's
TIMED and COUNTED on gradflip's modules when it installs its tracer. A
deleted or renamed function would break tracing and nothing else, so the
names are checked here, against the file as the benchmark ships it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve_on_gradflip():
    tracing = load_tracing()
    missing = []
    for module, names in tracing.TIMED.items():
        mod = importlib.import_module(f"gradflip.{module}")
        for qual in names:
            if "." in qual:  # a method, looked up in its class's own namespace
                cls_name, meth = qual.split(".")
                found = meth in vars(getattr(mod, cls_name, object))
            else:
                found = callable(getattr(mod, qual, None))
            if not found:
                missing.append(f"{module}.{qual}")
    tensor = importlib.import_module("gradflip.tensor")
    missing += [f"tensor.{op}" for op in tracing.COUNTED if not callable(getattr(tensor, op, None))]
    assert not missing, f"bench/tracing.py names that gradflip lacks: {missing}"
