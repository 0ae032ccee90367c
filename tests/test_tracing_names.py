"""`python3 bench/run.py --trace 1` looks up every name in bench/tracing.py's
TIMED and COUNTED on gradflip's modules when it installs its tracer, and
bench/run.py calls gradflip's functions and classes directly. A deleted or
renamed function, or a changed signature, would break the benchmark and
nothing else, so the names and call forms are checked here, against the
files as the benchmark ships them."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
RUN = BENCH / "run.py"


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


def gradflip_calls(source: str) -> tuple[list[str], list[str]]:
    """Every call in `source` on a name imported from gradflip, a module
    attribute (`tr.step(...)`) or an imported name (`RngStream(...)`), bound
    by its positional count and keyword names against the target's
    signature. Returns (calls checked, calls that do not bind), each as
    `line: callee`."""
    tree = ast.parse(source)
    modules, names = {}, {}  # local name -> gradflip module, -> imported object
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gradflip"):
            for a in node.names:
                if node.module == "gradflip":
                    modules[a.asname or a.name] = importlib.import_module(f"gradflip.{a.name}")
                else:
                    names[a.asname or a.name] = getattr(importlib.import_module(node.module), a.name, None)
    checked, unbound = [], []
    for node in sorted((n for n in ast.walk(tree) if isinstance(n, ast.Call)), key=lambda n: (n.lineno, n.col_offset)):
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            callee, target = f.id, names[f.id]
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
            callee, target = f"{f.value.id}.{f.attr}", getattr(modules[f.value.id], f.attr, None)
        else:
            continue
        where = f"{node.lineno}: {callee}"
        checked.append(where)
        starred = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
        try:
            if target is None or starred:
                raise TypeError("no such name, or a call form that cannot be bound statically")
            inspect.signature(target).bind(*node.args, **{k.arg: None for k in node.keywords})
        except (TypeError, ValueError):
            unbound.append(where)
    return checked, unbound


def test_bench_calls_bind_on_gradflip():
    checked, unbound = gradflip_calls(RUN.read_text())
    assert checked, "bench/run.py makes no call into gradflip"
    assert not unbound, f"bench/run.py calls that do not bind on gradflip: {unbound}"


def test_bench_call_guard_reports_calls_that_do_not_bind():
    checked, unbound = gradflip_calls(
        "from gradflip import trainer as tr\n"
        "from gradflip.rng import RngStream\n"
        "tr.lambda_at(sched, 1, 3)\n"
        "tr.lambda_at(sched, 1)\n"
        "RngStream(1, 'bench', 3)\n"
        "tr.step(m, batch, 'al', 0.1, rng=r, bogus=1)\n"
        "tr.no_such_step(m)\n"
        "tr.step(*args)\n"
        "RngStream(1, 'bench').child('x')\n"
        "len(tr.MODES)\n"
    )
    assert checked == [
        "3: tr.lambda_at", "4: tr.lambda_at", "5: RngStream", "6: tr.step", "7: tr.no_such_step", "8: tr.step",
        "9: RngStream",
    ]
    assert unbound == ["4: tr.lambda_at", "5: RngStream", "6: tr.step", "7: tr.no_such_step", "8: tr.step"]
