"""Span tracing of calls into gradflip's public functions, from outside
the program.

`Tracer.install()` replaces each listed function (and the two layer
`forward` methods) on every gradflip module that binds it, so calls made
between modules and inside a module are both seen; `remove()` puts the
originals back. A timed call records a span: name, start, end and the
index of the enclosing span. Tensor ops are too many and too small for a
span each, so they are only counted, on the innermost open span. Spans
stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# layer (module) -> public functions and methods timed as spans
TIMED = {
    "tensor": ("backward", "sgd_step"),
    # GatedConv.forward covers conv1d, glu, weight_norm and dropout
    "layers": ("pool", "GatedConv.forward", "Linear.forward"),
    "asg": ("asg_loss", "full_logadd", "constrained_logadd", "viterbi_decode"),
    "model": (
        "build_model", "forward_acoustic", "forward_speaker", "forward_joint",
        "extract_representation", "speaker_nll", "save_checkpoint", "load_checkpoint",
    ),
    "trainer": ("train", "step", "compute_gradients"),
    "analysis": ("dump_reps", "train_probe", "figure2_report", "evaluate_ler", "evaluate_wer", "edit_distance"),
    "data": ("generate", "partition_semi", "split", "save_dataset", "load_dataset"),
}
# public tensor ops: counted, not timed
COUNTED = (
    "add", "sub", "mul", "smul", "matmul", "sigmoid", "exp", "log", "pow_scalar", "sum_reduce",
    "max_reduce", "logsumexp", "slice_axis", "concat", "reshape", "grad_scale",
)
MODULES = tuple(TIMED)

NAME, START, END, PARENT, OPS = range(5)


class Patches:
    """Replaces functions on gradflip's module objects and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, replacement) -> None:
        """Rebind every gradflip module attribute that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gradflip" and not mod_name.startswith("gradflip."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def replace_method(self, cls, name: str, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tensor ops]
        self._stack: list[int] = []
        self._patches = Patches()
        self.namers: dict[str, object] = {}  # span name -> fn(args, kwargs) giving the name

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[START] = start
        self._stack.pop()

    def _timed(self, name: str, fn):
        namer = self.namers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(namer(args, kwargs) if namer else name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)

        return traced

    def _counted(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][OPS] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for module, names in TIMED.items():
            mod = importlib.import_module(f"gradflip.{module}")
            for qual in names:
                name = f"{module}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    self._patches.replace_method(cls, meth, self._timed(name, cls.__dict__[meth]))
                else:
                    fn = getattr(mod, qual)
                    self._patches.replace(fn, self._timed(name, fn))
        tensor = importlib.import_module("gradflip.tensor")
        for op in COUNTED:
            fn = getattr(tensor, op)
            self._patches.replace(fn, self._counted(fn))

    def remove(self) -> None:
        self._patches.restore()

    # -- reading the spans ------------------------------------------------

    def inside(self, prefix: str) -> list[bool]:
        """Per span: whether it or an enclosing span is named `prefix...`."""
        out: list[bool] = []
        for span in self.spans:  # an enclosing span always comes first
            parent = span[PARENT]
            out.append(span[NAME].startswith(prefix) or (parent >= 0 and out[parent]))
        return out

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        out: dict[str, tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, total, self_s = out.get(span[NAME], (0, 0.0, 0.0))
            out[span[NAME]] = (calls + 1, total + span[END] - span[START], self_s + own)
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, tensor ops."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
