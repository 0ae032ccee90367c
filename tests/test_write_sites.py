"""Every file gradflip writes goes through `data.write_lines`, which writes
a temporary file and renames it into place, so a failed write leaves the
previous file whole. No other code of the package may write a file: no
`write_text` or `write_bytes` call, and no `open` with a write, append or
create mode. A mode the check cannot read as a literal counts as a write."""

import ast
from pathlib import Path

import gradflip

PACKAGE = Path(gradflip.__file__).resolve().parent
WRITER = ("data.py", "write_lines")  # the one module and function that writes


def _writes(call: ast.Call) -> bool:
    """Whether an `open` call writes: open(file, mode) takes its mode second,
    Path.open first, and without one it reads."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    pos = 1 if isinstance(call.func, ast.Name) else 0
    mode = modes[0] if modes else call.args[pos] if len(call.args) > pos else None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return mode is not None


def write_calls(path: Path) -> list[str]:
    """Calls in `path` that write a file outside data.write_lines, as `line: function`."""
    tree = ast.parse(path.read_text())
    exempt = set()
    if path.name == WRITER[0]:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == WRITER[1]:
                exempt = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes") or (name == "open" and _writes(node)):
            found.append((node.lineno, ast.unparse(func)))
    return [f"{lineno}: {text}" for lineno, text in sorted(found)]


def test_only_write_lines_writes_files():
    calls = {path.name: write_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(calls.values()), calls


WRITES = (
    "def write_lines(path, lines):\n"
    "    open(path, 'w')\n"
    "def save(p, mode):\n"
    "    p.write_text('x')\n"
    "    p.write_bytes(b'')\n"
    "    open(p, 'a')\n"
    "    p.open(mode='x')\n"
    "    io.open(p, 'r+')\n"
    "    os.open(p, os.O_WRONLY)\n"
    "    open(p, mode)\n"
    "    open(p); p.open(); open(p, 'rb'); p.open('r'); p.read_text()\n"
)
FOUND = ["4: p.write_text", "5: p.write_bytes", "6: open", "7: p.open", "8: io.open", "9: os.open", "10: open"]


def test_guard_sees_every_write_form(tmp_path):
    (tmp_path / "data.py").write_text(WRITES)
    assert write_calls(tmp_path / "data.py") == FOUND
    # write_lines is exempt in data.py only
    (tmp_path / "model.py").write_text(WRITES)
    assert write_calls(tmp_path / "model.py") == ["2: open"] + FOUND
