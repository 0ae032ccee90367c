"""The trainer, the analysis, the CLI, the config, the data and the model
use other gradflip modules only through their public names. A
`_`-prefixed name is private to its module, free to change without
notice, so a read of one from outside is a bug. `layers` and `asg` are
left out: they build fused tape nodes through `tensor`'s node helpers."""

import ast
from pathlib import Path

import gradflip

PACKAGE = Path(gradflip.__file__).resolve().parent
CALLERS = ("trainer.py", "analysis.py", "cli.py", "config.py", "data.py", "model.py")


def private_reads(path: Path) -> list[str]:
    """`module.attr` reads and `from gradflip... import _name` imports of a
    private name of another gradflip module, as `line: text`."""
    tree = ast.parse(path.read_text())
    aliases = set()  # local names bound to gradflip modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name.startswith("gradflip.")}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gradflip"):
            for a in node.names:
                if node.module == "gradflip":
                    aliases.add(a.asname or a.name)
                if a.name.startswith("_"):
                    found.append((node.lineno, f"from {node.module} import {a.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in aliases
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{lineno}: {text}" for lineno, text in sorted(found)]


def test_callers_read_no_private_name_of_another_module():
    reads = {name: private_reads(PACKAGE / name) for name in CALLERS}
    assert not any(reads.values()), reads


def test_guard_sees_attribute_reads_and_imports(tmp_path):
    src = tmp_path / "caller.py"
    src.write_text(
        "from gradflip import model as gm, asg\n"
        "from gradflip.model import _pack, build_model\n"
        "gm._forward_packed(m)\nasg.viterbi(e)\nasg._viterbi(e)\nx._private\n"
    )
    assert private_reads(src) == [
        "2: from gradflip.model import _pack", "3: gm._forward_packed", "5: asg._viterbi",
    ]
