"""Module boundaries: no module in src/ uses another module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "civsf"
# the CLI's float64 gradient check differentiates the phase-2 loss itself
ALLOWED = {("civsf.harness.cli", "civsf.training.pretrain", "_phase2_batch")}


def is_module(name: str) -> bool:
    path = PACKAGE.parent.joinpath(*name.split("."))
    return path.with_suffix(".py").exists() or path.is_dir()


def private_uses(here: str, is_package: bool, text: str) -> set[tuple[str, str, str]]:
    """(module here, other module, private name) for every `from m import _x`
    and every `m._x` through a name bound to another civsf module."""
    tree = ast.parse(text)
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                parts = here.split(".") if is_package else here.split(".")[:-1]
                parts = parts[:len(parts) - node.level + 1]
                source = ".".join(parts + ([source] if source else []))
            if not source.startswith("civsf"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and source != here:
                    found.add((here, source, alias.name))
                if is_module(f"{source}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{source}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("civsf") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, here) != here
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.add((here, modules[node.value.id], node.attr))
    return found


def test_no_module_uses_another_modules_private_names():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        here = ".".join(parts[:-1] if is_package else parts)
        found |= private_uses(here, is_package, path.read_text())
    assert found == ALLOWED


def test_private_use_scanner_sees_every_form():
    here = "civsf.harness.probe"
    assert private_uses(here, False, "from civsf.training.pretrain import _phase2_batch\n") \
        == {(here, "civsf.training.pretrain", "_phase2_batch")}
    assert private_uses(here, False, "from civsf.training import finetune as ft\nft._fit\n") \
        == {(here, "civsf.training.finetune", "_fit")}
    assert private_uses(here, False, "import civsf.training.model as m\nm._x()\n") \
        == {(here, "civsf.training.model", "_x")}
    assert private_uses(here, False, "from .report import _metric_key\n") \
        == {(here, "civsf.harness.report", "_metric_key")}
    assert private_uses(here, False, "from civsf.training import finetune as ft\n"
                                     "ft.windows_of\nft.__name__\n") == set()
