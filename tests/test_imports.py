"""Module boundaries: no module in src/ uses another module's private names,
and only civsf.fileio opens a file for writing."""

import ast
import re
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


# os.open flags that write, append, create or truncate
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}
MODE = re.compile(r"[rwxabt+]+")


def write_opens(text: str) -> set[int]:
    """Lines that open a file for writing: a call named open with a mode
    literal holding w, a, x or +, a builtin open() whose mode is not a
    literal, or an os.O_* flag that writes."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and node.attr in WRITE_FLAGS:
            found.add(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        args = node.args + [kw.value for kw in node.keywords]
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if not all(isinstance(m, ast.Constant) for m in modes):
                found.add(node.lineno)
        elif not (isinstance(node.func, ast.Attribute) and node.func.attr == "open"):
            continue
        if any(isinstance(a, ast.Constant) and isinstance(a.value, str)
               and MODE.fullmatch(a.value) and set(a.value) & set("wax+") for a in args):
            found.add(node.lineno)
    return found


def test_only_fileio_opens_files_for_writing():
    found = {f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py")) if path != PACKAGE / "fileio.py"
             for line in write_opens(path.read_text())}
    assert found == set()


def test_write_open_scanner_sees_every_form():
    for code in ('open(p, "wb")', 'open(p, "a")', 'open(p, mode="x")', 'open(p, "r+b")',
                 "open(p, mode)", 'io.open(p, "w")', 'Path(p).open("wb")',
                 'gzip.open(p, "at")', "os.open(p, os.O_WRONLY | os.O_CREAT)"):
        assert write_opens(f"x = 1\n{code}\n") == {2}, code
    for code in ("open(p)", 'open(p, "rb")', 'open(p, mode="r")', "Path(p).open()",
                 "os.open(p, os.O_RDONLY)", 'fh.write(b"w")', 'print("w")'):
        assert write_opens(f"x = 1\n{code}\n") == set(), code
