"""One export rule for every module: a name in a module's ``__all__`` is reached
from ``cli.main``, or from an entry point that the README's "Library API"
section lists with a reason.

Reachability is read off the source with ``ast``: a reached definition reaches
every package name it reads, across modules, and a reached class counts with
its methods.  Annotations are not reads (every module defers them).
"""

import ast
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("numkit", "su2rep", "chan", "su2cov", "u1cov", "metrics", "bounds", "mcoracle", "cli")


class _Module:
    """Top-level definitions, relative imports and ``__all__`` of one package module."""

    def __init__(self, source: str):
        self.defs, self.imports, self.exports = {}, {}, []
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:  # ``from . import bounds as bnd`` names a module
                    target = (stmt.module, alias.name) if stmt.module else (alias.name, None)
                    self.imports[alias.asname or alias.name] = target
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self.defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in getattr(stmt, "targets", [getattr(stmt, "target", None)]):
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        self.exports = ast.literal_eval(stmt.value)
                    elif isinstance(target, ast.Name):
                        self.defs[target.id] = stmt


def _reads(node):
    """(name, attribute or None) for every name a definition reads outside annotations."""
    skip = set()
    for n in ast.walk(node):
        for ann in (getattr(n, "annotation", None), getattr(n, "returns", None)):
            skip.update(map(id, ast.walk(ann)) if ann is not None else ())
    for n in ast.walk(node):
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name):
            yield n.id, None
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            yield n.value.id, n.attr


def library_api(readme: str) -> list[tuple[str, str]]:
    """``(module, name)`` of each bullet ``* `module.name`: reason`` under "## Library API"."""
    section = readme.partition("\n## Library API\n")[2].split("\n## ", 1)[0]
    return re.findall(r"^[*-] `(\w+)\.(\w+)`: \S", section, flags=re.MULTILINE)


def export_rule_violations(src: Path, readme: str) -> list[str]:
    """Every ``__all__`` name of the nine modules under ``src`` that neither
    ``cli.main`` nor a listed entry point reaches, and every listed entry that
    is not an export of a module other than numkit."""
    modules = {m: _Module((src / f"{m}.py").read_text()) for m in MODULES}

    def resolve(module, name):
        """The module that defines ``name`` as seen from ``module``, following re-exports."""
        while name not in modules[module].defs and name in modules[module].imports:
            module, name = modules[module].imports[name]
            if name is None or module not in modules:
                return None
        return (module, name) if name in modules[module].defs else None

    entries = library_api(readme)
    problems = [f"{m}.{n}: listed in the Library API but not an export of a module "
                "other than numkit"
                for m, n in entries if m == "numkit" or m not in modules
                or n not in modules[m].exports]
    pending = [("cli", "main"), *(resolve(m, n) for m, n in entries if m in modules)]
    reached = set()
    while pending:
        key = pending.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        module = modules[key[0]]
        for name, attr in _reads(module.defs[key[1]]):
            target = module.imports.get(name, (None, None))
            if attr is not None and target[1] is None and target[0] in modules:
                pending.append(resolve(target[0], attr))  # bnd.su2_bounds
            elif attr is None:
                pending.append(resolve(key[0], name))
    return problems + [f"{m}.{n}: reached neither from cli.main nor from the Library API"
                       for m in MODULES for n in modules[m].exports
                       if resolve(m, n) not in reached]


def test_every_export_is_reached_or_listed():
    src = ROOT / "src" / "noetherlab"
    assert export_rule_violations(src, (ROOT / "README.md").read_text()) == []


def test_an_unused_public_function_fails(tmp_path):
    src = tmp_path / "noetherlab"
    shutil.copytree(ROOT / "src" / "noetherlab", src, ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("numkit", "su2cov"):
        path = src / f"{module}.py"
        path.write_text(path.read_text().replace("__all__ = [", '__all__ = [\n    "orphan",', 1)
                        + "\n\ndef orphan():\n    return dagger\n")
    problems = export_rule_violations(src, (ROOT / "README.md").read_text())
    assert [p.split(":")[0] for p in problems] == ["numkit.orphan", "su2cov.orphan"]


def test_a_listed_name_that_is_not_exported_fails():
    readme = (ROOT / "README.md").read_text().replace(
        "\n## Library API\n", "\n## Library API\n\n* `bounds.no_such_bound`: a typo.\n"
        "* `numkit.dagger`: numkit has no exemption.\n", 1)
    problems = export_rule_violations(ROOT / "src" / "noetherlab", readme)
    assert [p.split(":")[0] for p in problems] == ["bounds.no_such_bound", "numkit.dagger"]
