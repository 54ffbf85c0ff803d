"""Checks on the package source itself."""

import ast
from pathlib import Path

import fscsynth


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no check may rely on one
    sources = sorted(Path(fscsynth.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_verifier_is_independent_of_the_search():
    # the verifier is the ground truth the search engines are tested against
    path = Path(fscsynth.__file__).parent / "verifier.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "fscsynth." + module if module else "fscsynth"
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    assert "fscsynth.model" in names
    search = {"fscsynth.pandor", "fscsynth.ledger", "fscsynth.andor"}
    assert sorted(n for n in names if ".".join(n.split(".")[:2]) in search) == []


def test_no_unused_imports():
    # an import nothing reads is dead weight, and often the last trace of
    # deleted code
    unused = []
    for path in sorted(Path(fscsynth.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_the_unchecked_environment_constructor_has_one_caller():
    # Environment._checked skips the constructor's checks; parse_env checks
    # what it builds, and the differential parse test holds it to that
    refs = []
    for path in sorted(Path(fscsynth.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = [(f"{top.name}.", node) for node in top.body] if isinstance(top, ast.ClassDef) else [("", top)]
            for prefix, owner in owners:
                name = f"{path.stem}.{prefix}{getattr(owner, 'name', owner.lineno)}"
                refs += [name for node in ast.walk(owner) if isinstance(node, ast.Attribute) and node.attr == "_checked"]
    assert refs == ["domains.parse_env"]
