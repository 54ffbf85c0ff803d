"""Checks on the package source itself."""

import ast
from pathlib import Path

import fscsynth


def test_no_assert_statements():
    # ``python -O`` strips asserts and sets ``__debug__`` false, so no check
    # may rely on either. The benchmark's own modules are read too: its
    # smoke runs check ``correct`` and ``failed`` under -O alone
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sources = sorted(Path(fscsynth.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    benchmark = sorted(path for path in perfbench.glob("*.py") if path.name != "test_perfbench.py")
    assert {"run.py", "workloads.py"} <= {path.name for path in benchmark}
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in sources + benchmark
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


def _imported(module: str) -> set:
    """The modules a package module imports, and each name it imports from
    one as ``module.name``."""
    path = Path(fscsynth.__file__).parent / f"{module}.py"
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
    return names


def test_verifier_is_independent_of_the_search():
    # the verifier is the ground truth the search engines are tested against
    names = _imported("verifier")
    assert "fscsynth.model" in names
    search = {"fscsynth.pandor", "fscsynth.ledger", "fscsynth.andor"}
    assert sorted(n for n in names if ".".join(n.split(".")[:2]) in search) == []
    # its can_terminate pass stays its own: the goal bound and the settle
    # share ``model.reaching``, so the verifier must not call it too
    tree = ast.parse((Path(fscsynth.__file__).parent / "verifier.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "fscsynth.model.reaching" not in names and "reaching" not in used


def test_the_search_is_independent_of_the_verifier():
    # the settle is a graph pass of the search's own: the exact re-check of
    # a returned controller must share no code with the search it checks
    names = _imported("pandor")
    assert {"fscsynth.ledger", "fscsynth.model"} <= names
    assert sorted(n for n in names if ".".join(n.split(".")[:2]) == "fscsynth.verifier") == []


def test_the_verifier_reads_no_goal_bound():
    # the goal bound only prunes the search; an answer the verifier checks
    # must not rest on it
    text = (Path(fscsynth.__file__).parent / "verifier.py").read_text(encoding="utf-8")
    assert "goal_bound" not in text and "GOAL_BOUND" not in text


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


def _owners_of(attr: str, called: bool = False) -> list:
    """Each top-level function or method in the package, as ``module.name``
    or ``module.Class.name``, once per reference to an attribute ``attr``
    in it, or per call of one where ``called`` is true."""
    refs = []
    for path in sorted(Path(fscsynth.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = [(f"{top.name}.", node) for node in top.body] if isinstance(top, ast.ClassDef) else [("", top)]
            for prefix, owner in owners:
                name = f"{path.stem}.{prefix}{getattr(owner, 'name', owner.lineno)}"
                nodes = [node.func for node in ast.walk(owner) if isinstance(node, ast.Call)] if called else ast.walk(owner)
                refs += [name for node in nodes if isinstance(node, ast.Attribute) and node.attr == attr]
    return refs


def test_the_unchecked_environment_constructor_has_one_caller():
    # Environment._checked skips the constructor's checks; parse_env checks
    # what it builds, and the differential parse test holds it to that
    assert _owners_of("_checked") == ["domains.parse_env"]


def test_choice_points_open_in_one_place():
    # both engines reach an undefined pair through the shared visit, so the
    # candidate order and anything that watches a choice point opening hold
    # for both; andor keeps only its judgement
    assert _owners_of("_open", called=True) == ["pandor._Backtracker._visit"]


def test_only_the_ledger_writes_its_slots():
    # the cache is kept in step with the slots, and every cycle row holds
    # positive masses only, by the ledger's own methods alone, so no other
    # module may write a slot or a cached bound
    names = {"ps", "goal", "fail", "noter", "loop", "headroom", "prefix", "pos"}

    def written(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return [name for t in target.elts for name in written(t)]
        if isinstance(target, ast.Starred):
            return written(target.value)
        while isinstance(target, ast.Subscript):  # by item: ``x.loop[k][m] = ...``
            target = target.value
        if isinstance(target, ast.Attribute) and (target.attr in names or target.attr.startswith("acc_")):
            return [target.attr]
        return []

    found = []
    for path in sorted(Path(fscsynth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            found += [(path.name, node.lineno, name) for t in targets for name in written(t)]
    # the walk sees the ledger's own writes, so it is not blind to the form
    assert {"loop", "headroom", "acc_goal"} <= {name for module, _, name in found if module == "ledger.py"}
    assert [write for write in found if write[0] != "ledger.py"] == []
