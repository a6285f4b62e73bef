"""Source hygiene, checked on the AST since no linter is a dependency:
every name a module imports and every parameter a function takes in
``src/dscluster`` is read somewhere, every module-level function and
constant is called or read by some module of ``src/dscluster``, every
method or property of a package class is read as an attribute by some
module, and every package export is used by some test.

Run as a script, it prints each module's ``wc -l`` line count and its code
lines (``code_lines``), the two sizes that CHANGES.md and ROADMAP.md quote:
``python tests/test_source_hygiene.py``."""
import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dscluster"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.rglob("*.py"))

# all four structural checks take (state, graph), whether or not they read the graph
UNREAD_PARAMETERS_ALLOWED = {("verify.py", "check_partition", "graph")}

# module-level functions that no module of the package calls, each with its reason
UNCALLED_FUNCTIONS_ALLOWED = {
    # row views of the metric kernels, wrapped as spans by perfbench/tracing.py
    ("metrics.py", "hop_closeness_index"): "a benchmark boundary",
    ("metrics.py", "euclidean_closeness_index"): "a benchmark boundary",
    ("metrics.py", "path_statistics"): "a benchmark boundary",
    ("metrics.py", "neighbor_categories"): "a benchmark boundary",
    ("cli.py", "main"): "the entry point of the dscluster console script",
}

# methods and properties that no module of the package reads, each with its reason
UNREAD_METHODS_ALLOWED = {
    ("cli.py", "_Parser", "error"): "overrides the argparse method that parse_args calls",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node: ast.AST) -> set[str]:
    """Names loaded anywhere under ``node``, quoted annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        annotations = []
        if isinstance(sub, ast.arg):
            annotations.append(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            annotations.append(sub.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _read_names(ast.parse(note.value, mode="eval"))
    return names


def _unread_imports(path: Path) -> list[str]:
    tree = _tree(path)
    read = _read_names(tree)
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unread.append(f"{path.name}:{node.lineno} {bound}")
    return unread


def _unread_parameters(path: Path) -> list[str]:
    unread = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = set().union(*(_read_names(stmt) for stmt in node.body))
        for param in params:
            if param is None or param.arg in ("self", "cls") or param.arg in read:
                continue
            if (path.name, node.name, param.arg) not in UNREAD_PARAMETERS_ALLOWED:
                unread.append(f"{path.name}:{node.lineno} {node.name}({param.arg})")
    return unread


def code_lines(path: Path) -> int:
    """Lines of ``path`` that are not blank, not ``#`` comments and not part
    of a module, class or function docstring."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def test_code_lines_counts_only_code(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """Class docstring."""
    label = "not a docstring"

    def method(self):
        """Method
        docstring."""
        text = """a string that is
no docstring"""
        return text


def function():
    x = 1
    "a string statement after the first is no docstring"
    return x
''')
    # import, class, label, def, text (2 lines), return, def, x, string, return
    assert code_lines(source) == 11


def test_sources_found():
    assert {"engine.py", "mobility.py", "verify.py"} <= {p.name for p in SOURCES}


def test_every_imported_name_is_read():
    """``__init__.py`` imports to re-export, so it is left out."""
    unread = [hit for path in SOURCES if path.name != "__init__.py"
              for hit in _unread_imports(path)]
    assert unread == []


def test_every_parameter_is_read():
    unread = [hit for path in SOURCES for hit in _unread_parameters(path)]
    assert unread == []


def _is_script_block(stmt: ast.stmt) -> bool:
    """``if __name__ == "__main__":``, which runs a module as a script."""
    return isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'"


def _uncalled_functions() -> set[tuple[str, str]]:
    """Module-level functions that no module except ``__init__.py`` (which
    imports to re-export) names, as a name or as a module attribute,
    outside the function's own body and outside a script block."""
    defined, named = set(), set()
    for path in SOURCES:
        for stmt in _tree(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add((path.name, stmt.name))
            if path.name == "__init__.py" or _is_script_block(stmt):
                continue
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(stmt)
                     if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
                     or isinstance(sub, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)
            named |= names
    return {(module, name) for module, name in defined if name not in named}


def test_every_function_is_called():
    assert _uncalled_functions() - UNCALLED_FUNCTIONS_ALLOWED.keys() == set()


def test_every_allowed_uncalled_function_exists_uncalled():
    # an entry whose function is gone or now called is stale
    assert UNCALLED_FUNCTIONS_ALLOWED.keys() - _uncalled_functions() == set()


def _unread_constants() -> set[tuple[str, str]]:
    """Names bound by a module-level assignment, dunders aside, that no
    module except ``__init__.py`` (which imports to re-export) reads, as a
    name or as a module attribute, outside the assignment itself."""
    defined, read = set(), set()
    for path in SOURCES:
        for stmt in _tree(path).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined |= {(path.name, sub.id) for target in targets
                            for sub in ast.walk(target) if isinstance(sub, ast.Name)}
            if path.name == "__init__.py":
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
    return {(module, name) for module, name in defined
            if name not in read and not (name.startswith("__") and name.endswith("__"))}


def test_every_constant_is_read():
    # a retired tuning constant left behind as a dead name fails here
    assert _unread_constants() == set()


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _unread_methods() -> set[tuple[str, str, str]]:
    """Methods and properties of package classes, dunders aside, whose
    name no module reads as an attribute (``x.name``) outside their own
    body.  Names are matched alone, so a method named like an attribute
    read elsewhere (numpy's ``.size``, say) counts as read."""
    trees = {path.name: _tree(path) for path in SOURCES}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    unread = set()
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
                        and reads[stmt.name] == _attribute_reads(stmt)[stmt.name]):
                    unread.add((module, cls.name, stmt.name))
    return unread


def test_every_method_is_read():
    assert _unread_methods() - UNREAD_METHODS_ALLOWED.keys() == set()


def test_every_allowed_unread_method_exists_unread():
    # an entry whose method is gone or now read is stale
    assert UNREAD_METHODS_ALLOWED.keys() - _unread_methods() == set()


def test_every_export_is_used_by_a_test():
    """No public API that nothing uses: every name ``__init__.py`` imports
    is reached as ``d.<name>`` in some test file."""
    exported = {alias.asname or alias.name
                for node in ast.walk(_tree(PACKAGE / "__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    reached = {node.attr for path in TESTS for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "d"}
    assert exported, "no exports found"
    assert exported - reached == set()


if __name__ == "__main__":
    sizes = {p.name: (len(p.read_text().splitlines()), code_lines(p)) for p in SOURCES}
    sizes["total"] = tuple(map(sum, zip(*sizes.values())))
    print(f"{'module':16s} {'wc -l':>6s} {'code':>6s}")
    for name, (lines, code) in sizes.items():
        print(f"{name:16s} {lines:6d} {code:6d}")
