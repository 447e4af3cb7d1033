"""The library's public surface is what a command, a verification or the
benchmark calls.

Every public module-level function and every public method defined in
``src/qkflag`` must be named somewhere in ``src/qkflag`` or ``perfbench``
outside its own definition and its imports: as a name, an attribute or a
string (the benchmark tracer reads some functions by name).  Code that only
the tests call belongs in the tests; ``tests/reference.py`` holds the
independent references they compare against.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "qkflag"
CALLERS = (LIBRARY, ROOT / "perfbench")

# public names kept although only the tests call them, with the reason
ALLOWED = {
    # PresPoly's one text form; moved out, render_laurent's names argument
    # would be set only by tests
    "presentation.render_pres",
}


def _public_defs(tree: ast.Module):
    """(qualified name, node) of the public functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _mentions(tree: ast.Module):
    """(identifier, line) of every name, attribute and string; an import
    alone, such as a re-export from the package, is no use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for base in CALLERS for path in sorted(base.rglob("*.py"))}
    mentions = {path: list(_mentions(tree)) for path, tree in trees.items()}
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qualified, node in _public_defs(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(word == node.name and not (where == path and line in own)
                       for where, found in mentions.items() for word, line in found):
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = set(_unused_public_names())
    assert sorted(unused - ALLOWED) == []


def test_the_allowlist_names_only_uncalled_code():
    # an entry whose name gained a caller, or was deleted, goes too
    assert sorted(ALLOWED - set(_unused_public_names())) == []
