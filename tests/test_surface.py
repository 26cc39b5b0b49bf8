"""The package ships only what it runs: every public function, class,
method and property in src/mfca is referenced somewhere else in src/mfca.

Closed forms and helpers that only tests need live in tests/ (see
theory_oracle.py and image_oracle.py).  ALLOWED names the public names
that still lack a production caller, each with the ROADMAP item that
gives it one; when that item lands, its name must leave ALLOWED.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mfca"

ALLOWED = {
    "spectral.lambda_top": "ROADMAP item 5: the per-k spectrum diagnostic mu_k",
    "pipeline.group_eigenvalues": "ROADMAP item 1: per-k gap/spread in metrics.json",
}


def _unreferenced(package: Path) -> set:
    """Qualified names ("module.name" or "module.Class.method") of the
    public definitions in `package` that nothing outside their own body
    refers to.  A module-level name counts as referenced by a Name, an
    attribute or an import of it; a method or property by an attribute."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    refs = {}  # bare name -> (node id, is an attribute) of each reference
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((id(node), True))
            elif isinstance(node, (ast.Name, ast.alias)):
                name = node.id if isinstance(node, ast.Name) else node.name
                refs.setdefault(name, []).append((id(node), False))
    defs = []  # (qualified name, node, is a method)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{sub.name}", sub, True)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
    found = set()
    for qualified, node, is_method in defs:
        if node.name.startswith("_"):
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(
            nid not in own and (is_attribute or not is_method)
            for nid, is_attribute in refs.get(node.name, ())
        ):
            found.add(qualified)
    return found


def test_every_public_name_has_a_caller_in_the_package():
    found = _unreferenced(PACKAGE)
    assert found == set(ALLOWED), (
        f"public names that nothing in src/mfca calls: {sorted(found)}; "
        f"allowed: {sorted(ALLOWED)}"
    )
