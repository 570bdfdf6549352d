"""Every public function, class and method of the package has a caller outside tests.

A name defined at module level in ``src/oodflow`` (``__init__`` excluded,
since re-exporting is not calling), and each public method or property of
a public class, must be referenced somewhere in the package, the demos or
the benchmark.  Otherwise tests check code that nothing runs, and the code
that does run can change unseen.

The count of settable values (defaulted public parameters and dataclass
fields, optional CLI flags) may not grow either.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oodflow"

ALLOWED = {
    # the reader of the documented FGRID output that `localize` writes
    "read_fgrid",
}


def _modules():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _public_definitions():
    found = {}
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[node.name] = f"{path.stem}.{node.name}"
    return found


def _public_methods():
    found = []
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [(item.name, f"{path.stem}.{node.name}.{item.name}")
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")]
    return found


def _referenced_names():
    sources = (_modules() + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py")))
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_public_names_have_callers_outside_tests():
    used = _referenced_names()
    unused = sorted(qual for name, qual in _public_definitions().items()
                    if name not in used and name not in ALLOWED)
    assert unused == [], f"public names only tests use: {unused}"


def test_public_methods_have_callers_outside_tests():
    used = _referenced_names()
    unused = sorted(qual for name, qual in _public_methods() if name not in used)
    assert unused == [], f"public methods only tests use: {unused}"


def test_allowlist_is_current():
    defined = set(_public_definitions())
    used = _referenced_names()
    assert ALLOWED <= defined
    assert not ALLOWED & used, "an allowlisted name now has a caller; drop it"


def _defaulted_params(fn):
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _settable_values():
    """Defaulted public parameters and dataclass fields, and optional CLI flags."""
    count = 0
    for path in _modules():
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                count += _defaulted_params(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                count += sum(_defaulted_params(item) for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    count += sum(isinstance(item, ast.AnnAssign) and item.value is not None
                                 for item in node.body)
        if path.name == "cli.py":
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "add_argument"
                        and str(node.args[0].value).startswith("--")
                        and not any(k.arg == "required" and k.value.value is True
                                    for k in node.keywords)):
                    count += 1
    return count


def test_settable_values_do_not_grow():
    # raising this bound needs a reason, stated in CHANGES.md
    assert _settable_values() <= 58
