"""The package's surface stays small.

Every top-level function and class in the package has a caller in the
package.  A definition counts as used when module-level code or another
used definition refers to it by name, so a wrapper whose only caller is
itself unused is reported too.  The allow-list holds the definitions
that nothing in the package calls on purpose, each with its reason.
Names are matched as identifiers, not resolved, so a name shared with an
attribute elsewhere can hide an unused definition; it never flags a used one.

The number of values a caller can set stays within a budget, and every
bundled data file is declared as package data.
"""

import ast
import sys
from pathlib import Path

import pytest

import memefuse

PACKAGE = Path(memefuse.__file__).parent

ALLOWED = {
    ("balance", "knn_indices"):
        "oracle: the one-row definition of the k-NN metric the neighbour table is checked against",
    ("encode", "transformer_block_backward"):
        "gate 4: the encoder block's gradient, with the nnops backward passes it calls",
    ("lstm", "lstm_cell_forward"): "gate 4: the per-cell reference for the fused trunk",
    ("lstm", "lstm_cell_backward"): "gate 4: the per-cell reference for the fused trunk",
    ("tensorfile", "export_embeddings"):
        "format writer: the exchange files tensorfile.import_embeddings reads",
    ("fixtures", "write_annotation_fixture"):
        "format writer: the synthetic annotation files of the tests and the benchmark",
    ("cli", "__getattr__"):
        "PEP 562: Python calls it for a name read from the module before train or eval ran",
}


def _names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_definitions(package: Path = PACKAGE, allowed=ALLOWED) -> list:
    """(module, name) of every top-level def or class no used code refers to."""
    defs = {}
    used_by_module_code = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(path.stem, node.name)] = node
            else:
                used_by_module_code |= _names(node)
    live = set(defs)
    while True:
        used = set(used_by_module_code)
        for key in live:
            used |= _names(defs[key]) - {key[1]}
        dead = {key for key in live if key[1] not in used and key not in allowed}
        if not dead:
            return sorted(set(defs) - live)
        live -= dead


def test_allow_list_names_existing_definitions():
    present = set()
    for path in PACKAGE.glob("*.py"):
        present |= {(path.stem, node.name) for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(ALLOWED) <= present, sorted(set(ALLOWED) - present)


def test_every_definition_has_a_caller():
    unused = unused_definitions()
    assert not unused, f"no caller in the package and not allow-listed: {unused}"


def test_a_wrapper_called_only_by_an_unused_wrapper_is_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "def core(x):\n    return x\n\n"
        "def one(x):\n    return core(x)\n\n"
        "def outer(x):\n    return one(x)\n\n"
        "print(core(1))\n")
    assert unused_definitions(tmp_path, allowed={}) == [("m", "one"), ("m", "outer")]
    assert unused_definitions(tmp_path, allowed={("m", "outer"): "kept"}) == []


# Defaulted parameters, dataclass fields and command-line arguments in the
# package; 108 before the encoder sizes became constants, 94 before the
# captioner sizes became constants, 85 before the attention mask went, 81
# before fusion's d_target keyword and the four LabelSet fields went, 76
# before `_add_common`'s `dataset` and `CleanText.original` went, 72 before
# the `axis` of `softmax` and `softmax_backward` and `layernorm_forward`'s
# `eps` went, 69 before fusion's four part keywords went, 65 before eval's
# `--seed` and `--variant`, Adam's `beta1`, `beta2` and `eps`, and the
# test-only defaults of `fused_from_imported`'s `seed`, `_neighbor_table`'s
# `rows` and `init_projection`'s `dtype` went, 57 before the test-only `ws`
# defaults of `bilstm_forward`, `bilstm_backward` and `loss_and_grads` and
# `bilstm_backward`'s `need_dx` went.
SETTABLE_BUDGET = 53


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(package: Path = PACKAGE) -> int:
    count = 0
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                count += 1
    return count


def test_settable_values_within_budget():
    count = settable_values()
    assert count <= SETTABLE_BUDGET, (
        f"{count} settable values, budget {SETTABLE_BUDGET}. Raising the budget needs a "
        "CHANGES.md line naming the new value and the second caller that needs it.")


def test_settable_values_counts_each_kind(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 1\n\n"
        "def f(x, y=1, *, z=2, w):\n    return x\n\n"
        "parser.add_argument('--flag')\n")
    assert settable_values(tmp_path) == 5


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_bundled_data_file_is_package_data():
    # tests import the package from src/, so only this check sees what an
    # installed memefuse would leave out
    import tomllib

    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text(encoding="utf-8")
                          )["tool"]["setuptools"]["package-data"]["memefuse"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    files = [path for path in sorted((PACKAGE / "data").rglob("*")) if path.is_file()]
    assert files
    missing = [path.relative_to(PACKAGE).as_posix() for path in files if path not in shipped]
    assert not missing, f"bundled data that pyproject.toml does not ship: {missing}"
