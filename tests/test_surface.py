"""Every public name of the package has a caller outside the tests.

A public function, class or method defined in ``src/mfrl`` must be
referenced by name from ``src/mfrl`` itself or from ``perfbench/``, the
benchmark that drives the package: read as a name, accessed as an attribute,
or named by a wrap target of ``perfbench/tracing.py``
(``"mfrl.fd:GridValueFunction.save"``).  A reference inside the definition
itself does not count.  Methods count only as attributes.  The few names
kept for the tests alone are listed with their reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfrl"

#: public names that only tests call, each an oracle the tests check against
TEST_ORACLES = {
    "metric.rho_sq_grad": "closed-form measure derivative that criterion 2 checks",
    "metric.rho_sq_hess": "two-point series that criterion 2 compares with finite differences",
    "mc.resample_tuples": "draws the resampled N-tuples of criterion 5",
    "torus.measure_to_json": "writes the measure files that `mfrl metric` reads",
}

#: a wrap target, "mfrl.<module>:<attribute path>"
_WRAP_TARGET = re.compile(r"mfrl\.\w+:([\w.]+)")


def public_definitions():
    """(qualified name, name, is a method) of each public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True


class References(ast.NodeVisitor):
    """Names read and attributes accessed, outside the definitions they name."""

    def __init__(self):
        self.names, self.attributes = set(), set()
        self._enclosing = []

    def _definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._enclosing:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._enclosing:
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for target in _WRAP_TARGET.finditer(node.value):
                self.attributes.update(target.group(1).split("."))


def names_without_callers() -> set[str]:
    refs = References()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        refs.visit(ast.parse(path.read_text()))
    return {
        qualified
        for qualified, name, is_method in public_definitions()
        if name not in (refs.attributes if is_method else refs.names | refs.attributes)
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = names_without_callers()
    assert sorted(unused - TEST_ORACLES.keys()) == [], "give them a caller or delete them"
    # an oracle that gained a caller, or went, leaves the list
    assert sorted(TEST_ORACLES.keys() - unused) == []
