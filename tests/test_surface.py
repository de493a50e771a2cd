"""Every public name and every default of the package has a caller outside the tests.

A public function, class or method defined in ``src/mfrl`` must be
referenced by name from ``src/mfrl`` itself or from ``perfbench/``, the
benchmark that drives the package: read as a name, accessed as an attribute,
or named by a wrap target of ``perfbench/tracing.py``
(``"mfrl.fd:GridValueFunction.save"``).  A reference inside the definition
itself does not count.  Methods count only as attributes.  The few names
kept for the tests alone are listed with their reason.

A defaulted parameter of a public function or method, or a defaulted field
of a public dataclass, must be set by some call in the same files: by
keyword, by position, or through ``*args`` or ``**kwargs``.  Calls are
matched by the name called, ``f(...)`` or ``obj.f(...)``; ``cls(...)`` in a
classmethod calls its class, and ``partial(f, ...)`` calls ``f``.  A value
that no such call sets is a knob nothing turns: make it a constant.
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


#: defaulted parameters that only tests set, "<module>.<callable>.<parameter>"
TEST_SETTINGS: dict[str, str] = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        "dataclass" in ast.unparse(deco.func if isinstance(deco, ast.Call) else deco)
        for deco in node.decorator_list
    )


def _function_defaults(fn: ast.FunctionDef, is_method: bool):
    """(parameter, position or None if keyword-only) of each defaulted parameter."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    decorators = {getattr(d, "id", None) for d in fn.decorator_list}
    if is_method and "staticmethod" not in decorators:
        positional = positional[1:]  # self or cls
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _field_defaults(cls: ast.ClassDef):
    """(field, position) of each defaulted ``__init__`` field of a dataclass."""
    position = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        is_field = (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        )
        keywords = {kw.arg: kw.value for kw in value.keywords} if is_field else {}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        if value is not None and (not is_field or {"default", "default_factory"} & set(keywords)):
            yield item.target.id, position
        position += 1


def defaulted_parameters():
    """(qualified name, called name, parameter, position or None) of each
    defaulted parameter of a public callable."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                for param, pos in _function_defaults(node, is_method=False):
                    yield f"{path.stem}.{node.name}.{param}", node.name, param, pos
            else:
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                init = [m for m in methods if m.name == "__init__"]
                if init:
                    fields = _function_defaults(init[0], is_method=True)
                else:
                    fields = _field_defaults(node) if _is_dataclass(node) else ()
                for param, pos in fields:
                    yield f"{path.stem}.{node.name}.{param}", node.name, param, pos
                for method in methods:
                    if method.name.startswith("_"):
                        continue
                    qualified = f"{path.stem}.{node.name}.{method.name}"
                    for param, pos in _function_defaults(method, is_method=True):
                        yield f"{qualified}.{param}", method.name, param, pos


def _called_name(func, classmethod_of):
    if isinstance(func, ast.Name):
        return classmethod_of if func.id == "cls" and classmethod_of else func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class Calls(ast.NodeVisitor):
    """Per called name, the (positional count, keywords) of each call;
    a count of None, or keywords of None, stand for ``*args`` or ``**kwargs``."""

    def __init__(self):
        self.calls: dict[str, list] = {}
        self._classes, self._classmethod = [], None

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        outer = self._classmethod
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        self._classmethod = self._classes[-1] if "classmethod" in decorators else None
        self.generic_visit(node)
        self._classmethod = outer

    def visit_Call(self, node):
        name, args = _called_name(node.func, self._classmethod), node.args
        if name == "partial" and args:
            name, args = _called_name(args[0], self._classmethod), args[1:]
        if name is not None:
            count = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
            keywords = {kw.arg for kw in node.keywords}
            self.calls.setdefault(name, []).append((count, None if None in keywords else keywords))
        self.generic_visit(node)


def parameters_never_set() -> set[str]:
    calls = Calls()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        calls.visit(ast.parse(path.read_text()))

    def sets(call, param, pos):
        count, keywords = call
        return (
            keywords is None
            or param in keywords
            or (pos is not None and (count is None or pos < count))
        )

    return {
        qualified
        for qualified, name, param, pos in defaulted_parameters()
        if not any(sets(call, param, pos) for call in calls.calls.get(name, ()))
    }


def test_every_defaulted_parameter_is_set_outside_the_tests():
    unset = parameters_never_set()
    assert sorted(unset - TEST_SETTINGS.keys()) == [], "set them from a caller or make constants"
    # a setting that gained a caller, or went, leaves the list
    assert sorted(TEST_SETTINGS.keys() - unset) == []
