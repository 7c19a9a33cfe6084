"""Every public name in ``pinnpid`` has a caller in the library or the benchmark.

A public module-level function or class, or a public method or property of
such a class, must appear as a whole word in ``src/`` or ``bench/`` somewhere
other than its own ``def``/``class`` line. Every field of a configuration
record must be set by name, as a keyword argument or a string dict key, in
``src/`` or ``bench/``. Every defaulted parameter of a public function or
method must be set, by keyword or by position, by some call of that name in
``src/`` or ``bench/``, and left unset by another: a default that every such
call overrides is a second copy of the callers' value, or a path that only
tests take, so the parameter must have no default. An ``__init__`` counts
under its class name, and ``OVERRIDDEN`` lists the exceptions with the
reason. Test files do not count as callers. Every public
exception class must be the expected exception of some ``pytest.raises``
under ``tests/``, so each failure path has a test that forces it. The count
of settable options must equal ``OPTIONS``, so that a new or removed option
shows up as a change to this file. A name kept in ``ALLOWED`` without a caller
must still have none, and a default kept in ``OVERRIDDEN`` must still be
overridden by every call, so that neither list of exceptions can go stale.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pinnpid"

# Configuration records, by module file; a field nothing sets is an option with one value.
CONFIGS = {"training.py": "TrainConfig", "gainopt.py": "CostWeights",
           "sampling.py": "DatasetConfig"}

# Settable options: the defaulted parameters of public functions and methods, __init__
# included, plus the defaulted fields of public dataclasses other than field(init=False).
OPTIONS = 30

# Kept without a caller, with the reason.
ALLOWED = {
    "manipulator_energy": "test oracle: energy conservation checks manipulator_rhs",
    "msd_state_space": "test oracle: the exact linear surrogate and Jacobian in the tests",
}

# Defaults that every call in src/ and bench/ overrides, kept with the reason.
OVERRIDDEN = {
    "TrainingDiverged.__init__.iteration": "bench/test_bench.py raises it with a message alone",
    "TrainingDiverged.__init__.last_report": "bench/test_bench.py raises it with a message alone",
}


def public_names():
    """(module file, qualified name, bare name) of every public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.name, f"{node.name}.{item.name}", item.name


def caller_files():
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "bench").rglob("*.py"))]
    return [f for f in files if not f.name.startswith("test_")]


def caller_lines():
    return [line for f in caller_files() for line in f.read_text().splitlines()]


def names_set_by_callers():
    """Every keyword argument name and string dict key in src/ and bench/."""
    names = set()
    for f in caller_files():
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Call):
                names.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Dict):
                names.update(k.value for k in node.keys
                             if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return names


def defaulted_parameters(init=False):
    """(qualified name, bare name, positional index or None, parameter) of every
    defaulted parameter of a public function or method, and of ``__init__`` when
    ``init`` is true; the index skips self/cls."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [(node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                members = [(item, 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                           for d in item.decorator_list) else 1)
                           for item in node.body if isinstance(item, ast.FunctionDef)]
            for fn, skip in members:
                public = not fn.name.startswith("_") or (init and fn.name == "__init__")
                if not public or node.name.startswith("_"):
                    continue
                qualified = fn.name if fn is node else f"{node.name}.{fn.name}"
                positional = [*fn.args.posonlyargs, *fn.args.args]
                first = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield qualified, fn.name, i - skip, arg.arg
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield qualified, fn.name, None, arg.arg


def calls_by_name(sources=None):
    """Every call in ``sources`` (default: the files of src/ and bench/), keyed by
    the called name (``f(...)``, ``x.f(...)``)."""
    calls = {}
    for source in [f.read_text() for f in caller_files()] if sources is None else sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def sets_parameter(call, index, param):
    """Whether the call passes ``param``: by keyword, at positional ``index``, or
    through ``*args`` / ``**kwargs``."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def always_overridden(params, calls):
    """``qualified.param`` of each of ``params`` (as ``defaulted_parameters`` yields
    them) that some call sets and every call sets; an ``__init__``'s calls are
    those of its class."""
    found = []
    for qualified, name, index, param in params:
        callers = calls.get(qualified.split(".")[0] if name == "__init__" else name, [])
        if callers and all(sets_parameter(call, index, param) for call in callers):
            found.append(f"{qualified}.{param}")
    return found


def has_caller(name, lines):
    """Whether ``name`` appears as a whole word on a line other than its own def/class line."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not definition.match(line) for line in lines)


def stale_allowances(lines):
    """The ALLOWED names that have a caller among ``lines``, so need no exception."""
    return [name for name in ALLOWED if has_caller(name, lines)]


def test_every_public_name_has_a_caller():
    names = list(public_names())
    assert set(ALLOWED) <= {bare for _, _, bare in names}
    lines = caller_lines()
    unused = [f"{module}: {qualified}" for module, qualified, name in names
              if name not in ALLOWED and not has_caller(name, lines)]
    assert not unused, "used nowhere in src/ or bench/: " + ", ".join(unused)


def test_allowed_names_still_have_no_caller():
    stale = stale_allowances(caller_lines())
    assert not stale, "allowed without a caller, but called in src/ or bench/: " + ", ".join(stale)


def test_an_allowed_name_that_gains_a_caller_is_stale():
    lines = ["def manipulator_energy(p, x):", "    e = manipulator_energy(ARM, x)"]
    assert stale_allowances(lines) == ["manipulator_energy"]
    assert stale_allowances(lines[:1]) == []


def test_every_config_field_is_set_by_a_caller():
    set_names = names_set_by_callers()
    unset, found = [], set()
    for module, cls in CONFIGS.items():
        for node in ast.parse((PACKAGE / module).read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                found.add(cls)
                unset += [f"{cls}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and item.target.id not in set_names]
    assert found == set(CONFIGS.values())
    assert not unset, "set nowhere in src/ or bench/: " + ", ".join(unset)


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = calls_by_name()
    params = list(defaulted_parameters())
    assert params
    unset = [f"{qualified}.{param}" for qualified, name, index, param in params
             if not any(sets_parameter(call, index, param) for call in calls.get(name, []))]
    assert not unset, "a default no call in src/ or bench/ overrides: " + ", ".join(unset)


def test_no_default_is_overridden_by_every_call():
    found = always_overridden(defaulted_parameters(init=True), calls_by_name())
    stale = sorted(set(OVERRIDDEN) - set(found))
    assert not stale, "kept in OVERRIDDEN, but some call takes the default: " + ", ".join(stale)
    kept = [name for name in found if name not in OVERRIDDEN]
    assert not kept, "a default every call in src/ or bench/ overrides: " + ", ".join(kept)


def test_a_default_that_every_call_overrides_is_named():
    params = [("f", "f", 1, "b"), ("f", "f", None, "c"), ("C.__init__", "__init__", 0, "x")]
    every = calls_by_name(["f(1, 2)", "f(1, b=3, c=4)", "C(5)", "g(x=1)"])
    assert always_overridden(params, every) == ["f.b", "C.__init__.x"]
    some = calls_by_name(["f(1)", "f(1, b=3, c=4)", "C()", "x.C(5)"])
    assert always_overridden(params, some) == []
    assert always_overridden(params, {}) == []  # no call: the test above names those


def defaulted_fields():
    """(class, field) of every defaulted field of a public dataclass, less those
    declared ``field(init=False)``, which no caller can set."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_") or not any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in node.decorator_list):
                continue
            for item in node.body:
                if not isinstance(item, ast.AnnAssign) or item.value is None:
                    continue
                value = item.value
                if isinstance(value, ast.Call) and any(
                        k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords):
                    continue
                yield node.name, item.target.id


def settable_options():
    """``qualified.param`` of every defaulted parameter, ``__init__`` included, and
    ``class.field`` of every defaulted field that a caller can set."""
    return ([f"{qualified}.{param}" for qualified, _, _, param in defaulted_parameters(True)]
            + [f"{cls}.{name}" for cls, name in defaulted_fields()])


def test_settable_options_are_counted():
    options = settable_options()
    assert len(options) == len(set(options))
    assert len(options) == OPTIONS, (
        f"{len(options)} settable options, OPTIONS records {OPTIONS}: set OPTIONS to the new "
        f"count and give it, with the reason for the change, in CHANGES.md ({sorted(options)})")


def exception_classes():
    """Names of the public exception classes that ``pinnpid`` defines."""
    for module, qualified, name in public_names():
        if qualified == name:
            obj = getattr(importlib.import_module(f"pinnpid.{Path(module).stem}"), name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                yield name


def names_expected_by_tests():
    """Every name passed as the expected exception of a ``pytest.raises`` under tests/."""
    names = set()
    for f in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "raises"
                    and node.args):
                expected = node.args[0]
                for e in expected.elts if isinstance(expected, ast.Tuple) else [expected]:
                    names.add(e.id if isinstance(e, ast.Name) else getattr(e, "attr", None))
    return names


def test_every_exception_is_forced_by_a_test():
    exceptions = set(exception_classes())
    assert exceptions
    missing = sorted(exceptions - names_expected_by_tests())
    assert not missing, "expected by no pytest.raises under tests/: " + ", ".join(missing)
