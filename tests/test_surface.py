"""Every public name in ``pinnpid`` has a caller in the library or the benchmark.

A public module-level function or class, or a public method or property of
such a class, must appear as a whole word in ``src/`` or ``bench/`` somewhere
other than its own ``def``/``class`` line. Every field of a configuration
record must be set by name, as a keyword argument or a string dict key, in
``src/`` or ``bench/``. Every defaulted parameter of a public function or
method must be set, by keyword or by position, by some call of that name in
``src/`` or ``bench/``. Test files do not count as callers.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pinnpid"

# Configuration records, by module file; a field nothing sets is an option with one value.
CONFIGS = {"training.py": "TrainConfig", "gainopt.py": "CostWeights",
           "sampling.py": "DatasetConfig"}

# Kept without a caller, with the reason.
ALLOWED = {
    "manipulator_energy": "test oracle: energy conservation checks manipulator_rhs",
    "msd_state_space": "test oracle: the exact linear surrogate and Jacobian in the tests",
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


def defaulted_parameters():
    """(qualified name, bare name, positional index or None, parameter) of every
    defaulted parameter of a public function or method; the index skips self/cls."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [(node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                members = [(item, 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                           for d in item.decorator_list) else 1)
                           for item in node.body if isinstance(item, ast.FunctionDef)]
            for fn, skip in members:
                if fn.name.startswith("_") or node.name.startswith("_"):
                    continue
                qualified = fn.name if fn is node else f"{node.name}.{fn.name}"
                positional = [*fn.args.posonlyargs, *fn.args.args]
                first = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield qualified, fn.name, i - skip, arg.arg
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield qualified, fn.name, None, arg.arg


def calls_by_name():
    """Every call in src/ and bench/, keyed by the called name (``f(...)``, ``x.f(...)``)."""
    calls = {}
    for f in caller_files():
        for node in ast.walk(ast.parse(f.read_text())):
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


def test_every_public_name_has_a_caller():
    names = list(public_names())
    assert set(ALLOWED) <= {bare for _, _, bare in names}
    lines = caller_lines()
    unused = []
    for module, qualified, name in names:
        if name in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(f"{module}: {qualified}")
    assert not unused, "used nowhere in src/ or bench/: " + ", ".join(unused)


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
