"""Every public name in ``pinnpid`` has a caller in the library or the benchmark.

A public module-level function or class, or a public method or property of
such a class, must appear as a whole word in ``src/`` or ``bench/`` somewhere
other than its own ``def``/``class`` line. Test files do not count as callers.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pinnpid"

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


def caller_lines():
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "bench").rglob("*.py"))]
    return [line for f in files if not f.name.startswith("test_")
            for line in f.read_text().splitlines()]


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
