"""Every public name in ``pinnpid`` has a caller, and every settable option is set
by some caller and left at its default by another.

Callers are the files of ``src/`` and ``bench/`` other than ``test_*`` files. A
public module-level function or class, or a public method or property of such a
class, must be referenced by their code: as a name, an attribute, an imported
name, or a string constant equal to the name (the benchmark's trace hooks name
their targets as strings). A docstring or comment that mentions it does not count.

A settable option is a defaulted parameter of a public function or method, a
public class's ``__init__`` included; the fields of a public dataclass, less those
declared ``field(init=False)``, are the parameters of its ``__init__``. Each must
be set, by keyword or by position, by some call and left unset by another. A
default that no call sets is an option with one value; a default that every call
sets is a second copy of the callers' value, or a path that only tests take. The
calls of a function or method are those of its name; those of an ``__init__`` are
those of its class, and ``cls(...)`` in one of the class's classmethods is one. A
call ``f(**d)`` counts once for each non-empty dict literal of its file whose keys
are all parameters of ``f``. Test files do not count as callers.

``ALLOWED``, ``NOMINAL`` and ``OVERRIDDEN`` list the exceptions with the reason,
and each fails once its entry is no longer needed, so none can go stale. Every
public exception class must be the expected exception of some ``pytest.raises``
under ``tests/``, so each failure path has a test that forces it. The settable
options must equal ``OPTIONS``, so that a new, removed or swapped option shows up
as a change to this file. No test module imports another, and no module-level
name is defined in two files under ``tests/``: what they share is defined once, in
``tests/support.py``.
"""

import ast
import importlib
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pinnpid"

# Settable options, sorted: the defaulted parameters of public functions and methods,
# __init__ included, as function.parameter, and the defaulted fields of public
# dataclasses that __init__ takes, as class.field.
OPTIONS = [
    "AdamConfig.alpha",
    "FeedforwardNet.backward_raw.buffers", "FeedforwardNet.backward_raw.cot_tangents",
    "FeedforwardNet.backward_raw.want_grads", "FeedforwardNet.forward_raw.buffers",
    "FeedforwardNet.forward_raw.tangent_rows",
    "ManipulatorParams.b_alpha", "ManipulatorParams.b_beta", "ManipulatorParams.gravity",
    "ManipulatorParams.i1", "ManipulatorParams.i2", "ManipulatorParams.l1",
    "ManipulatorParams.l2", "ManipulatorParams.lc1", "ManipulatorParams.lc2",
    "ManipulatorParams.m1", "ManipulatorParams.m2",
    "MsdParams.damping", "MsdParams.mass", "MsdParams.stiffness",
    "TrainConfig.lbfgs_iterations", "TrainConfig.optimizer",
    "TrainingDiverged.__init__.iteration", "TrainingDiverged.__init__.last_report",
]

# Kept without a caller, with the reason.
ALLOWED = {
    "manipulator_energy": "test oracle: energy conservation checks manipulator_rhs",
    "msd_state_space": "test oracle: the exact linear surrogate and Jacobian in the tests",
}

# Records whose defaulted fields no call sets, with the reason.
NOMINAL = {
    "ManipulatorParams": "the nominal arm; the benchmark takes it at its defaults, and "
                         "ROADMAP items 13 and 19 vary it",
    "MsdParams": "the nominal spring-damper; the benchmark takes it at its defaults, and "
                 "ROADMAP items 18 and 19 vary it",
}

# Defaults that every call overrides, with the reason.
OVERRIDDEN = {
    "TrainingDiverged.__init__.iteration": "bench/test_bench.py raises it with a message alone",
    "TrainingDiverged.__init__.last_report": "bench/test_bench.py raises it with a message alone",
}


def package_sources():
    return [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]


def caller_sources():
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "bench").rglob("*.py"))]
    return [f.read_text() for f in files if not f.name.startswith("test_")]


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


def references(sources):
    """Every name that the code of ``sources`` refers to: each Name and Attribute, each
    imported name, and each string constant. A comment is not code, and a docstring is
    a string constant that never equals a bare name."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def stale_allowances(refs):
    """The ALLOWED names among ``refs``, which have a caller, so need no exception."""
    return [name for name in ALLOWED if name in refs]


class Signature(NamedTuple):
    """The parameters of one public function, method or class ``__init__``, less
    self/cls; ``callee`` is the name its calls use, the class name for an ``__init__``."""
    owner: str
    callee: str
    positional: list
    keyword_only: list
    defaults: list


def decorated(node, name):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == name
               for d in node.decorator_list)


def function_signature(fn, owner, callee, skip):
    positional = [a.arg for a in [*fn.args.posonlyargs, *fn.args.args]]
    defaults = positional[len(positional) - len(fn.args.defaults):]
    defaults += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return Signature(owner, callee, positional[skip:], [a.arg for a in fn.args.kwonlyargs],
                     defaults)


def dataclass_fields(node):
    """(name, defaulted) of each field of a dataclass that its ``__init__`` takes."""
    for item in node.body:
        if not isinstance(item, ast.AnnAssign):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            given = {k.arg: k.value for k in value.keywords}
            if isinstance(given.get("init"), ast.Constant) and given["init"].value is False:
                continue
            yield item.target.id, "default" in given or "default_factory" in given
        else:
            yield item.target.id, value is not None


def signatures(sources=None):
    """The Signature of every public function and method and of every public class's
    ``__init__``, a dataclass's from its fields, in ``sources`` (default: the package)."""
    for source in package_sources() if sources is None else sources:
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield function_signature(node, node.name, node.name, 0)
                continue
            if decorated(node, "dataclass"):
                fields = list(dataclass_fields(node))
                yield Signature(node.name, node.name, [name for name, _ in fields], [],
                                [name for name, defaulted in fields if defaulted])
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name == "__init__" or not fn.name.startswith("_")):
                    yield function_signature(
                        fn, f"{node.name}.{fn.name}",
                        node.name if fn.name == "__init__" else fn.name,
                        0 if decorated(fn, "staticmethod") else 1)


def settable_options(sources=None):
    """``owner.param`` of every defaulted parameter in ``signatures(sources)``."""
    return [f"{sig.owner}.{param}" for sig in signatures(sources) for param in sig.defaults]


def changed_options(options):
    """(added, removed): the options missing from ``OPTIONS`` and those it has in excess."""
    return sorted(set(options) - set(OPTIONS)), sorted(set(OPTIONS) - set(options))


def calls_by_name(sources=None):
    """Every call in ``sources`` (default: the callers), keyed by the called name
    (``f(...)``, ``x.f(...)``, and the class for ``cls(...)`` in a classmethod), with
    the key sets of the non-empty string-keyed dict literals of its file."""
    calls = {}
    for source in caller_sources() if sources is None else sources:
        tree = ast.parse(source)
        dicts = [{k.value for k in node.keys} for node in ast.walk(tree)
                 if isinstance(node, ast.Dict) and node.keys and all(
                     isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.keys)]
        constructs = {}
        for cls in ast.walk(tree):
            for fn in cls.body if isinstance(cls, ast.ClassDef) else []:
                if (isinstance(fn, ast.FunctionDef) and decorated(fn, "classmethod")
                        and fn.args.args):
                    first = fn.args.args[0].arg
                    constructs.update((node, cls.name) for node in ast.walk(fn)
                                      if isinstance(node, ast.Call)
                                      and getattr(node.func, "id", None) == first)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = constructs.get(node) or (
                    func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
                calls.setdefault(name, []).append((node, dicts))
    return calls


def passed_sets(sig, calls):
    """The set of parameters of ``sig`` that each of its calls passes: by position
    (all of them through ``*args``) and by keyword; a call with ``**d`` counts once for
    each dict of its file whose keys are all parameters of ``sig``."""
    params = {*sig.positional, *sig.keyword_only}
    passed = []
    for call, dicts in calls.get(sig.callee, []):
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        named = set(sig.positional if starred else sig.positional[:len(call.args)])
        named.update(k.arg for k in call.keywords if k.arg)
        if all(k.arg for k in call.keywords):
            passed.append(named)
        else:
            passed += [named | keys for keys in dicts if keys <= params]
    return passed


def default_uses(sigs, calls):
    """(option, calls that set it, calls) of every defaulted parameter of ``sigs``."""
    for sig in sigs:
        passed = passed_sets(sig, calls)
        for param in sig.defaults:
            yield f"{sig.owner}.{param}", sum(param in p for p in passed), len(passed)


def unset_defaults(uses):
    """The options that no call sets, less the fields of the NOMINAL records."""
    return [option for option, n_set, _ in uses
            if n_set == 0 and option.rpartition(".")[0] not in NOMINAL]


def always_overridden(uses):
    """The options that some call sets and every call sets."""
    return [option for option, n_set, n_calls in uses if 0 < n_set == n_calls]


def stale_nominal(uses):
    """The NOMINAL records that have no defaulted field, or one that some call sets."""
    unset = {}
    for option, n_set, _ in uses:
        owner = option.rpartition(".")[0]
        if owner in NOMINAL:
            unset[owner] = unset.get(owner, True) and n_set == 0
    return [owner for owner in NOMINAL if not unset.get(owner, False)]


def test_every_public_name_has_a_caller():
    names = list(public_names())
    assert set(ALLOWED) <= {bare for _, _, bare in names}
    refs = references(caller_sources())
    unused = [f"{module}: {qualified}" for module, qualified, name in names
              if name not in ALLOWED and name not in refs]
    assert not unused, "used nowhere in src/ or bench/: " + ", ".join(unused)


def test_allowed_names_still_have_no_caller():
    stale = stale_allowances(references(caller_sources()))
    assert not stale, "allowed without a caller, but called in src/ or bench/: " + ", ".join(stale)


def test_an_allowed_name_that_gains_a_caller_is_stale():
    definition = "def manipulator_energy(p, x):\n    return 0.0\n"
    assert stale_allowances(references([definition, "e = manipulator_energy(ARM, x)"])) == [
        "manipulator_energy"]
    assert stale_allowances(references([definition])) == []


def test_a_name_in_a_docstring_or_comment_has_no_caller():
    prose = ('def f():\n    """Unlike manipulator_energy, f is no oracle."""\n'
             "    return 0  # manipulator_energy(ARM, x) would be one\n")
    assert "manipulator_energy" not in references([prose])
    for code in ("e = manipulator_energy(ARM, x)", "e = plants.manipulator_energy",
                 "from pinnpid.plants import manipulator_energy",
                 'Hook("pinnpid.plants", "manipulator_energy", "plants.energy")'):
        assert "manipulator_energy" in references([code])


def test_every_defaulted_parameter_is_set_by_a_caller():
    uses = list(default_uses(signatures(), calls_by_name()))
    assert uses
    stale = stale_nominal(uses)
    assert not stale, "kept in NOMINAL, but a call sets a field or none has a default: " + (
        ", ".join(stale))
    unset = unset_defaults(uses)
    assert not unset, "a default no call in src/ or bench/ overrides: " + ", ".join(unset)


def test_no_default_is_overridden_by_every_call():
    found = always_overridden(default_uses(signatures(), calls_by_name()))
    stale = sorted(set(OVERRIDDEN) - set(found))
    assert not stale, "kept in OVERRIDDEN, but some call takes the default: " + ", ".join(stale)
    kept = [name for name in found if name not in OVERRIDDEN]
    assert not kept, "a default every call in src/ or bench/ overrides: " + ", ".join(kept)


def uses_of(library, callers):
    """default_uses of the ``library`` source as called from ``callers``."""
    return list(default_uses(signatures([library]), calls_by_name(callers)))


def test_a_default_that_every_call_overrides_is_named():
    library = ("def f(a, b=1, *, c=2):\n    pass\n"
               "class C:\n    def __init__(self, x=0):\n        pass\n")
    assert always_overridden(uses_of(library, ["f(1, 2)", "f(1, b=3, c=4)", "C(5)", "g(x=1)"])) == [
        "f.b", "C.__init__.x"]
    assert always_overridden(uses_of(library, ["f(1)", "f(1, b=3, c=4)", "C()", "x.C(5)"])) == []
    assert always_overridden(uses_of(library, [])) == []  # no call: the test above names those


RECORD = """
@dataclass
class C:
    a: int
    b: int = 0
    c: str = "x"
    d: list = field(default_factory=list)
    e: float | None = field(default=None, init=False)
"""


def test_a_field_default_that_no_construction_sets_is_named():
    assert settable_options([RECORD]) == ["C.b", "C.c", "C.d"]  # not C.e: init=False
    uses = uses_of(RECORD, ["C(1, 2)", "C(a=1, b=3)"])
    assert unset_defaults(uses) == ["C.c", "C.d"]
    assert always_overridden(uses) == ["C.b"]


def test_a_field_default_that_every_construction_sets_is_named():
    uses = uses_of(RECORD, ["C(1, 2, 'y', [])", "x.C(a=1, b=3, c='z', d=[])"])
    assert always_overridden(uses) == ["C.b", "C.c", "C.d"]
    assert unset_defaults(uses) == []


def test_a_double_star_call_counts_once_for_each_dict_of_its_file():
    specs = "A = {'a': 1, 'b': 2}\nB = {'a': 1, 'b': 3, 'c': 'y'}\nZ = {'a': 1, 'z': 0}\nE = {}\n"
    uses = uses_of(RECORD, [specs + "C(**spec)"])
    assert uses == [("C.b", 2, 2), ("C.c", 1, 2), ("C.d", 0, 2)]
    assert always_overridden(uses) == ["C.b"]
    # a dict of another file is not read, so that call counts for nothing
    assert uses_of(RECORD, [specs, "C(**spec)"]) == [("C.b", 0, 0), ("C.c", 0, 0), ("C.d", 0, 0)]
    # a keyword beside ** is set in each reading
    assert uses_of(RECORD, [specs + "C(d=[], **spec)"])[2] == ("C.d", 2, 2)


def test_cls_in_a_classmethod_constructs_its_class():
    library = RECORD + """
    @classmethod
    def empty(cls):
        return cls(0)
"""
    uses = uses_of(library, [library, "C(1, 2, 'y', [])"])
    assert uses == [("C.b", 1, 2), ("C.c", 1, 2), ("C.d", 1, 2)]
    assert always_overridden(uses) == []
    # the same call outside a classmethod constructs nothing of C
    assert always_overridden(uses_of(library, ["def f(cls):\n    return cls(0)",
                                               "C(1, 2, 'y', [])"])) == ["C.b", "C.c", "C.d"]


def test_a_nominal_record_that_gains_a_setting_call_is_stale():
    library = "@dataclass\nclass MsdParams:\n    mass: float = 1.0\n    damping: float = 0.5\n"
    unset = uses_of(library, ["MsdParams()"])
    assert stale_nominal(unset) == ["ManipulatorParams"]  # absent here: no defaulted field
    assert unset_defaults(unset) == []
    assert stale_nominal(uses_of(library, ["MsdParams()", "MsdParams(mass=2.0)"])) == [
        "ManipulatorParams", "MsdParams"]


def test_settable_options_are_counted():
    options = settable_options()
    assert len(options) == len(set(options))
    added, removed = changed_options(options)
    assert sorted(options) == OPTIONS, (
        f"{len(options)} settable options, OPTIONS records {len(OPTIONS)}; added {added}, "
        f"removed {removed}: update OPTIONS and give the change, with the reason, in CHANGES.md")


def test_a_swapped_option_is_named():
    assert OPTIONS == sorted(OPTIONS)
    assert changed_options(OPTIONS) == ([], [])
    assert changed_options([*OPTIONS[1:], "f.x"]) == (["f.x"], [OPTIONS[0]])


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


def test_no_test_module_imports_another():
    # a name that two test modules need belongs in tests/support.py, or its copies drift
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # also "from tests import test_pid"
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name} imports {name}" for name in names
                      if any(part.startswith("test_") for part in name.split("."))]
    assert not found, "; ".join(found)


def module_level_names(source):
    """The names that a module's top level binds by ``def``, ``class`` or assignment."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def defined_twice(sources):
    """``name: files`` of each module-level name that two of ``sources`` (file name:
    source) define."""
    files = {}
    for name, source in sources.items():
        for defined in set(module_level_names(source)):
            files.setdefault(defined, []).append(name)
    return {defined: names for defined, names in files.items() if len(names) > 1}


def test_no_name_is_defined_in_two_test_files():
    # a second central_fd or MSD_RHS drifts from the first; tests/support.py holds the one
    found = defined_twice({path.name: path.read_text()
                           for path in sorted((ROOT / "tests").glob("*.py"))})
    assert not found, "; ".join(f"{name} in {', '.join(files)}" for name, files in found.items())


def test_a_name_defined_in_two_files_is_named():
    sources = {"a.py": "def central_fd(f, x, h):\n    pass\nX, Y = 1, 2\n",
               "b.py": "class Spy:\n    def central_fd(self):\n        pass\nY: int = 3\n",
               "c.py": "MSD_RHS = None\nSpy = None\nfrom tests.support import central_fd\n"}
    assert defined_twice(sources) == {"Y": ["a.py", "b.py"], "Spy": ["b.py", "c.py"]}
