"""Static checks on the package source that no installed linter covers."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fermiwire

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fermiwire"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"),
        (2, "tau"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def orphaned_helpers(sources):
    """Module-level _names (dunders aside) that no module in sources reads.

    sources maps a module name to its text; a read is a loaded name, an
    attribute or an imported name anywhere in any of them.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (module, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(
        (module, name)
        for module, name in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


def test_detector_flags_an_orphaned_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_A, (_B, _C) = 1, (2, 3)\ndef _kept():\n    return _B\n"
                "def _orphan():\n    pass\nclass _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _LIMIT\nimport a\nprint(a._kept(), _LIMIT)\n",
    }
    assert orphaned_helpers(sources) == [
        ("a.py", "_A"),
        ("a.py", "_C"),
        ("a.py", "_Gone"),
        ("a.py", "_orphan"),
    ]


def test_no_orphaned_helpers():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def unimported_tables(sources):
    """Upper-case names that sources["_kernel_tables.py"] assigns and no other
    module in sources imports from it."""
    tables = {name.id for node in ast.parse(sources["_kernel_tables.py"]).body
              if isinstance(node, ast.Assign)
              for target in node.targets for name in ast.walk(target)
              if isinstance(name, ast.Name) and name.id.isupper()}
    imported = {alias.name for source in sources.values()
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "_kernel_tables"
                for alias in node.names}
    return sorted(tables - imported)


def test_detector_flags_an_unimported_table():
    sources = {
        "_kernel_tables.py": '"""Tables."""\n\nA_ROWS = (1.0,)\nB_TOP = 2.0\nC = 3.0\n_d = 4.0\n',
        "a.py": "from ._kernel_tables import A_ROWS as _ROWS\nB_TOP = 1.0\n",
        "b.py": "from . import _kernel_tables\nprint(_kernel_tables.C)\n",
    }
    assert unimported_tables(sources) == ["B_TOP", "C"]


def test_every_table_is_imported():
    # a table no module imports is compiled on every start and never read
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unimported_tables(sources) == []


def module_level_imports(source, package="numpy"):
    """Lines of source that import package when the module is imported:
    outside every function body (class bodies and if/try blocks count).

    A package with leading dots, such as ".cli", names a relative import
    of that level: `from .cli import x` and `from . import cli` both match.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                prefix = "." * child.level + (child.module + "." if child.module else "")
                names = [prefix + alias.name for alias in child.names]
            else:
                names = []
            if any(name == package or name.startswith(package + ".") for name in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_detector_flags_a_module_level_numpy_import():
    source = (
        "import numpy as np\nfrom numpy import linalg\nimport numpyro\n"
        "if np:\n    import numpy.random\nclass A:\n    import numpy\n"
        "def f():\n    import numpy\n    return numpy\nfrom . import numpy\n"
    )
    assert module_level_imports(source) == [1, 2, 5, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_imported_on_use_only(path):
    # no command runs numpy, and its import (about 0.1 s) would add to
    # every command's start-up; only the two BoxSpectrum views import it
    assert module_level_imports(path.read_text()) == []


def test_detector_flags_a_module_level_relative_import():
    source = (
        "from .cli import main\nfrom . import cli, specfun\nfrom .client import x\n"
        "from ..cli import y\nimport cli\nif x:\n    from .cli import AxisSpec\n"
        "def f():\n    from .cli import _fmt\n    return _fmt\n"
    )
    assert module_level_imports(source, ".cli") == [1, 2, 7]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "__main__.py"], ids=lambda p: p.name
)
def test_cli_imported_by_entry_point_only(path):
    # cli imports the other modules (verify among them), so a module-level
    # import of cli anywhere else would close a cycle
    assert module_level_imports(path.read_text(), ".cli") == []


def absolute_imports(source, packages):
    """Lines of source that import one of packages, or a submodule of one,
    anywhere in it (function bodies included; relative imports are the
    package's own modules)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in packages for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_detector_flags_a_dataclasses_or_typing_import():
    source = (
        "import typing\nfrom dataclasses import dataclass\nimport typing_extensions\n"
        "def f():\n    import dataclasses\n    return dataclasses\nfrom . import typing\n"
        "import os, typing.re\nfrom collections import namedtuple\n"
    )
    assert absolute_imports(source, ("dataclasses", "typing")) == [1, 2, 5, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_records_are_plain_named_tuples(path):
    # one record style, collections.namedtuple; dataclasses and typing would
    # load inspect, ast, dis and tokenize into every start
    assert absolute_imports(path.read_text(), ("dataclasses", "typing")) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__main__.py"],
                         ids=lambda p: p.name)
def test_records_have_no_instance_dict(path):
    # every record class defines __slots__ = (), as namedtuple does, so a
    # record holds its fields alone and no attribute can be set on it
    module = importlib.import_module("fermiwire." + path.stem)
    records = [value for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, tuple)
               and value.__module__ == module.__name__]
    assert [cls.__name__ for cls in records
            if vars(cls).get("__slots__") != () or cls.__dictoffset__] == []


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # -S keeps site, and whatever its .pth files import, out of the probe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    probe = (
        "import sys, fermiwire.cli; "
        "print(sorted(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def float_info_reads(source):
    """Lines of source that read float_info, as sys.float_info or imported from sys."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "float_info":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name == "float_info" for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


def test_detector_flags_a_float_info_read():
    source = (
        "import sys\nx = sys.float_info.min\nfrom sys import float_info as info\n"
        "def f():\n    return sys.float_info.max\ny = 'sys.float_info'\nfrom sys import maxsize\n"
    )
    assert float_info_reads(source) == [2, 3, 5]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"], ids=lambda p: p.name
)
def test_float_info_read_in_errors_only(path):
    # the range rule for computed numbers, errors._normal, is the one place
    # that knows where the normal doubles end
    assert float_info_reads(path.read_text()) == []


def constructor_overrides(source):
    """(line, class name) of each def __new__ in a class body of source, nested classes included."""
    return sorted(
        (item.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__new__"
    )


def test_detector_flags_a_class_that_defines_new():
    source = (
        "class A(tuple):\n    def __new__(cls):\n        return super().__new__(cls)\n"
        "class B:\n    def _check(self):\n        return B.__new__\n"
        "def f():\n    class C:\n        def __new__(cls):\n            pass\n    return C\n"
        "def __new__(cls):\n    pass\n"
    )
    assert constructor_overrides(source) == [(2, "A"), (9, "C")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_checked_base_defines_new(path):
    # errors._Checked runs a record's _check on every construction and on _make,
    # so _replace too; a record's own __new__ would need its own _make as well
    expected = ["_Checked"] if path.name == "errors.py" else []
    assert [name for _, name in constructor_overrides(path.read_text())] == expected


def export_faults(sources):
    """Faults in the __all__ of each module that sources["__init__.py"] star-imports:
    no __all__, a listed name the module does not define, a name two modules list.

    sources maps a file name to its text.  A name bound by import is not
    defined there, so a star import cannot re-export it under a second owner.
    """
    faults, owner = [], {}
    for node in ast.parse(sources["__init__.py"]).body:
        if not (isinstance(node, ast.ImportFrom) and node.names[0].name == "*"):
            continue
        module = node.module + ".py"
        defined, exported = set(), None
        for stmt in ast.parse(sources[module]).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = {name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)}
                if "__all__" in bound:
                    exported = ast.literal_eval(stmt.value)
                defined |= bound
        if exported is None:
            faults.append((module, "no __all__"))
            continue
        for name in exported:
            if name not in defined:
                faults.append((module, "%s is not defined here" % name))
            if name in owner:
                faults.append((module, "%s is also exported by %s" % (name, owner[name])))
            owner.setdefault(name, module)
    return faults


def test_detector_flags_export_faults():
    sources = {
        "__init__.py": "from .a import *\nfrom .b import *\nfrom .c import *\nfrom .d import x\n",
        "a.py": "__all__ = ['f', 'K', 'gone']\ndef f():\n    pass\nK: int = 1\n",
        "b.py": "from .a import f\n__all__ = ['f', 'C']\nclass C:\n    pass\n",
        "c.py": "def g():\n    pass\n",
        "d.py": "x = 1\n",
    }
    assert export_faults(sources) == [
        ("a.py", "gone is not defined here"),
        ("b.py", "f is not defined here"),
        ("b.py", "f is also exported by a.py"),
        ("c.py", "no __all__"),
    ]


def test_star_imported_exports():
    # a name two modules export would be shadowed silently by the later star import
    assert export_faults({path.name: path.read_text() for path in SRC.glob("*.py")}) == []


PACKAGE_API = [
    "BoxSpectrum", "CLOSURE_RATIO", "ChainParameters", "ClosureResult", "CondensationError",
    "ConfigError", "ContinuumComparison", "ConvergenceError", "CorrespondenceReport",
    "DomainError", "GasParameters", "PhononMedium", "PhysicalConstants", "QuantumIntegralOrder",
    "Regime", "RegimeReport", "RegimeThresholds", "ResourceLimitError", "SingularityError",
    "Statistics", "ThermalState", "UnitSystem", "WireGeometry", "ZETA_THREE_HALVES",
    "classify_regime", "classify_wire", "closure_temperature", "compare_continuum",
    "constants_for", "correspondence_check", "debye_momentum", "debye_omega_max",
    "debye_wavelength", "direct_number_sum", "energy_density_1d", "enumerate_levels",
    "fermi_energy", "fermi_momentum", "fermi_temperature", "fermi_velocity",
    "number_integral_quasi1d", "occupation", "phonon_max_energy", "quantum_integral", "rhs_eq3",
    "sigma_critical", "solve_fugacity", "solve_log_fugacity", "solve_thermal_state",
    "thermal_wavelength", "truncation_bound",
]


def test_package_api():
    assert fermiwire.__all__ == PACKAGE_API
    for name in PACKAGE_API:
        getattr(fermiwire, name)


def third_party_imports(source, local):
    """Top-level names of the modules source imports anywhere (function bodies
    included) that are neither in the standard library nor in local."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def declared_test_extra(pyproject):
    """Lower-case names of the requirements in pyproject.toml's test extra, read
    without tomllib, which Python 3.10 lacks."""
    section = pyproject.split("[project.optional-dependencies]", 1)[1]
    listed = re.search(r"^test = \[(.*?)\]", section, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", item).group().lower()
            for item in re.findall(r'"([^"]+)"', listed)}


def test_detector_flags_third_party_imports():
    source = ("import numpy as np\nfrom mpmath import mp\nimport os.path\nfrom . import x\n"
              "import oracles\ndef f():\n    import scipy.special\n")
    assert third_party_imports(source, {"oracles"}) == {"numpy", "mpmath", "scipy"}
    assert declared_test_extra('[project.optional-dependencies]\ntest = [\n    "pytest>=7",\n'
                               '    "NumPy >= 1.24",\n]\n') == {"pytest", "numpy"}


def test_tests_import_only_what_the_test_extra_declares():
    # an install of ".[test]" must run the suite; numpy came in only as a
    # runtime dependency, which it is to stop being (ROADMAP item 14)
    local = {"fermiwire"} | {p.stem for d in ("tests", "bench") for p in (ROOT / d).glob("*.py")}
    imported = set().union(*(third_party_imports(path.read_text(), local)
                             for path in sorted((ROOT / "tests").glob("*.py"))))
    assert imported and sorted(imported - declared_test_extra(
        (ROOT / "pyproject.toml").read_text())) == []


# Standard-library functions newer than the floor that requires-python names, with
# the version that added each; a cube root is math.cbrt from 3.11 on only.
PYTHON_FLOOR = "3.10"
NEWER_THAN_FLOOR = {"math.cbrt": "3.11", "math.exp2": "3.11", "math.sumprod": "3.12",
                    "math.fma": "3.13"}


def newer_stdlib_uses(source):
    """(line, module.name) of each NEWER_THAN_FLOOR function that source reads: as
    an attribute of its module, under any alias, or imported by name."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = "%s.%s" % (aliases.get(node.value.id, node.value.id), node.attr)
            if name in NEWER_THAN_FLOOR:
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.extend((node.lineno, "%s.%s" % (node.module, alias.name)) for alias in node.names
                         if "%s.%s" % (node.module, alias.name) in NEWER_THAN_FLOOR)
    return sorted(found)


def test_detector_flags_a_stdlib_function_past_the_floor():
    source = ("import math\nimport math as m\nfrom math import fma, sqrt\n"
              "x = math.cbrt(8.0) + m.sumprod([1], [2])\ny = math.sqrt(2.0)\n"
              "def f(v):\n    return v.cbrt + math.exp2(1.0)\n")
    assert newer_stdlib_uses(source) == [(3, "math.fma"), (4, "math.cbrt"), (4, "math.sumprod"),
                                         (7, "math.exp2")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_keeps_to_the_python_floor(path):
    # the suite may run on a newer Python than the oldest one the package claims
    assert 'requires-python = ">=%s"' % PYTHON_FLOOR in (ROOT / "pyproject.toml").read_text()
    assert newer_stdlib_uses(path.read_text()) == []


def frexp_reads(source):
    """(line, enclosing function or None) of each read of math.frexp in source: as an
    attribute of math under any alias, or imported by name."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                    and aliases.get(child.value.id) == "math" and child.attr == "frexp"):
                found.append((child.lineno, function))
            elif (isinstance(child, ast.ImportFrom) and child.module == "math"
                  and any(alias.name == "frexp" for alias in child.names)):
                found.append((child.lineno, function))
            visit(child, function)

    visit(tree, None)
    return sorted(found)


def test_detector_flags_a_frexp_read():
    source = ("import math\nimport math as m\nfrom math import frexp as fx, ldexp\n"
              "def _split(x):\n    return math.frexp(x)\n"
              "def other(x):\n    f = m.frexp(x)\n    def inner():\n        return math.frexp\n"
              "    return f\ny = math.frexp(2.0)\nz = y.frexp\n")
    assert frexp_reads(source) == [(3, None), (5, "_split"), (7, "other"), (9, "inner"),
                                   (11, None)]


def test_mantissa_rule_has_one_home():
    # every dimensional formula takes its mantissas from specfun._split, so none
    # hand-rolls the exponent arithmetic of the mantissa rule again
    assert [(path.name, function) for path in sorted(SRC.glob("*.py"))
            for _, function in frexp_reads(path.read_text())] == [("specfun.py", "_split")]
