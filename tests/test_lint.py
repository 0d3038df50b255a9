"""Static checks on the package source that no installed linter covers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermiwire

SRC = Path(__file__).resolve().parents[1] / "src" / "fermiwire"
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
    # scan and the occupation and phonon tables run without numpy, and its
    # import (about 0.1 s) would add to every command's start-up
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
