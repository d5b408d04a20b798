"""A module loads numpy and the package modules it imports; scipy loads where it is called.

Each check runs in a fresh interpreter.  This test session has imported
scipy modules already (``test_special`` imports ``scipy.integrate``), so
a call site that wrongly relied on an earlier import would pass in process.
The source also keeps to the numpy and scipy APIs of the oldest versions
it supports.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zetapair.identities
import zetapair.special
import zetapair.zeros

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
PACKAGE = Path(SRC) / "zetapair"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_cli_loads_no_scipy():
    assert run_fresh(f"import sys, zetapair, zetapair.cli; print({SCIPY_LOADED})") == "[]\n"


# each call site, with the scipy module that only it loads; the zeta_em band
# (N = 4100 terms at 4000 points) takes the nonuniform FFT, the only user of
# scipy.sparse
@pytest.mark.parametrize("expr, module", [
    ("zetapair.special.sine_integral(2.0)", "scipy.special"),
    ("float(zetapair.zeros.gram_point(1000))", "scipy.special"),
    ("complex(np.sum(zetapair.special.zeta_em(1.0 + 1j * np.linspace(6000.0, 6600.0, 4000))))",
     "scipy.sparse"),
    ("zetapair.identities.ft_one_over_xsq_check([0.5]).max_residual", "scipy.integrate"),
    ("zetapair.identities.averaged_alpha_recovery(100.0).integral_value", "scipy.integrate"),
])
def test_each_call_site_imports_what_it_calls(expr, module):
    out = run_fresh(
        "import sys\nimport numpy as np\n"
        "import zetapair.identities, zetapair.special, zetapair.zeros\n"
        f"assert not {SCIPY_LOADED}\n"
        f"print(repr({expr}), {module!r} in sys.modules)"
    )
    assert out == f"{eval(expr)!r} True\n"


def own_imports(name: str) -> list[str]:
    """The package modules that importing zetapair.<name> loads: the closure
    of the module-level ``from .x import`` and ``from . import x`` statements."""
    seen, todo = set(), [name]
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            for node in ast.parse((PACKAGE / f"{mod}.py").read_text()).body:
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    todo += [node.module] if node.module else [a.name for a in node.names]
    return sorted({"zetapair"} | {f"zetapair.{m}" for m in seen})


@pytest.mark.parametrize("name", MODULES)
def test_a_module_loads_only_what_it_imports(name):
    out = run_fresh(f"import sys, zetapair.{name}\n"
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'zetapair'))")
    assert out == f"{own_imports(name)}\n"


def test_no_module_imports_another_modules_private_names():
    # a module's private names are its own; another module that needs one
    # needs a public way in instead
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} import "
                          f"{alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    # a public name missing from __all__ is an export nobody declared, and a
    # stale entry names a function or class that was deleted or made private
    mod = importlib.import_module(f"zetapair.{name}")
    assert all(hasattr(mod, entry) for entry in mod.__all__)
    defined = {
        attr for attr, obj in vars(mod).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__ and not attr.startswith("_")
    }
    exported = {
        entry for entry in mod.__all__
        if inspect.isfunction(getattr(mod, entry)) or inspect.isclass(getattr(mod, entry))
    }
    assert exported == defined


# numpy names that numpy 1.24, the oldest the package supports, lacks: added
# in 1.25 and 2.x, or (bool, long) removed in 1.24 and added back in 2.0
NEWER_THAN_NUMPY_1_24 = {
    "numpy": {
        "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
        "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "bool",
        "concat", "cumulative_prod", "cumulative_sum", "dtypes", "exceptions",
        "isdtype", "long", "matrix_transpose", "matvec", "permute_dims", "pow",
        "strings", "trapezoid", "ulong", "unique_all", "unique_counts",
        "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat",
    },
    "numpy.linalg": {
        "cross", "diagonal", "matrix_norm", "matrix_transpose", "outer",
        "svdvals", "tensordot", "trace", "vecdot", "vector_norm",
    },
}


def numpy_names(tree: ast.AST) -> set[str]:
    """Dotted numpy names a module reads, as np.x, np.linalg.x or a from-import."""
    aliases = {"np": "numpy", "numpy": "numpy"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in NEWER_THAN_NUMPY_1_24:
            found |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.add(f"{aliases[base.id]}.{node.attr}")
            elif (isinstance(base, ast.Attribute) and base.attr == "linalg"
                  and isinstance(base.value, ast.Name) and base.value.id in aliases):
                found.add(f"numpy.linalg.{node.attr}")
    return found


def test_numpy_names_exist_in_numpy_1_24():
    # stands in for the oldest-deps CI leg where numpy 1.24 is not installed
    paths = sorted(p for d in ("src", "tests", "tools", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 10
    newer = {f"{mod}.{name}" for mod, names in NEWER_THAN_NUMPY_1_24.items() for name in names}
    found = sorted(f"{path.relative_to(ROOT)}: {name}" for path in paths
                   for name in numpy_names(ast.parse(path.read_text(), str(path))) & newer)
    assert found == []


def test_numpy_scan_finds_newer_names():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import vector_norm\n"
                     "x = np.concat([np.trapezoid(y), np.linalg.vecdot(a, b), np.bool_(1)])")
    assert numpy_names(tree) >= {"numpy.concat", "numpy.trapezoid", "numpy.linalg.vecdot",
                                 "numpy.linalg.vector_norm"}
    assert "numpy.bool" not in numpy_names(tree)


# every scipy name the code reads, each checked to exist in scipy 1.10, the
# oldest the package supports; a new name fails the scan until it is checked
# against 1.10 and added here
SCIPY_1_10_NAMES = {
    "scipy.special.sici", "scipy.special.lambertw", "scipy.special.exp1",
    "scipy.integrate.quad", "scipy.fft.next_fast_len", "scipy.sparse.csc_matrix",
    "scipy.__version__",
}


def scipy_names(tree: ast.AST) -> set[str]:
    """Dotted scipy names a module reads, as a from-import or a full attribute chain."""
    aliases = {"scipy": "scipy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname: a.name for a in node.names
                        if a.asname and a.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            aliases |= {a.asname or a.name: f"scipy.{a.name}" for a in node.names}
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("scipy.")):
            found |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.add(".".join([aliases[base.id], *reversed(chain)]))
    return found


def test_scipy_names_exist_in_scipy_1_10():
    # stands in for the oldest-deps CI leg where scipy 1.10 is not installed
    paths = sorted(p for d in ("src", "tests", "tools", "perfbench") for p in (ROOT / d).rglob("*.py"))
    found = {(str(path.relative_to(ROOT)), name) for path in paths
             for name in scipy_names(ast.parse(path.read_text(), str(path)))}
    assert sorted(f"{path}: {name}" for path, name in found if name not in SCIPY_1_10_NAMES) == []
    # the scan sees every listed name, so the list keeps no stale entry
    assert {name for _, name in found} == SCIPY_1_10_NAMES


def test_scipy_scan_finds_planted_names():
    tree = ast.parse("import scipy.sparse\nimport scipy.stats as st\n"
                     "from scipy import differentiate\nfrom scipy.integrate import cumulative_simpson\n"
                     "x = scipy.sparse.csr_array(a) + st.qmc.Sobol(2) + differentiate.derivative(f, 1)")
    assert scipy_names(tree) == {"scipy.sparse.csr_array", "scipy.stats.qmc.Sobol",
                                 "scipy.differentiate.derivative",
                                 "scipy.integrate.cumulative_simpson"}
