"""Importing the package loads numpy alone; scipy loads where it is called.

Each check runs in a fresh interpreter.  This test session has imported
scipy modules already (``test_special`` imports ``scipy.integrate``), so
a call site that wrongly relied on an earlier import would pass in process.
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

import zetapair
import zetapair.zeros

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "zetapair"
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
    ("zetapair.sine_integral(2.0)", "scipy.special"),
    ("float(zetapair.zeros.gram_point(1000))", "scipy.special"),
    ("complex(np.sum(zetapair.special.zeta_em(1.0 + 1j * np.linspace(6000.0, 6600.0, 4000))))",
     "scipy.sparse"),
    ("zetapair.ft_one_over_xsq_check([0.5]).max_residual", "scipy.integrate"),
    ("zetapair.averaged_alpha_recovery(100.0).integral_value", "scipy.integrate"),
])
def test_each_call_site_imports_what_it_calls(expr, module):
    out = run_fresh(
        "import sys\nimport numpy as np\nimport zetapair, zetapair.zeros\n"
        f"assert not {SCIPY_LOADED}\n"
        f"print(repr({expr}), {module!r} in sys.modules)"
    )
    assert out == f"{eval(expr)!r} True\n"


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


@pytest.mark.parametrize("name", sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")
))
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
