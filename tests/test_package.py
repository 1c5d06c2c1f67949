import importlib
import pkgutil
import subprocess
import sys

import levyfluct


def test_import_leaves_scipy_signal_unloaded():
    code = "import sys, levyfluct; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_integrate_unloaded():
    # every quadrature runs on the package's own array rule
    code = "import sys, levyfluct; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(levyfluct.__path__):
        module = importlib.import_module(f"levyfluct.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{info.name}.{name}"
