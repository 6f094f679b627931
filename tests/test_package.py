import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_one_blas_thread_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import os, ifipm; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == expected


def test_every_public_name_resolves():
    # a stale __all__ entry would break `from ifipm.<module> import *` and
    # any tool that looks up each listed name
    import ast
    import importlib
    import pkgutil

    import ifipm

    modules = [info.name for info in pkgutil.iter_modules(ifipm.__path__)
               if info.name != "__main__"]
    assert "newton" in modules
    for name in modules:
        module = importlib.import_module(f"ifipm.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"ifipm.{name}.__all__ lists missing {attr!r}"
    tree = ast.parse((SRC / "ifipm" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for attr in imported:
        assert hasattr(ifipm, attr), f"ifipm lacks {attr!r}"
