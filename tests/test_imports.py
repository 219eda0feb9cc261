"""What importing a part of berg loads, each in a fresh interpreter."""

import json
import os
import subprocess
import sys


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    script = f"import sys; {statement}; import json; print(json.dumps(sorted(sys.modules)))"
    # the child finds berg where this interpreter does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True).stdout
    return set(json.loads(out))


def _berg(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "berg" or m.startswith("berg.")}


def test_import_berg_loads_no_submodule():
    assert _berg(_loaded_after("import berg")) == {"berg"}


def test_exact_scalars_load_no_numpy():
    assert "numpy" not in _loaded_after("import berg.scalars")


def test_fits_load_neither_monte_carlo_nor_deck_sums():
    loaded = _berg(_loaded_after("import berg.algebraic"))
    assert "berg.algebraic" in loaded
    assert not loaded & {"berg.verify", "berg.quotient"}
