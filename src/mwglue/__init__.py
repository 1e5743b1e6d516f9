"""Exact-arithmetic descent tools for elliptic curves glued into genus-2 Jacobians.

The API lives in the submodules (`mwglue.arith`, `mwglue.descent`, ...).
Each is registered here as a lazy module that runs its code on first
attribute access, so a process compiles only the modules it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """Register mwglue.<name> as a module that loads on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every submodule but `cli`, which `python -m mwglue.cli` runs as __main__, and
# `record`, whose `Record` the modules with value classes bind by name as they
# run, so it would load at once anyway.
for _name in ("arith", "descent", "ellcurve", "etale", "example", "family", "fixtures", "glue", "poly",
              "squares", "torsion"):
    globals()[_name] = _lazy(_name)
