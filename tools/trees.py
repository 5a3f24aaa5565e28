"""Import the progressio package of a given src directory under a name of its own.

Two trees (this one and, say, a parent commit's) can then be loaded side by side:

    poly = load(Path("OTHER/src"), "parent", "poly")
"""

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent / "src"  # this tree's src


def load(src: Path, name: str, module: str):
    """The submodule ``module`` of the package under src, imported as ``name``."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, src / "progressio" / "__init__.py",
            submodule_search_locations=[str(src / "progressio")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[f"{name}.{module}"]
