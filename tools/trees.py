"""Import the progressio package of a given src directory under a name of its own.

Two trees (this one and, say, a parent commit's) can then be loaded side by side:

    poly = load(Path("OTHER/src"), "parent", "poly")
"""

import importlib
import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent / "src"  # this tree's src


def load(src: Path, name: str, module: str):
    """The submodule ``module`` of the package under src, imported as ``name``.

    Any submodule loads, also one that the package ``__init__`` does not import.
    """
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, src / "progressio" / "__init__.py",
            submodule_search_locations=[str(src / "progressio")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.{module}")
