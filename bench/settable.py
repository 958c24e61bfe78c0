"""Count the values a caller of vofie's public API can set.

    python3 bench/settable.py [--src SRC] [--list]

For each name in vofie.__all__ it counts every parameter of a function,
and of a class every parameter of its __init__ (a dataclass's init
fields) and of its public methods (names without a leading "_"), as the
class or its vofie bases define them. self and cls are not counted, nor
are properties, nor what a class inherits from outside vofie (an
exception's with_traceback). It prints the total; --list prints each
value as name(parameter) too. --src names the source tree to import vofie
from (default: this checkout's src/), so one script counts two checkouts.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _params(func) -> list[str]:
    names = list(inspect.signature(func).parameters)
    return [p for p in names if p not in ("self", "cls")]


def settable(module) -> list[str]:
    """Each settable value of module's __all__, as 'name(parameter)'."""
    values = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            values += [f"{name}({p})" for p in _params(obj)]
        if not inspect.isclass(obj):
            continue
        seen = set()
        for base in obj.__mro__:
            if not base.__module__.startswith(module.__name__):
                continue
            for attr, member in vars(base).items():
                if attr in seen or (attr.startswith("_") and attr != "__init__"):
                    continue
                seen.add(attr)
                if inspect.isfunction(member):
                    label = name if attr == "__init__" else f"{name}.{attr}"
                    values += [f"{label}({p})" for p in _params(member)]
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import vofie from")
    parser.add_argument("--list", action="store_true", help="print each settable value")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    values = settable(importlib.import_module("vofie"))
    if args.list:
        print("\n".join(values))
    print(f"settable values: {len(values)}")


if __name__ == "__main__":
    main()
