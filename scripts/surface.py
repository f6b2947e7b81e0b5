"""Print hspex's settable surface: defaulted parameters and CLI flags.

    python3 scripts/surface.py [--src DIR]

Imports the hspex package found in DIR (default: this checkout's src/) and
prints one line per defaulted parameter of every callable in
``hspex.__all__`` (a class counts with its constructor, so a dataclass
field with a default is one) and one line per (command, flag) pair of
``hspex.cli.build_parser()``, sorted, then a line with both counts.  Run
on two trees and diffed, it shows each setting a change adds or removes
the way a diff shows added and removed lines.  Uses only the stdlib.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path


def defaulted_parameters(hspex) -> list[str]:
    out = []
    for name in hspex.__all__:
        obj = getattr(hspex, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # builtin signatures, such as an exception's
            continue
        out += [f"{name}({p.name}={p.default!r})" for p in params
                if p.default is not inspect.Parameter.empty]
    return sorted(out)


def cli_flags(parser: argparse.ArgumentParser, command: tuple[str, ...] = ()) -> list[str]:
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out += cli_flags(sub, command + (name,))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.append(f"{' '.join(command)} {max(action.option_strings, key=len)}")
    return sorted(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the hspex package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import hspex
    from hspex.cli import build_parser

    params = defaulted_parameters(hspex)
    flags = cli_flags(build_parser())
    for line in params:
        print(f"parameter {line}")
    for line in flags:
        print(f"flag      {line}")
    print(f"# {len(params)} defaulted parameters, {len(flags)} (command, flag) pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
