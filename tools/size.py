"""Size of the perpca package: the line count and the ``def``-parameter count of
``src/perpca``.

Run from the repository root::

    python tools/size.py              # the working tree
    python tools/size.py --base REV   # also REV's counts, read with `git show`, and the deltas

Lines are the newlines of every ``.py`` file, as ``wc -l`` counts them. Parameters are
counted over every ``def`` and ``async def``, lambdas excluded: each positional-only,
regular and keyword-only parameter counts 1, and so do ``*args`` and ``**kwargs``.
"""

import argparse
import ast
import subprocess
from pathlib import Path

PACKAGE = "src/perpca"


def parameters(source):
    """The number of ``def`` parameters in one module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
            count += (args.vararg is not None) + (args.kwarg is not None)
    return count


def size(sources):
    """``(lines, parameters)`` summed over module sources."""
    sources = list(sources)
    return sum(s.count("\n") for s in sources), sum(parameters(s) for s in sources)


def working_tree():
    return size(path.read_text() for path in sorted(Path(PACKAGE).rglob("*.py")))


def at_revision(rev):
    def git(*args):
        return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout

    names = git("ls-tree", "-r", "--name-only", rev, "--", PACKAGE).split()
    return size(git("show", f"{rev}:{name}") for name in names if name.endswith(".py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="a git revision to compare the working tree with")
    args = parser.parse_args(argv)
    lines, params = working_tree()
    if args.base:
        base_lines, base_params = at_revision(args.base)
        print(f"{PACKAGE} at {args.base}: {base_lines} lines, {base_params} def parameters")
    print(f"{PACKAGE} in the working tree: {lines} lines, {params} def parameters")
    if args.base:
        print(f"change: {lines - base_lines:+d} lines, {params - base_params:+d} def parameters")


if __name__ == "__main__":
    main()
