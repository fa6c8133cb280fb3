"""Print each line of ``src/pairrank`` that an in-process tier-1 run never executes.

Usage, from the repository root::

    python tests/tools/untested_lines.py            # the whole tier-1 suite
    python tests/tools/untested_lines.py tests/test_solver.py -k Boundary

Arguments go to pytest unchanged.  The suite runs in this interpreter under
a ``sys.settrace`` line tracer (and ``threading.settrace`` for threads it
starts), installed before ``pairrank`` is imported so module-level lines
count.  Afterwards every executable line of ``src/pairrank/*.py`` that no
test reached is printed as ``path:line: source``, then one summary line.

Not traced: tests that run the CLI in a subprocess (``_run_cli`` in
``tests/test_cli.py``, criterion 10's reruns), so a line that only they
reach is listed too.  The tracer slows the suite down several times.

Needs nothing beyond the standard library and pytest.  pytest does not
collect this file: it is not named ``test_*.py``.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "pairrank"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode anywhere in the module's code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    sources = {os.path.realpath(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {real: set() for real in sources}
    targets: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in targets:
            targets[name] = hit.get(os.path.realpath(name))
        lines = targets[name]
        if lines is None:
            return None
        # A call runs the def line's RESUME, which emits no line event.
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for real, path in sources.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - hit[real]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} executable lines in src/pairrank not run in-process "
          f"(pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
