"""Line coverage of `src/quicscope` under the Tier-1 tests, with the standard
library only.

Runs pytest in this process under a `sys.settrace` tracer that is confined
to `src/quicscope`. A pytest plugin re-arms the tracer before each test's
setup and call, since a test can replace it, and a `sitecustomize` module
put first on `PYTHONPATH` starts the same tracer in every child Python
process the tests spawn. The executable lines of each module are counted
from the `co_lines()` of its code objects, nested code included, and the
lines that never ran are printed as `path:line` with their source.

Coverage is reported whatever the tests' outcomes are, and the exit status
is that of the tool, not of the tests: a tracer can change what a test
sees. The trace functions here keep no frame, so a test that counts
reference cycles, such as
`tests/test_probe.py::TestHarvest::test_handshakes_leave_no_reference_cycles`,
still passes. The run takes about two and a half times as long as Tier-1.

Run from the repository root, with any pytest arguments:

    python3 tools/linecov.py [-q] [tests/...]
"""

from __future__ import annotations

import inspect
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "quicscope"


def start(prefix: str, out: str):
    """Trace the lines run in files under `prefix` in this process and its
    threads; returns (arm, save): arm sets the tracer again, and save stops
    it and writes each (file, line) run to a new file `out*.tsv`. The
    function is self-contained, since its source is the child processes'
    sitecustomize."""
    import os
    import sys
    import tempfile
    import threading

    hits: set = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    def arm():
        sys.settrace(trace)
        threading.settrace(trace)

    def save():
        sys.settrace(None)
        threading.settrace(None)
        directory, stem = os.path.split(out)
        fd, _ = tempfile.mkstemp(prefix=stem, suffix=".tsv", dir=directory)
        with open(fd, "w") as fh:
            fh.writelines(f"{path}\t{line}\n" for path, line in hits)

    arm()
    return arm, save


_SITECUSTOMIZE = """import os

if "LINECOV_PREFIX" in os.environ:
{source}
    import atexit

    atexit.register(start(os.environ["LINECOV_PREFIX"], os.environ["LINECOV_OUT"])[1])
"""


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that some instruction of its code belongs to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if inspect.iscode(const))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    work = Path(tempfile.mkdtemp(prefix="linecov-"))
    try:
        source = "".join("    " + line if line.strip() else line for line in inspect.getsource(start).splitlines(True))
        (work / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(source=source))
        prefix, out = str(PACKAGE) + os.sep, str(work / "hits-")
        os.environ["LINECOV_PREFIX"], os.environ["LINECOV_OUT"] = prefix, out
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(work), str(SRC), os.environ.get("PYTHONPATH")]))
        sys.path.insert(0, str(SRC))
        arm, save = start(prefix, out)

        class Rearm:
            @pytest.hookimpl(tryfirst=True)
            def pytest_runtest_setup(self, item):
                arm()

            @pytest.hookimpl(tryfirst=True)
            def pytest_runtest_call(self, item):
                arm()

        os.chdir(ROOT)
        status = pytest.main(["-p", "no:cacheprovider", *argv], plugins=[Rearm()])
        save()
        run: dict[str, set[int]] = {}
        for hits in work.glob("hits-*.tsv"):
            for row in hits.read_text().splitlines():
                path, line = row.rsplit("\t", 1)
                run.setdefault(os.path.realpath(path), set()).add(int(line))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    total = missed = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - run.get(os.path.realpath(path), set()))
        total, missed = total + len(lines), missed + len(never)
        text = path.read_text().splitlines()
        report += [f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}" for n in never]
    print("\n".join(report))
    print(f"linecov: {total - missed} of {total} executable lines run, {missed} never run")
    print(f"linecov: pytest exited {int(status)}; the coverage counts every test run, passed or failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
