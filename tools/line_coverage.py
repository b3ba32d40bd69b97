"""Line coverage of src/ultragram under the Tier-1 tests, with the standard library only.

    python3 tools/line_coverage.py

Runs the Tier-1 suite (tests/, Hypothesis seed 0) in this process under a sys.settrace
hook that records line events in frames whose code comes from src/ultragram, and no
others.  A line is executable when the code compiled from its file maps an instruction
to it.  The script prints every executable line that no test reached and exits 1 when
one of them lies outside ALLOWED, when an ALLOWED entry no longer covers an unreached
line, or when a test fails.  Tracing makes the suite two to three times slower, so this
is a CI step of its own and not a test.
"""
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ultragram"

# (file, scope) -> why no test can run the scope's lines in process.  At most 5 entries,
# each with its reason; an entry is not a way round the gate.  A scope is the
# dotted name of a function ("Class.method") or "<module>" for a module's top level;
# the entry exempts only the lines whose innermost code object is that scope.
ALLOWED = {
    ("cli.py", "<module>"):
        "the __main__ guard's sys.exit(main()) runs only when cli.py is run as a script; "
        "the console script and the tests call main() directly",
    ("presentations.py", "SubfieldPresentation.monomial_term"):
        "nothing in src/ calls it; bench/tracer.py patches it by name, so it stays "
        "until the tracer's table stops naming it",
}


def executable_lines(path: Path) -> dict[int, str]:
    """Each line an instruction of ``path`` maps to -> the innermost scope holding it."""
    scopes: dict[int, str] = {}

    def walk(code: types.CodeType, scope: str) -> None:
        for _, _, line in code.co_lines():
            if line:  # None for no line, 0 for a module's entry instruction
                scopes[line] = scope
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, const.co_name if scope == "<module>" else f"{scope}.{const.co_name}")

    walk(compile(path.read_text(), str(path), "exec"), "<module>")
    return scopes


def run_traced(pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Pytest's exit code, and the lines of src/ultragram each file reached."""
    import pytest

    hits: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        mine = ours.get(filename)
        if mine is None:
            mine = ours[filename] = Path(filename).resolve().parent == SRC
        return local if mine else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    reached: dict[Path, set[int]] = {}
    for filename, line in hits:
        reached.setdefault(Path(filename).resolve(), set()).add(line)
    return int(code), reached


def main() -> int:
    from hypothesis import HealthCheck, settings

    # The tracer slows each test about threefold, so Hypothesis's timing checks stay with the
    # plain Tier-1 run; and no example saved in a local database reaches a line here.
    settings.register_profile("line-coverage", deadline=None, database=None,
                              suppress_health_check=[HealthCheck.too_slow])
    code, reached = run_traced(["-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0",
                                "--hypothesis-profile", "line-coverage",
                                "--continue-on-collection-errors", str(ROOT / "tests")])
    if code != 0:
        print(f"line coverage: the tests failed (pytest exit code {code})")
        return 1
    total = 0
    unreached: list[tuple[Path, int, str]] = []
    for path in sorted(SRC.glob("*.py")):
        scopes = executable_lines(path)
        total += len(scopes)
        seen = reached.get(path, set())
        unreached += [(path, line, scopes[line]) for line in sorted(scopes) if line not in seen]
    used = set()
    failed = False
    for path, line, scope in unreached:
        text = path.read_text().splitlines()[line - 1].strip()
        key = (path.name, scope)
        if key in ALLOWED:
            used.add(key)
            print(f"allowed   {path.relative_to(ROOT)}:{line} ({scope}): {text}")
        else:
            failed = True
            print(f"UNREACHED {path.relative_to(ROOT)}:{line} ({scope}): {text}")
    for key in sorted(set(ALLOWED) - used):
        failed = True
        print(f"STALE     allow-list entry {key}: every line of that scope is reached")
    print(f"line coverage: {total - len(unreached)} of {total} executable lines of "
          f"{SRC.relative_to(ROOT)} reached, {len(unreached)} unreached, "
          f"{sum(1 for p, _, s in unreached if (p.name, s) in ALLOWED)} of them allowed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
