"""Line and branch coverage of src/ultragram under the Tier-1 tests, with the standard library only.

    python3 tools/line_coverage.py

Runs the Tier-1 suite (tests/, Hypothesis seed 0) in this process under sys.monitoring
(CPython 3.12 and later) LINE and BRANCH callbacks; on an interpreter without it the script
says so and exits 1.  A callback returns DISABLE for code outside src/ultragram, for a line
once it is hit and for a jump once it has gone both ways, so the run costs about the
suite's own time.

A line is executable when the code compiled from its file maps an instruction to it.  A
jump is a POP_JUMP_IF_* or FOR_ITER instruction of that code, keyed by its code object's
qualified name and first line and its offset.  A condition is the source expression that
one or more jumps of a code object test, keyed by their common position: CPython compiles
a ``while`` test twice, before the first pass and after each pass, and a condition went
both ways when its jumps together did, whichever copy took which way.  One kind of jump is
left out by rule: the POP_JUMP_IF_FALSE right after CHECK_EXC_MATCH, which tests an
``except`` clause's type.  Its other way is "some other exception propagates", which no
source line writes.

The script prints every executable line that no test reached and every condition that went
one way or never ran, with the expression it tests and what that expression did.  It
exits 1 when one of them lies outside ALLOWED_LINES and ALLOWED_BRANCHES, when an entry of
either no longer covers anything, when either is over its limit, or when a test fails.
"""
import dis
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ultragram"

# (file, scope) -> why no test can run the scope's lines in process.  At most 5 entries,
# each with its reason; an entry is not a way round the gate.  A scope is a code object's
# qualified name ("Class.method") or "<module>" for a module's top level; the entry
# exempts only the lines whose innermost code object is that scope.
ALLOWED_LINES = {
    ("cli.py", "<module>"):
        "the __main__ guard's sys.exit(main()) runs only when cli.py is run as a script; "
        "the console script and the tests call main() directly",
    ("presentations.py", "SubfieldPresentation.monomial_term"):
        "nothing in src/ calls it; bench/tracer.py patches it by name, so it stays "
        "until the tracer's table stops naming it",
}

# (file, scope, stripped source line, what the condition did) -> why a condition of that
# line does that one thing by the shape of the code, not by dead logic.  At most 10
# entries, each with its reason.  An entry exempts one condition: a second condition of
# its line that did the same thing is reported.
ALLOWED_BRANCHES = {
    ("cli.py", "<module>", 'if __name__ == "__main__":', "always false"):
        "the __main__ guard is false whenever cli.py is imported, as the tests do",
    ("extensions.py", "span_closure_basis.<locals>.<genexpr>",
     "index = next(i for i, g in enumerate(generators, start=1) if leading_term(g, prec) is None)",
     "never ran out"):
        "next() stops the generator at the generator with no witnessed term",
    ("groups.py", "Subgroup._basis.<locals>.<genexpr>",
     "pivots = [next(j for j, c in enumerate(row) if c) for row in rows]", "never ran out"):
        "next() stops the generator at the row's pivot, which every Hermite row has",
    ("series.py", "custom_powers.<locals>.gen", "for i in count():", "never ran out"):
        "custom_powers is an endless stream: count() never runs out",
    ("series.py", "<module>",
     '_CAST = {memoryview(bytes(8)).cast(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}',
     "always true"):
        "the platform switch: a host has one byte order",
}

# what a jump's tested value did, when the jump only fell through and when it only jumped
ONE_WAY = {
    "POP_JUMP_IF_FALSE": ("always true", "always false"),
    "POP_JUMP_IF_TRUE": ("always false", "always true"),
    "POP_JUMP_IF_NONE": ("never None", "always None"),
    "POP_JUMP_IF_NOT_NONE": ("always None", "never None"),
    "FOR_ITER": ("never ran out", "never gave an item"),
}


def _scopes(path: Path):
    """Every code object compiled from ``path``, each before the ones it holds."""
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        yield code
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]


def _code_key(code: types.CodeType) -> tuple:
    """A code object's qualified name, first line and last source position.  Code objects
    of one name and first line are genexprs or lambdas of one line, side by side in one
    scope: their source spans are disjoint, so their last positions differ."""
    ends = [(p[1], p[3]) for p in code.co_positions() if p[1] is not None and p[3] is not None]
    return code.co_qualname, code.co_firstlineno, max(ends, default=None)


def static_tables(path: Path):
    """``path``'s executable lines -> innermost scope, its jumps -> (condition, fall-through
    offset, the two phrases of ONE_WAY), and its conditions -> (scope, line, tested source).

    A jump is keyed by its code object's _code_key and its offset, as the BRANCH callback
    sees it, and a condition by that _code_key and the position its jumps span.  A jump's fall-through is the offset of the next instruction.
    """
    source = path.read_text().splitlines()
    lines: dict[int, str] = {}
    jumps: dict[tuple, tuple] = {}
    conditions: dict[tuple, tuple] = {}
    for code in _scopes(path):
        for _, _, line in code.co_lines():
            if line:  # None for no line, 0 for a module's entry instruction
                lines[line] = code.co_qualname
        instructions = list(dis.get_instructions(code))
        for before, jump, after in zip([None] + instructions, instructions, instructions[1:]):
            if jump.opname in ONE_WAY and not (before and before.opname == "CHECK_EXC_MATCH"):
                line, end, start, stop = jump.positions
                condition = (_code_key(code), jump.positions)
                tested = source[line - 1][start:stop] if line == end else source[line - 1][start:] + " ..."
                conditions[condition] = (code.co_qualname, line, tested)
                jumps[(*_code_key(code), jump.offset)] = (
                    condition, after.offset, ONE_WAY[jump.opname])
    return lines, jumps, conditions


def run_monitored(pytest_args: list[str]):
    """Pytest's exit code, the (path, line) pairs of src/ultragram reached, and the
    destinations of each jump there, keyed (path, *_code_key, offset)."""
    import pytest

    monitoring = sys.monitoring
    tool, disable = monitoring.COVERAGE_ID, monitoring.DISABLE
    paths: dict = {}  # a code object's file name -> its path when in src/ultragram, else None
    ours: dict = {}  # id(code) -> (code, (path, *_code_key) when in src/ultragram, else None)
    hits: set[tuple[Path, int]] = set()
    ways: dict[tuple, set[int]] = {}

    def mine(code):  # keyed by id, cheaper than a code object's hash: the kept code keeps its id unique
        if id(code) not in ours:
            if code.co_filename not in paths:
                path = Path(code.co_filename).resolve()
                paths[code.co_filename] = path if path.parent == SRC else None
            path = paths[code.co_filename]
            ours[id(code)] = (code, (path, *_code_key(code)) if path else None)
        return ours[id(code)][1]

    def on_line(code, line):
        where = mine(code)
        if where:
            hits.add((where[0], line))
        return disable

    def on_branch(code, offset, destination):
        where = mine(code)
        if not where:
            return disable
        seen = ways.setdefault((*where, offset), set())
        seen.add(destination)
        return disable if len(seen) > 1 else None

    monitoring.use_tool_id(tool, "ultragram line and branch coverage")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.register_callback(tool, monitoring.events.BRANCH, on_branch)
    monitoring.set_events(tool, monitoring.events.LINE | monitoring.events.BRANCH)
    try:
        code = pytest.main(pytest_args)
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    return int(code), hits, ways


def main() -> int:
    if not hasattr(sys, "monitoring"):
        print(f"line coverage: Python {sys.version.split()[0]} has no sys.monitoring; run it on 3.12 or later")
        return 1
    if len(ALLOWED_LINES) > 5 or len(ALLOWED_BRANCHES) > 10:
        print("line coverage: an allow-list is over its limit of 5 line scopes or 10 branch entries")
        return 1
    from hypothesis import settings

    # no example saved in a local database reaches a line here
    settings.register_profile("line-coverage", database=None)
    code, hits, ways = run_monitored(["-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0",
                                      "--hypothesis-profile", "line-coverage",
                                      "--continue-on-collection-errors", str(ROOT / "tests")])
    if code != 0:
        print(f"line coverage: the tests failed (pytest exit code {code})")
        return 1
    # (tag, path, line, scope, note, allowed) of each unreached line, then of each partial condition
    findings: list[tuple] = []
    used: set[tuple] = set()
    lines_total = conditions_total = jumps_total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines, jumps, conditions = static_tables(path)
        lines_total += len(lines)
        conditions_total += len(conditions)
        jumps_total += len(jumps)
        for line, scope in sorted(lines.items()):
            if (path, line) not in hits:
                used.add((path.name, scope))
                findings.append(("UNREACHED", path, line, scope, "", (path.name, scope) in ALLOWED_LINES))
        did: dict[tuple, set[str]] = {condition: set() for condition in conditions}
        for key, (condition, fall, (stayed, jumped)) in jumps.items():
            did[condition].update(stayed if to == fall else jumped for to in ways.get((path, *key), ()))
        for condition, (scope, line, tested) in sorted(conditions.items(), key=lambda kv: kv[1][1]):
            if len(did[condition]) < 2:
                tag, how = ("ONE-WAY", *did[condition]) if did[condition] else ("NEVER RAN", "never ran")
                key = (path.name, scope, source[line - 1].strip(), how)
                findings.append((tag, path, line, scope, f" {tested!r} {how}", key in ALLOWED_BRANCHES and key not in used))
                used.add(key)
    for tag, path, line, scope, note, allowed in findings:
        print(f"{'allowed' if allowed else tag:<9} {path.relative_to(ROOT)}:{line} ({scope}){note}: "
              f"{path.read_text().splitlines()[line - 1].strip()}")
    stale = sorted((ALLOWED_LINES.keys() | ALLOWED_BRANCHES.keys()) - used)
    for key in stale:
        print(f"STALE     allow-list entry {key}: it covers no unreached line or partial condition")
    unreached = [f for f in findings if f[0] == "UNREACHED"]
    partial = [f for f in findings if f[0] != "UNREACHED"]
    print(f"line coverage: {lines_total - len(unreached)} of {lines_total} executable lines of "
          f"{SRC.relative_to(ROOT)} reached, {len(unreached)} unreached, "
          f"{sum(f[5] for f in unreached)} of them allowed")
    print(f"branch coverage: {conditions_total - len(partial)} of {conditions_total} conditions "
          f"({jumps_total} jumps) went both ways, "
          f"{len(partial)} did not, {sum(f[5] for f in partial)} of them allowed")
    return 0 if not stale and all(f[5] for f in findings) else 1


if __name__ == "__main__":
    sys.exit(main())
