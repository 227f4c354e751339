#!/usr/bin/env python3
"""Mutation testing of one module against a pytest selection, stdlib only.

    python3 scripts/mutate.py src/edgeplane/audit.py tests
    python3 scripts/mutate.py src/edgeplane/policy.py tests/test_policy.py tests/test_acceptance.py

The module path is taken from the current directory; the selection (any
pytest arguments) is run from the repository root.  The script copies the
repository, without ``.git``, to a temporary directory once.  Then, one
mutant at a time, it writes the mutated module into that copy and runs
``pytest -x`` on the selection there, so the working tree is never written.
Each mutant changes one thing:

* a comparison operator flipped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``in``/``not in``, ``is``/``is not``;
* an ``and`` swapped with ``or`` (every operator of one boolean expression);
* an ``append(...)`` call statement or a ``continue`` statement dropped.

A mutant survives when the selection still passes.  The script prints the
mutant count and each survivor with its line.  Survivors listed in
``EQUIVALENT`` are printed apart with their reason.  Exit status: 0 when
every survivor is listed, 1 when one is not, 2 when the unmutated copy
already fails the selection.
"""

import ast
import bisect
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (module file name, the line before the mutated one, the mutated line, both
#: stripped; a dropped statement reads ``pass``) -> why no input tells the
#: mutant from the module.  Only a mutant that no input can tell apart belongs
#: here; one that the tests miss needs a test instead.
EQUIVALENT = {
    ("audit.py", "total_count = sum(expected.values())", "if total_weight > 0 and total_count  >=  0:"):
        "no instance in scope makes both sides of every comparison 0, so the loop finds nothing",
    ("audit.py", "# each in-scope instance once, weighted by its count: every check below passes", "pass"):
        "it only turns the skip off: the checks below find nothing in a rule the skip passes",
    ("documents.py", "kind = type(value)", "if kind is int  and  kind is str and _bare(value):"):
        "it only turns the inline branch off: `_nested` writes an int or a bare string the same way",
    ("documents.py", '"""Whether PyYAML writes the string ``text`` as a plain scalar in block context."""',
     'return (0  <=  len(text) <= 100 and " " not in text'):
        "the only string the bound then admits is the empty one, which PyYAML's resolver tags null",
    ("scenario.py", 'mark = getattr(exc, "problem_mark", None)',
     'if getattr(exc, "problem", None)  or  mark is not None:'):
        "every error the safe loaders raise has both a problem and its mark, or neither "
        "(a ValueError, or a ReaderError, whose message holds its position)",
    ("search.py", "queue.append(head[a])", "if level[sink]  <=  0:"):
        "the sink is never the source, so its level is never 0",
    ("search.py", "if level[sink] < 0:", "return flow, [lv  >  0 for lv in level]"):
        "only item vertices are read, and the source, the one vertex at level 0, is none",
    ("search.py", "if not below:", "pass"):
        "with no strict descendant a scope's cap is at least what the anchor's usable nodes in it fit, "
        "so it drops no split",
}

#: Address space of each test run, in bytes (``ulimit -v 2000000``): a mutant
#: that allocates without bound dies of MemoryError, which kills it.
MEMORY_LIMIT = 2_000_000 * 1024


def _limit_memory():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_limited(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` with the child's address space capped at :data:`MEMORY_LIMIT`."""
    return subprocess.run(args, preexec_fn=_limit_memory, **kwargs)


#: Each comparison operator and its flip: a bound made strict or loose, a test negated.
FLIP = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
}

#: An operator between two operands; comments come first so that nothing inside one matches.
_OPERATOR = re.compile(rb"#[^\n]*|not\s+in\b|is\s+not\b|[=!<>]=|[<>]|\b(?:in|is|and|or)\b")


def mutants(source: str) -> list[tuple[int, str, str]]:
    """(line, mutant, mutated source) for each mutant of ``source``, in source order."""
    data = source.encode()
    starts = [0]  # byte offset of each line; ast columns count bytes
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:
        return starts[lineno - 1] + col

    def operator(left: ast.AST, right: ast.AST) -> tuple[int, int]:
        """Byte span of the operator between two operands (parentheses and comments skipped)."""
        gap = _OPERATOR.finditer(data, offset(left.end_lineno, left.end_col_offset),
                                 offset(right.lineno, right.col_offset))
        match = next(m for m in gap if not m.group().startswith(b"#"))
        return match.span()

    found = []  # (edits, what); each edit is (start, end, replacement)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                text, flipped = FLIP[type(op)]
                found.append(([(*operator(left, right), f" {flipped} ")], f"{text} -> {flipped}"))
        elif isinstance(node, ast.BoolOp):
            word, other = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            edits = [(*operator(left, right), f" {other} ") for left, right in zip(node.values, node.values[1:])]
            found.append((edits, f"{word} -> {other}"))
        elif isinstance(node, ast.Continue) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute) and node.value.func.attr == "append"):
            span = (offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset))
            found.append(([(*span, "pass")], "drop continue" if isinstance(node, ast.Continue) else "drop append"))

    result = []
    for edits, what in sorted(found, key=lambda item: item[0][0][0]):
        mutated = data
        for start, end, text in reversed(edits):
            mutated = mutated[:start] + text.encode() + mutated[end:]
        result.append((bisect.bisect_right(starts, edits[0][0]), what, mutated.decode()))
    return result


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    module = Path(argv[0]).resolve()
    relative, selection = module.relative_to(ROOT), argv[1:]
    source = module.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = mutants(source)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        # no bytecode cache: a mutant of the same size written within the
        # same second would otherwise load the last mutant's cached code
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def passes(text: str, timeout: float | None = None) -> bool:
            (copy / relative).write_text(text, encoding="utf-8")
            try:
                return run_limited(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
                    cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=timeout).returncode == 0
            except subprocess.TimeoutExpired:  # a mutant that hangs is killed
                return False

        began = time.perf_counter()
        if not passes(source):
            print(f"{relative}: the selection fails on the unmutated module", file=sys.stderr)
            return 2
        limit = 10 * (time.perf_counter() - began) + 10
        survivors = [(line, what, text) for line, what, text in found if passes(text, limit)]
    reasons = [EQUIVALENT.get((module.name, *(row.strip() for row in text.splitlines()[line - 2:line])))
               for line, _, text in survivors]
    print(f"{relative}: {len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived ({len(survivors) - reasons.count(None)} listed equivalent) "
          f"in {time.perf_counter() - began:.0f} s")
    for (line, what, _), reason in zip(survivors, reasons):
        label = f"equivalent ({reason})" if reason else "survivor"
        print(f"  {label}: {relative}:{line}: {what}: {lines[line - 1].strip()}")
    return 1 if None in reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
