"""The scripts under scripts/ run from a plain checkout: no installed package."""

import importlib.util
import os
import subprocess
import sys

from .support import ROOT


def run_script(name, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_canonical_writes_its_artifacts(tmp_path):
    out = tmp_path / "out"
    proc = run_script("run_canonical.py", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "plan.yaml").is_file()
    assert (out / "report.yaml").is_file()
    assert "compliance ok=True" in proc.stdout


def test_fuzz_placement_finds_no_violations(tmp_path):
    proc = run_script("fuzz_placement.py", "--cases", "20", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "20 cases: 18 placed, 2 proved infeasible, 0 gave up, 0 non-compliant")


def load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "scripts" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    return mutate


def test_mutate_runs_each_selection_under_an_address_space_limit():
    """A mutant that allocates without bound dies of MemoryError, with no
    ``ulimit`` around the script: its child process sets its own limit."""
    mutate = load_mutate()
    proc = mutate.run_limited(
        [sys.executable, "-c", "import resource; print(resource.getrlimit(resource.RLIMIT_AS)[0])"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == mutate.MEMORY_LIMIT == 2_000_000 * 1024


def test_mutate_makes_one_mutant_per_operator():
    """Each comparison operator is flipped, each boolean expression's operators
    swapped and each append or continue statement dropped, one mutant at a
    time; the ``in`` of a for loop and the words of a comment are left alone."""
    source = (
        "def f(a, b, out):\n"
        "    if a == b and a != 1 or (a) < b:  # in and or\n"
        "        out.append(a)\n"
        "    for x in out:\n"
        "        if x <= a or x > b and x >= 0:\n"
        "            continue\n"
        "        if x in out and x not in b or x is None or x is not a:\n"
        "            return x\n"
    )
    mutate = load_mutate()
    lines = source.splitlines()
    made = []
    for line, what, text in mutate.mutants(source):
        mutated = text.splitlines()
        assert mutated[:line - 1] + mutated[line:] == lines[:line - 1] + lines[line:], what
        compile(text, "mutant", "exec")
        made.append((line, what, mutated[line - 1].strip()))
    assert made == [
        (2, "== -> !=", "if a  !=  b and a != 1 or (a) < b:  # in and or"),
        (2, "and -> or", "if a == b  or  a != 1 or (a) < b:  # in and or"),
        (2, "!= -> ==", "if a == b and a  ==  1 or (a) < b:  # in and or"),
        (2, "or -> and", "if a == b and a != 1  and  (a) < b:  # in and or"),
        (2, "< -> <=", "if a == b and a != 1 or (a)  <=  b:  # in and or"),
        (3, "drop append", "pass"),
        (5, "<= -> <", "if x  <  a or x > b and x >= 0:"),
        (5, "or -> and", "if x <= a  and  x > b and x >= 0:"),
        (5, "> -> >=", "if x <= a or x  >=  b and x >= 0:"),
        (5, "and -> or", "if x <= a or x > b  or  x >= 0:"),
        (5, ">= -> >", "if x <= a or x > b and x  >  0:"),
        (6, "drop continue", "pass"),
        (7, "in -> not in", "if x  not in  out and x not in b or x is None or x is not a:"),
        (7, "and -> or", "if x in out  or  x not in b or x is None or x is not a:"),
        (7, "not in -> in", "if x in out and x  in  b or x is None or x is not a:"),
        (7, "or -> and", "if x in out and x not in b  and  x is None  and  x is not a:"),
        (7, "is -> is not", "if x in out and x not in b or x  is not  None or x is not a:"),
        (7, "is not -> is", "if x in out and x not in b or x is None or x  is  a:"),
    ]
