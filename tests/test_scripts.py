"""The scripts under scripts/ run from a plain checkout: no installed package."""

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
