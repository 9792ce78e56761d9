"""Smoke test: each narrative script in demos/ runs to completion, and so
does the README's library quickstart, with warnings as errors.

The scripts call the public API end to end (flag means, the angle gate,
decomposition, threshold selection with its curves TSV, and a benchmark run),
so a change that breaks one of those entry points fails here too. Each runs
as a subprocess in a temporary directory, which receives any file it writes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


def run_python(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    run_python([str(script)], tmp_path)


def test_readme_quickstart_runs_without_warnings(tmp_path):
    readme = (ROOT / "README.md").read_text()
    quickstart = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    run_python(["-c", "import warnings\nwarnings.simplefilter('error')\n" + quickstart],
               tmp_path)
