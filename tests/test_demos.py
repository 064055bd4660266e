"""Smoke test: every narrative script under demos/, and the README's
library quick start, runs to completion under ``-W error``, so a warning
(a numpy ComplexWarning, say) fails it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_warnings_as_errors(args: list, cwd: Path) -> subprocess.CompletedProcess:
    """``python -W error`` with ``args``, on the library under src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = run_warnings_as_errors([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    # the example queries external ids 10 and 99 and internal ids 0..3
    (tmp_path / "friends.txt").write_text("10 99\n10 20\n20 30\n30 99\n40 10\n")
    proc = run_warnings_as_errors(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(("edge\n", "no edge\n", "likelihood "))
    assert (tmp_path / "friends.fzg").stat().st_size > 0
