"""The per-test wall-clock bound of ``conftest.py``: a test that does not
terminate fails the run, with its traceback, instead of hanging it; a test
within the bound is untouched."""

import subprocess
import sys
import time
from pathlib import Path

CONFTEST = (Path(__file__).parent / "conftest.py").read_text()


def _pytest(tmp_path, body: str, seconds: int):
    """Run one test of ``body`` under the conftest with a bound of
    ``seconds``, in a fresh interpreter: (exit status, output, wall time)."""
    assert "TEST_SECONDS = 120\n" in CONFTEST
    (tmp_path / "conftest.py").write_text(CONFTEST.replace("TEST_SECONDS = 120\n", f"TEST_SECONDS = {seconds}\n"))
    (tmp_path / "test_one.py").write_text(body)
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    return done.returncode, done.stdout + done.stderr, time.monotonic() - start


def test_a_hang_fails_the_run(tmp_path):
    body = "def test_hangs():\n    while True:\n        pass\n"
    status, output, wall = _pytest(tmp_path, body, 1)
    assert status != 0 and wall < 30
    assert "Timeout" in output and "test_hangs" in output


def test_a_test_within_the_bound_passes(tmp_path):
    body = "import time\n\ndef test_sleeps():\n    time.sleep(0.2)\n"
    status, output, _wall = _pytest(tmp_path, body, 5)
    assert status == 0 and "1 passed" in output
