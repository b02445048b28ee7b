import subprocess
import sys
from pathlib import Path


def test_time_limit_ends_one_long_operation():
    # SIGALRM waits for a single math.gcd to return (CPython's long
    # multiplication and division check for signals, its gcd does not), and
    # this one, of two 16-million-bit numbers, takes minutes; the backstop
    # ends the child `grace` seconds after the limit, with a traceback
    probe = (
        "import math, random, sys; sys.path.insert(0, sys.argv[1])\n"
        "from helpers import time_limit\n"
        "rng = random.Random(1)\n"
        "x, y = rng.getrandbits(1 << 24), rng.getrandbits(1 << 24)\n"
        "with time_limit(0.1, grace=0.5):\n"
        "    math.gcd(x, y)\n"
    )
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(tests)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "Timeout (0:00:00.600000)!" in proc.stderr, proc.stderr
    assert 'File "<string>", line 6 in <module>' in proc.stderr
