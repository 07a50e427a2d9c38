import os
import subprocess
import sys
from pathlib import Path

import kjuggle

# One count, one listing and one poset.  A Root hashes its kind string, whose
# hash PYTHONHASHSEED changes, so any output that followed the iteration order
# of a set of roots would differ between the two runs.
SCRIPT = """
from kjuggle.juggling import count_sequences
from kjuggle.kostant import enumerate_partitions
from kjuggle.poset import build_poset
from kjuggle.roots import positive_roots

print(count_sequences((5, 4, 3, 2, 1), (15,), 5))
for partition in enumerate_partitions((2, 1, 0, -1, -2), positive_roots("A", 4)):
    print(partition)
print(build_poset((1, 0, 1, 1), (3,), 4).covers)
"""


def _run(hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(kjuggle.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                          capture_output=True, timeout=60).stdout


def test_output_is_identical_across_hash_seeds():
    first, second = _run("0"), _run("1")
    assert first.splitlines()[0] == b"1301622"
    assert len(first.splitlines()) > 50
    assert first == second
