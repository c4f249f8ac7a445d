"""tools/digest.py, the bit-for-bit output digest, on one shape and order.

Comparing two revisions is done by hand; here the digest must be the same on
two runs in one process and have one line per entry point.
"""

import importlib.util
from pathlib import Path

from baryeval import Shape

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_digest_is_repeatable_with_one_line_per_entry_point():
    first = digest.digest([Shape.TRI], [3])
    assert digest.digest([Shape.TRI], [3]) == first
    assert [line.split()[0] for line in first] == list(digest.ENTRY_POINTS)
    assert all(len(line.split()[1]) == 64 for line in first)
