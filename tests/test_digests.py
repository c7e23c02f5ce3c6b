"""Every CLI argv recorded in ``bench/digests.json`` still gives its recorded
exit code and the SHA-256 of its stdout, run in-process through ``cli.main``.

The file is only read.  H(7,1) ``oracle verify`` is left out: it alone takes
longer than the rest together.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from extraspecial.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text())
SLOW = "oracle verify --variant H --p 7 --n 1 --u 1 --t 1 --output json"
ARGV = sorted(key for key in DIGESTS if key != SLOW)


def test_digest_file_is_the_full_set():
    assert SLOW in DIGESTS
    assert len(ARGV) == len(DIGESTS) - 1


@pytest.mark.parametrize("key", ARGV)
def test_argv_matches_recorded_digest(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(key.split())
    assert (code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()) == \
        (DIGESTS[key]["exit"], DIGESTS[key]["sha256"])
