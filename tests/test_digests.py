"""Every CLI argv recorded in ``bench/digests.json`` still gives its recorded
exit code and the SHA-256 of its stdout, run in-process through ``cli.main``.

The file is only read.
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
ARGV = sorted(DIGESTS)


def test_digest_file_is_the_full_set():
    assert len(ARGV) == 173
    assert "oracle verify --variant H --p 7 --n 1 --u 1 --t 1 --output json" in DIGESTS


@pytest.mark.parametrize("key", ARGV)
def test_argv_matches_recorded_digest(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(key.split())
    assert (code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()) == \
        (DIGESTS[key]["exit"], DIGESTS[key]["sha256"])
