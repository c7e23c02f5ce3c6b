"""Record the exit code and SHA-256 of the canonical JSON of every operation
any workload can run, into ``digests.json``.

Usage: python3 bench/record_digests.py

Re-record only when a change is meant to alter CLI output; the closed-form
checks of the gate must pass on every operation before anything is written.
"""

import json
import sys

import bench_gate
from bench_ops import all_ops, ensure_source
from run import run_op


def main() -> int:
    ensure_source()
    digests, bad = {}, 0
    for op in all_ops():
        _, code, stdout, error = run_op(op)
        problems = [repr(error)] if error else bench_gate.check(op, code, stdout)
        if problems:
            bad += 1
            print(f"{bench_gate.argv_key(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
        digests[bench_gate.argv_key(op.argv)] = {"exit": code, "sha256": bench_gate.digest(stdout)}
    if bad:
        print(f"{bad} operations fail the gate; nothing written", file=sys.stderr)
        return 1
    bench_gate.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
