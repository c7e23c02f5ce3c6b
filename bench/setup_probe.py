"""One fresh-process set-up: import the CLI and build the residue fields.

Usage: python3 setup_probe.py SRC P,D [P,D ...]

Prints one JSON line with ``field_setup_s``, the time spent building the
fields (including their lazy discrete-log tables).  The caller times the
whole process, from spawn to exit, as the set-up time.
"""

import json
import sys
import time


def warm_fields(fields) -> float:
    """Build each field and its lazy tables; return the seconds spent."""
    from extraspecial.valuation import residue_field

    t0 = time.perf_counter()
    for p, d in fields:
        field = residue_field(p, d)
        field.format_element(field.gen())
    return time.perf_counter() - t0


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0])
    import extraspecial.cli  # noqa: F401  (the import is part of set-up)

    fields = [tuple(int(x) for x in spec.split(",")) for spec in argv[1:]]
    print(json.dumps({"field_setup_s": warm_fields(fields)}))


if __name__ == "__main__":
    main(sys.argv[1:])
