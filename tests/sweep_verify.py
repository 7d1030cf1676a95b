"""Verify the witness of every realizable cell with g <= 16 by point counts.

Each cell is constructed and verified as `k4 table --verify` does it, at
depth equal to the largest quotient genus.  Every report must be confirmed
and not truncated: at g <= 16 each count fits the table fields, so a
truncated report means a witness left the oracle's reach.  Prints the row
count and time per genus, and exits 1 on the first failing cell.  The
sweep verifies 657 cells in about a second, and its name keeps pytest
from collecting it:

    PYTHONPATH=src python tests/sweep_verify.py
"""

import sys
import time

from kleinfour.construct import construct
from kleinfour.klein4 import partitions_of
from kleinfour.realize import realizable
from kleinfour.zeta import verify

MAX_G = 16


def main():
    start = time.perf_counter()
    total = 0
    for g in range(MAX_G + 1):
        rows = 0
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                cover, _ = construct(g, s, p)
                depth = max(sub.genus for sub in cover.quotients)
                report = verify(cover, depth)
                if not report.confirmed or report.truncated:
                    print(f"FAIL ({g}, {s}, {p}): status {report.status}, "
                          f"truncated {report.truncated}: {report.detail}")
                    return 1
                rows += 1
        total += rows
        print(f"g = {g}: {rows} cells confirmed, "
              f"{time.perf_counter() - start:.2f} s", flush=True)
    print(f"every realizable cell with g <= {MAX_G} ({total}) confirmed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
