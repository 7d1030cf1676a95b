"""Construct every realizable cell with g <= 45 and check its field.

Every witness must be over GF(4) or smaller up to g = 30, and over GF(16)
or smaller up to g = 45.  Prints the witness count per genus and field
size, and exits 1 on the first cell that raises or misses its bound.  The
sweep takes about a minute, too long for the tier-1 suite, so its name
keeps pytest from collecting it:

    PYTHONPATH=src python tests/sweep_construct.py
"""

import sys
import time
from collections import Counter

from kleinfour.construct import construct
from kleinfour.klein4 import partitions_of
from kleinfour.realize import realizable

MAX_G = 45


def main():
    start = time.perf_counter()
    for g in range(MAX_G + 1):
        bound = 2 if g <= 30 else 4  # the largest witness field is 2^bound
        fields = Counter()
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                cover, recipe = construct(g, s, p)
                if cover.field.degree > bound:
                    print(f"FAIL ({g}, {s}, {p}): witness over "
                          f"{cover.field}, above GF(2^{bound}); recipe "
                          f"{recipe.tags()}")
                    return 1
                fields[cover.field.order] += 1
        counts = ", ".join(f"GF({q}): {n}" for q, n in sorted(fields.items()))
        print(f"g = {g}: {counts}", flush=True)
    print(f"every realizable cell with g <= {MAX_G} constructed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
