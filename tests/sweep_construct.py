"""Construct every realizable cell with g <= 45 and check its field and,
up to g = 22, its witnesses.

Every witness must be over GF(4) or smaller up to g = 30, and over GF(16)
or smaller up to g = 45.  The sha256 over the witness and recipe JSON of
the 1,983 realizable cells with g <= 22, in the digest scheme and cell
order of `test_witnesses_pinned_through_g12`, must be WITNESSES_SHA256_G22.
Prints the witness count per genus and field size, and exits 1 on the
first cell that raises or misses its bound, or on a wrong digest.  The
sweep takes about half a minute, too long for the tier-1 suite, so its
name keeps pytest from collecting it:

    PYTHONPATH=src python tests/sweep_construct.py
"""

import hashlib
import json
import sys
import time
from collections import Counter

from kleinfour.construct import construct
from kleinfour.klein4 import partitions_of
from kleinfour.realize import realizable

MAX_G = 45
DIGEST_MAX_G = 22
# recorded when one place step replaced the +3 induction chain
WITNESSES_SHA256_G22 = (
    "f3f4a3855a9279395e9dbc28189626ae9cb8053eec15d7250be4d8d7728d9ca1")


def main():
    start = time.perf_counter()
    digest = hashlib.sha256()
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
                if g <= DIGEST_MAX_G:
                    digest.update(json.dumps({"w": cover.to_json(),
                                              "r": recipe.to_json()},
                                             sort_keys=True).encode())
        counts = ", ".join(f"GF({q}): {n}" for q, n in sorted(fields.items()))
        print(f"g = {g}: {counts}", flush=True)
        if g == DIGEST_MAX_G:
            if digest.hexdigest() != WITNESSES_SHA256_G22:
                print(f"FAIL: witnesses with g <= {DIGEST_MAX_G} hash to "
                      f"{digest.hexdigest()}, not {WITNESSES_SHA256_G22}")
                return 1
            print(f"witnesses with g <= {DIGEST_MAX_G} match "
                  f"{WITNESSES_SHA256_G22[:8]}")
    print(f"every realizable cell with g <= {MAX_G} constructed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
