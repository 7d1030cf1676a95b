"""Check the census at its degree caps, beyond what tier-1 can afford.

The sha256 of `k4 census --field F --max-deg D --json` must be
CENSUS_JSON_SHA256[F, D] at GF(2) degrees 5 and 6 and GF(4) degree 3, the
values printed by the census that visited every class pair one by one.
At GF(2) degree 5, `count_covers` must also return exactly what the pair
loop of test_census.py does, and `run_census`, which pairs the classes'
constant-free parts, must give the cells of the census that pairs every
class (`unfolded_census`).  The census stands on the polynomial kernel,
so the sweep also checks `*`, `divmod` and `gcd` against test_kernel.py's
bit-loop reference on every pair of polynomials of degree <= 6 over GF(2)
and <= 3 over GF(4), which adds about 3.5 s.  Prints each check with its
time and exits 1 on the first mismatch.  The sweep takes about 6 s on
one core, too long for the tier-1 suite, so its name keeps pytest from
collecting it:

    PYTHONPATH=src python tests/sweep_census.py
"""

import contextlib
import hashlib
import io
import sys
import time

from kleinfour.cli import main as k4
from kleinfour.census import count_covers, run_census
from kleinfour.field import GF2, GF4
from kleinfour.poly import gcd, poly_of
from test_census import (census_classes, pair_loop_count_covers,
                         unfolded_census)
from test_kernel import ref_divmod, ref_gcd, ref_mul

CENSUS_JSON_SHA256 = {
    ("gf2", 5): "45fe3b882f30d4a168e8bf202526cf77"
                "8d7a06807a595f665a74ef03677d73dd",
    ("gf2", 6): "180a401edb646699d5e38a1dee597090"
                "c852bae1b6c1aea2e7b4d0fe8b693e7f",
    ("gf4", 3): "56e52d4259904dfa20fdf5d99026274f"
                "2559c605303ce942332cfda084e0b57c",
}


def kernel_mismatch(F, max_deg):
    """The first pair (a, b) of polynomials of degree <= max_deg over F on
    which `*`, `divmod` or `gcd` differs from the bit-loop reference, or
    None."""
    ps = [poly_of(F, code) for code in range(F.order ** (max_deg + 1))]
    for a in ps:
        for b in ps:
            ca, cb = a.coeffs, b.coeffs
            if ((a * b).coeffs != ref_mul(F, ca, cb)
                    or gcd(a, b).coeffs != ref_gcd(F, ca, cb)
                    or cb and tuple(p.coeffs for p in divmod(a, b))
                    != ref_divmod(F, ca, cb)):
                return a, b
    return None


def main():
    for F, max_deg in ((GF2, 6), (GF4, 3)):
        start = time.perf_counter()
        bad = kernel_mismatch(F, max_deg)
        if bad:
            print(f"FAIL: the kernel differs from the bit loop over {F} "
                  f"on ({bad[0]}, {bad[1]})")
            return 1
        print(f"the kernel matches the bit loop on every pair of degree "
              f"<= {max_deg} over {F} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    for (field, max_deg), expected in CENSUS_JSON_SHA256.items():
        start = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = k4(["census", "--field", field, "--max-deg", str(max_deg),
                       "--json"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != expected:
            print(f"FAIL census {field} degree {max_deg}: exit {code}, "
                  f"sha256 {digest}, not {expected}")
            return 1
        print(f"census {field} degree {max_deg} matches {expected[:8]} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    start = time.perf_counter()
    classes, layout = census_classes(GF2, 5)
    if count_covers(classes, layout) != pair_loop_count_covers(classes,
                                                                layout):
        print("FAIL: bulk counts differ from the pair loop at GF(2) "
              "degree 5")
        return 1
    print(f"bulk counts match the pair loop on the {len(classes)} GF(2) "
          f"degree-5 classes ({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    if [c.to_json() for c in run_census(GF2, 5)] != unfolded_census(GF2, 5):
        print("FAIL: the census over parts differs from the census over "
              "classes at GF(2) degree 5")
        return 1
    print(f"the census over parts matches the census over classes at "
          f"GF(2) degree 5 ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
