"""Klein-four covers of the projective line in characteristic 2.

Decide which (genus, 2-rank, type) combinations occur for curves with a
Klein-four action over P^1 in characteristic 2, build explicit pairs of
Artin-Schreier equations witnessing every realizable combination, and
verify the witnesses independently by point counting.
"""

from .ascurve import ASCurve, DegenerateCover, Invariants, reduce_standard
from .census import CensusViolation, run_census
from .construct import (InternalMismatch, NotRealizable, Recipe, construct,
                        construct_half_minus, construct_sigma0,
                        construct_unbalanced_even, construct_unbalanced_odd,
                        lift_pair, make_hyperelliptic, place_step)
from .field import GF2, GF4, BinaryField, default_modulus
from .klein4 import (InvalidCover, InvalidPartition, KleinFourCover,
                     Partition, partitions_of)
from .poly import Poly, factor, is_irreducible, monic_irreducibles
from .ratfun import RatFun, parse_ratfun
from .realize import (Verdict, hyperelliptic_extra_involution,
                      partition_validate, realizable, realizable_any)
from .zeta import (InconsistentCounts, LPoly, Report, count_points,
                   count_points_cover, lpoly_from_counts, verify)

__version__ = "0.1.0"
