#!/usr/bin/env python3
# The knot census, winding patterns, systematic names and aesthetics.

import random

from tieknot import (
    balance,
    census,
    knot_of,
    name_of,
    oracle_enumerate,
    parse_tw,
    registry,
    symmetry,
)
from tieknot.catalog import KnotName
from tieknot.enumeration import CensusRow
from tieknot.validity import ValidityOptions

# The census, one row per winding length.
rows = census(12)
print(CensusRow.CSV_HEADER)
for row in rows:
    print(row.csv_line())
print("totals: single-tuck", sum(r.single_tuck_knots for r in rows),
      "/ all depths", sum(r.total_knots for r in rows))

# 4,094 winding patterns anchor those knots, split almost evenly by
# final region (left-final ones lack the two shortest lengths).
patterns = {region: sum(getattr(r, f"{column}_windings") for r in rows)
            for region, column in (("L", "left"), ("R", "right"), ("C", "center"))}
print("\nwinding patterns:", patterns, "total", sum(patterns.values()))

# Names: pattern rank within the final-region class, then a bit mask of
# internal tucks.  The registry ships the two celebrated thin-blade knots.
print()
for named in registry():
    knot = named.tw
    print(f"{named.common_name:<9} {knot.serialize():<15} name {named.name}"
          f"  balance {balance(knot)}  symmetry {symmetry(knot)}")

# Names are constructive: R-1.0 is the two-winding right-final knot, and
# every bit pattern over a pattern's internal sites is a distinct knot.
print("\nR-1.0 is", knot_of(KnotName.parse("R-1.0")))
trinity_pattern = name_of(parse_tw("TWWWTTTUTTU")).pattern_index
for bits in range(4):
    knot = knot_of(KnotName.parse(f"L-{trinity_pattern}.{bits}"))
    print(f"L-{trinity_pattern}.{bits} is {knot}")

# A reproducible random draw from the single-tuck census.
knots = list(oracle_enumerate(12, ValidityOptions(max_tuck_depth=1)))
rng = random.Random(2026)
print("\nthree knots drawn at random:")
for index in sorted(rng.sample(range(len(knots)), 3)):
    knot = knots[index]
    print(f"  {name_of(knot)}  {knot.serialize()}")
