#!/usr/bin/env python3
"""Print the geodesic-family dimension tables for the contact catalogs.

For each named stratum of directions the script reports the empirically
sharp determining jet order on the grid, the dimension of the family of
parametrized geodesics sharing a base direction, the stabilizer dimension,
and the pointwise dimension of the truncated-adjoint orbit of the lowest
grade.  Everything is exact; rerunning produces identical output.
"""

import argparse

from parageo.catalog import make_algebra
from parageo.lab import (
    family_dimension,
    min_jet_order_search,
    orbit_hull_dimension,
    parse_type,
    type_grade,
)

CASES = {
    "lagr3": [
        ("lagrange1", {-1: (1, 0)}),
        ("lagrange2", {-1: (0, 1)}),
        ("contact-generic", {-1: (1, 1)}),
        ("grade(-2)", {-2: (1,)}),
        ("generic", {-1: (1, 1), -2: (1,)}),
    ],
    "xxdot": [
        ("x1", {-1: (1, 0, 0)}),
        ("X1", {-1: (0, 1, 0)}),
        ("contact-generic", {-1: (1, 1, 0)}),
        ("grade(-2)", {-2: (1, 0)}),
        ("cylinder", {-1: (2, 1, 0), -2: (1, 0)}),
        ("generic", {-1: (1, 1, 0), -2: (0, 1)}),
    ],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=2)
    args = ap.parse_args()

    for cid, rows in CASES.items():
        alg = make_algebra(cid)
        print("## %s" % cid)
        print()
        print("| direction class | sharp jet order (grid) | family dim | stabilizer dim |")
        print("|---|---|---|---|")
        for name, coords in rows:
            ts = parse_type(alg, name)
            x = alg.elem_from_grade_coords(coords)
            jets = min_jet_order_search(ts, x, grid=args.grid, r_max=alg.k + 2)
            fam = family_dimension(ts, x, grid=args.grid)
            dim = (
                str(fam.family_dimension)
                if fam.stabilizer_linear
                else "%d..%d" % fam.family_dimension_range
            )
            print(
                "| %s | %s | %s | %s |"
                % (name, jets.empirical_sharp_order, dim, fam.stabilizer_hull_dim)
            )
        orb = orbit_hull_dimension(type_grade(alg, -alg.k), grid=1)
        print()
        print(
            "lowest-grade orbit under the truncated adjoint action: "
            "pointwise dim %d, linear hull %d" % (orb.orbit_dim, orb.hull_dim)
        )
        print()


if __name__ == "__main__":
    main()
