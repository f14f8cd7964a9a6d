"""Print free Lie algebra dimension tables.

Usage: python3 scripts/dimension_tables.py [--deg N]

Three tables: Witt dimensions for 2 and 3 generators, counts of the
derived-level strata on two generators, and the bidegree-(2, i) slice of the
second derived subalgebra that exhibits the parity growth pattern, counted
in closed form by fplie.x2_slice.
"""

import argparse

from lieobstruct.fplie import x2_slice
from lieobstruct.freelie import hall_degree_counts, witt_dim


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--deg", type=int, default=12)
    args = ap.parse_args()
    cap = args.deg

    print(f"Witt dimensions through degree {cap}")
    print("deg " + " ".join(f"{d:>5d}" for d in range(1, cap + 1)))
    for n in (2, 3):
        row = [witt_dim(n, d) for d in range(1, cap + 1)]
        print(f"n={n} " + " ".join(f"{v:>5d}" for v in row))
    print()

    print("derived-level strata on two generators")
    for level in (0, 1, 2):
        row = hall_degree_counts(2, level, cap)
        print(
            f"level>={level} "
            + " ".join(f"{row[d]:>5d}" for d in range(1, cap + 1))
        )
    print()

    print("second derived subalgebra, words with the first letter twice")
    slice2 = {b: c for b, c in x2_slice(2, cap).items() if c}
    print("i   " + " ".join(f"{i:>3d}" for i in sorted(slice2)))
    print("dim " + " ".join(f"{slice2[i]:>3d}" for i in sorted(slice2)))


if __name__ == "__main__":
    main()
