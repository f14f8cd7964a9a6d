"""Run the whole pipeline on the bundled models and print a summary.

Usage: python3 scripts/tower_demo.py [--stage N]

For each bundled cdga: holonomy presentation, nilpotent quotient dims,
classifying-stage verification, stability of the tower, the canonical
filtration, and a resonance probe.
"""

import argparse

from lieobstruct import data_path
from lieobstruct.cdga import holonomy, load_cdga, resonance_trivial_probe
from lieobstruct.ce import (
    canonical_filtration,
    check_stability,
    hirsch_tower,
    verify_one_equivalence,
)
from lieobstruct.freelie import format_element

MODELS = ("heis", "noncarnot", "torus", "wedge2")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--stage", type=int, default=5)
    args = ap.parse_args()
    top = args.stage

    for name in MODELS:
        a = load_cdga(data_path(name + ".json"))
        p = holonomy(a)
        print(f"== {name} ==")
        rels = [format_element(r, p.generators) for r in p.scheme.relators]
        print(f"holonomy on {len(p.generators)} generators, relators: {rels}")
        tower = hirsch_tower(p, top)
        g = tower.stages[top].algebra
        print(f"quotient dims by weight: {g.dims_by_weight()}")
        voe = {n: verify_one_equivalence(a, tower, n) for n in range(2, top)}
        print(
            "one-equivalence (h1 iso, h2 kernel):",
            {n: (v["h1_iso"], v["h2_kernel_inclusion"]) for n, v in voe.items()},
        )
        stable = all(
            check_stability(tower, m, n) == {"prop_i": True, "prop_ii": True}
            for n in range(2, top)
            for m in range(n + 1, top + 1)
        )
        filt = canonical_filtration(tower)
        print(f"stability all pairs: {stable}, W = V at all stages: {filt['all_equal']}")
        probe = resonance_trivial_probe(a)
        print(f"resonance probe: {probe}")
        print()


if __name__ == "__main__":
    main()
