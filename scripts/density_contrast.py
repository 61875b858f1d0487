#!/usr/bin/env python3
"""Contrast refinement behaviour of the two plateau families.

Runs depth 1 -> 2 -> 3 refinement traces for the dense-blocks family and
the middle-thirds family at matching grid resolutions, then prints the
density signature of each: component counts per level, whether every gap
keeps acquiring new components, and which gaps persist to the end.
"""

import argparse

from chainposet import (
    CantorExample,
    DenseBlocks,
    Variant,
    build_chain_graph,
    chain_components,
    condense,
    density_signature,
    grid_for,
)


def signature_for(specs, resolutions):
    return density_signature([
        chain_components(condense(build_chain_graph(s, grid_for(s, n))))
        for s, n in zip(specs, resolutions)
    ])


def describe(name, sig) -> None:
    print(f"{name}:")
    print(f"  counts per level : {', '.join(str(c) for c in sig.counts)}")
    print(f"  dense growth     : {'yes' if sig.dense_growth else 'no'}")
    if sig.persistent_pairs:
        for pair in sig.persistent_pairs:
            a, b = pair.first_pair
            lo, hi = pair.gap
            print(f"  persistent gap   : between components {a} and {b}, final gap ({lo}, {hi})")
    else:
        print("  persistent gap   : none")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--resolutions",
        default="1024,2048,4096",
        help="comma-separated grid sizes, one per depth",
    )
    args = ap.parse_args()
    resolutions = [int(text) for text in args.resolutions.split(",")]
    depths = range(1, len(resolutions) + 1)

    dense = [DenseBlocks(d, Variant.WITH_MAX) for d in depths]
    describe("dense blocks (with max)", signature_for(dense, resolutions))
    cantor = [CantorExample(d) for d in depths]
    describe("middle thirds", signature_for(cantor, resolutions))


if __name__ == "__main__":
    main()
