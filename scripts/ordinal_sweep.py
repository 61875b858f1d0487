#!/usr/bin/env python3
"""Sweep the ordinal-indexed family and tabulate component counts.

For each requested ordinal and grid resolution this builds the chain
graph with the auto slack (twice the cell width), extracts the component
poset, and prints one row with the count, linearity, and the predicted
order-type label.  Counts converge to the label as the grid refines.
"""

import argparse

from chainposet import (
    build_chain_graph,
    chain_components,
    condense,
    grid_for,
    is_linear,
    make_ordinal_map,
    parse_ordinal,
    predicted_label,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--ordinals",
        default="1,2,3,4,w,w+1,w*2,w^2",
        help="comma-separated ordinal expressions",
    )
    ap.add_argument(
        "--resolutions",
        default="256,1024,4096",
        help="comma-separated grid sizes",
    )
    args = ap.parse_args()
    ordinals = [text.strip() for text in args.ordinals.split(",") if text.strip()]
    resolutions = [int(text) for text in args.resolutions.split(",")]

    print(f"{'ordinal':>10} {'n':>6} {'components':>10} {'linear':>6} {'label':>10}")
    for text in ordinals:
        spec = make_ordinal_map(parse_ordinal(text))
        label = predicted_label(spec)
        for n in resolutions:
            graph = build_chain_graph(spec, grid_for(spec, n))
            poset = chain_components(condense(graph))
            linear = "yes" if is_linear(poset) else "no"
            print(f"{text:>10} {n:>6} {len(poset):>10} {linear:>6} {label:>10}")


if __name__ == "__main__":
    main()
