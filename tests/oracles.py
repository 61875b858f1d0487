"""Reference operations that more than one test module checks against.

The package itself never needs these; they are written here in the most
direct form so that the tests can read them at a glance.
"""

from chainposet.chaingraph import ChainGraph, ComponentPoset


def dual(poset: ComponentPoset) -> ComponentPoset:
    """The same components with every order pair reversed."""
    return ComponentPoset(
        poset.grid,
        poset.components,
        frozenset((b, a) for a, b in poset.pairs),
    )


def is_edge_subset(inner: ChainGraph, outer: ChainGraph) -> bool:
    """True when every edge of `inner` is also an edge of `outer`."""
    assert inner.grid == outer.grid, "graphs live on different grids"
    return all(set(a) <= set(b) for a, b in zip(inner.adjacency, outer.adjacency))
