"""Seeded config generators for the benchmark workloads.

Each workload is one chainposet config whose free rational parameters are
drawn from the seed.  The draws stay inside ranges where the amount of work
is nearly independent of the seed, so that run-to-run spread measures the
program and not the draw.
"""

import random
from fractions import Fraction


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with sha512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"chainposet-bench:{workload}:{seed}")


def _certify(rng: random.Random) -> str:
    # a mild perturbation of the identity: breakpoints near 1/3 and 2/3 on a
    # 1/48 lattice keep the Fraction sizes, and so the cost, seed-independent
    points = [(0, 0)]
    for centre in (16, 32):
        points.append((rng.randint(centre - 3, centre + 3), rng.randint(centre - 3, centre + 3)))
    points.append((48, 48))
    homeo = ", ".join(f"({Fraction(x, 48)}, {Fraction(y, 48)})" for x, y in points)
    return (
        "system = conjugated\n"
        "inner = ordinal\n"
        "lambda = w\n"
        f"homeo = [{homeo}]\n"
        "resolutions = [4096]\n"
        "tasks = [components, lyapunov, conjugacy]\n"
    )


def _refine(rng: random.Random) -> str:
    # a 2^16-cell grid resolves 16 halvings of the descent, so coefficients
    # from 16 up give the same grid picture and the same work; below that the
    # run time moves by up to 2x with the coefficient
    a = rng.randint(16, 64)
    return (
        "system = ordinal\n"
        f"lambda = w^2*{a}\n"
        "resolutions = [4096, 16384, 65536]\n"
        "tasks = [components, refine]\n"
    )


def _plateau(rng: random.Random) -> str:
    # the plateau family has no free rational parameter: every seed gets
    # the same config
    return (
        "system = dense_blocks\n"
        "variant = open_interval\n"
        "resolutions = [4096, 8192, 16384]\n"
        "depths = [7, 9, 11]\n"
        "tasks = [components, refine, signature]\n"
    )


_GENERATORS = {"certify": _certify, "refine": _refine, "plateau": _plateau}
NAMES = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> str:
    """Config text for one workload; the same seed gives the same text."""
    body = _GENERATORS[workload](_rng(workload, seed))
    return f"# perfbench workload {workload}, seed {seed}\n{body}"
