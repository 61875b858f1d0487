"""Line-oriented config files for the batch driver.

One `key = value` per line, `#` starts a comment, blank lines ignored.
Rationals are written `p/q`, lists in square brackets, coordinate pairs in
parentheses: `homeo = [(0,0), (1/3,1/2), (1,1)]`.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .chaingraph import ConstantField, EpsilonField, PiecewiseField
from .ordinal import Ordinal, OrdinalSyntaxError, parse_ordinal
from .systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    OrdinalMap,
    PLHomeo,
    SystemSpec,
    Variant,
)

KNOWN_TASKS = ("components", "lyapunov", "refine", "signature", "conjugacy")
SYSTEM_KINDS = ("ordinal", "cantor", "dense_blocks", "conjugated")
INNER_KINDS = ("ordinal", "cantor", "dense_blocks")

_KEYS = frozenset(
    {
        "system",
        "lambda",
        "depth",
        "variant",
        "inner",
        "homeo",
        "resolutions",
        "depths",
        "eps",
        "tasks",
        "samples",
    }
)

Pairs = Tuple[Tuple[Fraction, Fraction], ...]


class ConfigError(ValueError):
    """Config rejection carrying the offending line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class AnalysisConfig:
    """A parsed config: one spec per resolution, ready to run."""

    specs: Tuple[SystemSpec, ...]
    resolutions: Tuple[int, ...]
    depths: Optional[Tuple[int, ...]] = None
    homeo: Optional[PLHomeo] = None
    eps: Optional[EpsilonField] = None  # None: twice the cell width
    tasks: Tuple[str, ...] = ("components",)


def _split_top(text: str) -> List[str]:
    # split on commas outside parentheses
    items, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(text[start:k])
            start = k + 1
    items.append(text[start:])
    return [item.strip() for item in items]


def _list_items(value: str, line: int) -> List[str]:
    if value.startswith("["):
        if not value.endswith("]"):
            raise ConfigError("unclosed list", line)
        inner = value[1:-1].strip()
        if not inner:
            return []
        return _split_top(inner)
    return [value]


def _rational(text: str, line: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a rational `p/q`, got {text!r}", line) from None


def _integer(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", line) from None


def _pair(text: str, line: int) -> Tuple[Fraction, Fraction]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ConfigError(f"expected a pair `(x, y)`, got {text!r}", line)
    parts = _split_top(text[1:-1])
    if len(parts) != 2:
        raise ConfigError(f"expected two entries in pair, got {text!r}", line)
    return _rational(parts[0], line), _rational(parts[1], line)


def _pair_list(value: str, line: int) -> Pairs:
    if not value.startswith("["):
        raise ConfigError("expected a bracketed list of pairs", line)
    return tuple(_pair(item, line) for item in _list_items(value, line))


_Raw = Dict[str, Tuple[str, int]]


_Builder = Callable[[Optional[int]], SystemSpec]


def _system(
    raw: _Raw,
) -> Tuple[str, Optional[int], int, _Builder, Optional[PLHomeo]]:
    """Parse the system keys: the family, its `depth` key and the line a bad
    depth is reported on (that of `depth`, else of `system`), a builder from
    family depth to spec, and the homeomorphism."""
    got = raw.pop("system", None)
    if got is None:
        raise ConfigError("missing required key 'system'")
    kind, kind_line = got
    if kind not in SYSTEM_KINDS:
        raise ConfigError(f"unknown system {kind!r}", kind_line)

    inner_kind: Optional[str] = None
    if kind == "conjugated":
        got = raw.pop("inner", None)
        if got is None:
            raise ConfigError("system 'conjugated' needs an 'inner' system", kind_line)
        inner_kind, inner_line = got
        if inner_kind not in INNER_KINDS:
            raise ConfigError(f"unknown inner system {inner_kind!r}", inner_line)
    elif "inner" in raw:
        raise ConfigError("'inner' only applies to system = conjugated", raw["inner"][1])

    effective = inner_kind if inner_kind is not None else kind

    lam: Optional[Ordinal] = None
    if effective == "ordinal":
        got = raw.pop("lambda", None)
        if got is None:
            raise ConfigError("ordinal systems need a 'lambda' key", kind_line)
        text, line = got
        try:
            lam = parse_ordinal(text)
        except OrdinalSyntaxError as e:
            raise ConfigError(f"bad ordinal: {e}", line) from None
    elif "lambda" in raw:
        raise ConfigError("'lambda' only applies to ordinal systems", raw["lambda"][1])

    depth: Optional[int] = None
    depth_line = kind_line
    if effective in ("cantor", "dense_blocks"):
        got = raw.pop("depth", None)
        if got is not None:
            depth = _integer(*got)
            depth_line = got[1]
    elif "depth" in raw:
        raise ConfigError("'depth' only applies to block families", raw["depth"][1])

    variant = Variant.WITH_MAX
    if effective == "dense_blocks":
        got = raw.pop("variant", None)
        if got is not None:
            text, line = got
            try:
                variant = Variant(text)
            except ValueError:
                names = ", ".join(v.value for v in Variant)
                raise ConfigError(f"variant must be one of {names}", line) from None
    elif "variant" in raw:
        raise ConfigError("'variant' only applies to dense_blocks", raw["variant"][1])

    homeo: Optional[PLHomeo] = None
    got = raw.pop("homeo", None)
    if got is not None:
        text, line = got
        points = _pair_list(text, line)
        try:
            homeo = PLHomeo(points)
        except ValueError as e:
            raise ConfigError(f"bad homeomorphism: {e}", line) from None
    if kind == "conjugated" and homeo is None:
        raise ConfigError("system 'conjugated' needs a 'homeo' key", kind_line)

    def build(d: Optional[int]) -> SystemSpec:
        if effective == "ordinal":
            spec: SystemSpec = OrdinalMap(lam)
        elif d is None:
            raise ValueError("no depth configured for this system")
        elif effective == "cantor":
            spec = CantorExample(d)
        else:
            spec = DenseBlocks(d, variant)
        return Conjugated(spec, homeo) if kind == "conjugated" else spec

    return effective, depth, depth_line, build, homeo


def _assemble(raw: _Raw) -> AnalysisConfig:
    effective, depth, depth_line, build, homeo = _system(raw)

    got = raw.pop("resolutions", None)
    if got is None:
        raise ConfigError("missing required key 'resolutions'")
    text, res_line = got
    resolutions = tuple(_integer(item, res_line) for item in _list_items(text, res_line))
    if not resolutions:
        raise ConfigError("need at least one resolution", res_line)
    if any(n < 1 for n in resolutions):
        raise ConfigError("resolutions must be positive", res_line)
    if len(set(resolutions)) < len(resolutions):
        raise ConfigError("resolutions must be distinct", res_line)

    depths: Optional[Tuple[int, ...]] = None
    got = raw.pop("depths", None)
    if got is not None:
        text, line = got
        if effective not in ("cantor", "dense_blocks"):
            raise ConfigError("'depths' only applies to block families", line)
        if depth is not None:
            raise ConfigError("'depth' and 'depths' exclude each other", line)
        depths = tuple(_integer(item, line) for item in _list_items(text, line))
        if len(depths) != len(resolutions):
            raise ConfigError("'depths' must align with 'resolutions'", line)
        depth_line = line

    eps: Optional[EpsilonField] = None
    got = raw.pop("eps", None)
    if got is not None:
        text, line = got
        if text.startswith("["):
            points = _pair_list(text, line)
            try:
                eps = PiecewiseField(points)
            except ValueError as e:
                raise ConfigError(f"bad eps field: {e}", line) from None
        elif text != "auto":
            value = _rational(text, line)
            if value <= 0:
                raise ConfigError("eps must be positive", line)
            eps = ConstantField(value)

    tasks: Tuple[str, ...] = ("components",)
    got = raw.pop("tasks", None)
    if got is not None:
        text, line = got
        tasks = tuple(_list_items(text, line))
        if not tasks:
            raise ConfigError("need at least one task", line)
        for task in tasks:
            if task not in KNOWN_TASKS:
                raise ConfigError(f"unknown task {task!r}", line)
        if len(set(tasks)) != len(tasks):
            raise ConfigError("duplicate task", line)
        if ("refine" in tasks or "signature" in tasks) and len(resolutions) < 2:
            raise ConfigError("refine and signature need at least two resolutions", line)
        if "conjugacy" in tasks and homeo is None:
            raise ConfigError("the conjugacy task needs a 'homeo' key", line)

    # ignored since descent stopped sampling; kept because the benchmark tests write it
    got = raw.pop("samples", None)
    if got is not None and _integer(*got) < 1:
        raise ConfigError("samples must be positive", got[1])

    try:
        specs = tuple(build(d) for d in depths or (depth,) * len(resolutions))
    except ValueError as e:
        raise ConfigError(str(e), depth_line) from None
    return AnalysisConfig(specs, resolutions, depths, homeo, eps, tasks)


def parse_config(text: str) -> AnalysisConfig:
    """Parse config text into a validated AnalysisConfig."""
    raw: _Raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected `key = value`", lineno)
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        raw[key] = (value, lineno)
    return _assemble(raw)


def load_config(path: str) -> AnalysisConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror or e}") from None
    return parse_config(text)
