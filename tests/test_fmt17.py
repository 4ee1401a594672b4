"""The vectorized %.17e of vacmirror.fmt17 against Python's own format, and
the module's imports."""

import ast
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from vacmirror.fmt17 import slots


def _lines(x):
    """The kept bytes of each value's slot, one value a line."""
    text, keep = slots(x)
    newline = np.full((len(x), 1), ord("\n"), np.uint8)
    text = np.concatenate([text, newline], axis=1)
    keep = np.concatenate([keep, np.ones((len(x), 1), bool)], axis=1)
    return text[keep].tobytes()


def _assert_matches_format(x):
    values = x.tolist()
    want = ("\n".join(map(format, values, repeat(".17e"))) + "\n").encode()
    got = _lines(x)
    if got != want:
        pairs = zip(values, got.split(b"\n"), want.split(b"\n"))
        bad = [(v, g, w) for v, g, w in pairs if g != w]
        raise AssertionError(f"{len(bad)} values differ, first {bad[:5]}")


def test_random_bit_patterns_match_format():
    # every sign, exponent and mantissa, nan payloads and subnormals included
    rng = np.random.default_rng(20240531)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=1_000_000, dtype=np.int64, endpoint=True)
    _assert_matches_format(bits.view(np.float64))


def test_edge_values_match_format():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    # 10^k and its neighbours: floor(log10) misses by one next to them,
    # and 1e-243 lies just below 10^-243
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    # exact ties at the 18th digit: m / 2^k whose decimal expansion,
    # m 5^k / 10^k, has 19 significant digits
    ties = np.array([m / 2**k for m in range(1, 4000, 2) for k in range(80)
                     if len(str(m * 5**k)) == 19])
    assert len(ties) > 3000
    specials = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, 1e300, 1e-300, 1e299, 1e-280])
    values = np.concatenate([powers_of_two, tens, ties, specials])
    _assert_matches_format(np.concatenate([values, -values]))


def test_imports_only_the_standard_library_and_numpy():
    # the formatter and writer stand apart from the engines; read statically,
    # since importing the package imports every engine
    path = Path(__file__).resolve().parents[1] / "src" / "vacmirror" / "fmt17.py"
    tree = ast.parse(path.read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names.append(node.module)
    assert "numpy" in names
    allowed = sys.stdlib_module_names | {"__future__", "numpy"}
    assert {name.partition(".")[0] for name in names} <= allowed
