"""Output checks: CSV parsing, seed-invariant digests and per-operation checks.

A digest keeps, for every column of an operation's CSV, the seed-invariant
form of the column (value * mass, perturbative / lambda**2, ...) sampled at
up to SAMPLES evenly spaced rows, plus its sum.  Tolerances let through
the 1e-13-level drift of a reordered summation but catch a wrong formula.
"""

from __future__ import annotations

import math

SAMPLES = 64

# relative tolerance on reference values, by command
RTOL = {"continuum": 1e-5, "scaling": 1e-5}
RTOL_DEFAULT = 1e-9
# oracle-minus-perturbative error over lambda**2 is only nearly seed-invariant:
# its local exponent in lambda is 2.0-2.2 and the seed moves lambda by <= 15 %
RTOL_REL_ERR = 0.15
SLOPE_ATOL = 1e-4
CROSSCHECK_RTOL = 1e-6       # full quadrature versus partial analytic
RESIDUAL_MAX = 1e-9          # oracle eigenpair residual norm
CROSS_CORRELATION_MAX = 1e-12  # connected <phi(x1) phi(x2)>, exactly 0

SKIPPED = {"achieved_rel_tol", "neval", "oracle"}


def read_csv(path: str) -> tuple[list, list]:
    """Header and rows of a vacmirror CSV; numbers parsed, '#' lines dropped."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[_num(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _num(text):
    try:
        return float(text)
    except ValueError:
        return text


def _column(header, rows, name):
    i = header.index(name)
    return [r[i] for r in rows]


def normalized(op, inp, header, rows) -> dict:
    """Seed-invariant form of every checked column."""
    cols = {}
    for name in header:
        if name in SKIPPED:
            continue
        vals = _column(header, rows, name)
        if name in ("value", "weight"):
            masses = (_column(header, rows, "mass") if "mass" in header
                      else [op.mass] * len(rows))
            vals = [v * m for v, m in zip(vals, masses)]
        elif name == "mass":
            vals = [v / inp.f for v in vals]
        elif name == "lam":
            vals = [v / inp.g for v in vals]
        elif name == "perturbative":
            vals = [v / lam**2 for v, lam in zip(vals, _column(header, rows, "lam"))]
        elif name == "rel_err":
            vals = [0.0 if q == "phi1phi2" else abs(o - p) / abs(p) / lam**2
                    for q, o, p, lam in zip(_column(header, rows, "quantity"),
                                            _column(header, rows, "oracle"),
                                            _column(header, rows, "perturbative"),
                                            _column(header, rows, "lam"))]
        cols[name] = vals
    return cols


def _sample_index(n: int) -> list:
    if n <= SAMPLES:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLES - 1)) for i in range(SAMPLES)})


def digest(op, inp, header, rows) -> dict:
    """Reference record of one operation's output."""
    idx = _sample_index(len(rows))
    out = {"header": header, "rows": len(rows), "columns": {}}
    for name, vals in normalized(op, inp, header, rows).items():
        entry = {"samples": [vals[i] for i in idx]}
        if all(isinstance(v, float) for v in vals):
            entry["sum"] = math.fsum(vals)
            entry["abs_sum"] = math.fsum(abs(v) for v in vals)
        out["columns"][name] = entry
    return out


def _rtol(op, name):
    if name == "rel_err":
        return RTOL_REL_ERR
    return RTOL.get(op.argv[0], RTOL_DEFAULT)


def _close(a, b, rtol, atol) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= rtol * abs(b) + atol


def compare(op, inp, header, rows, ref) -> list:
    """Mismatches between an output and its reference digest (empty if none)."""
    if header != ref["header"]:
        return [f"header {header} != reference {ref['header']}"]
    if len(rows) != ref["rows"]:
        return [f"{len(rows)} rows, reference has {ref['rows']}"]
    errors = []
    idx = _sample_index(len(rows))
    for name, vals in normalized(op, inp, header, rows).items():
        want = ref["columns"][name]
        rtol = _rtol(op, name)
        numeric = [abs(v) for v in want["samples"] if isinstance(v, float)]
        atol = SLOPE_ATOL if name == "log_slope" else 1e-12 * max(numeric, default=0.0)
        for i, expected in zip(idx, want["samples"]):
            if not _close(vals[i], expected, rtol, atol):
                errors.append(f"{name}[{i}] = {vals[i]!r}, reference {expected!r}")
                break
        if "sum" in want and name != "log_slope":
            got = math.fsum(vals)
            if abs(got - want["sum"]) > rtol * want["abs_sum"] + atol:
                errors.append(f"sum({name}) = {got!r}, reference {want['sum']!r}")
    return errors


def invariants(op, header, rows, values_by_key) -> list:
    """Physics invariants named by the operation's checks."""
    errors = []
    if "negative" in op.checks:
        bad = [v for v in _column(header, rows, "value") if not v < 0.0]
        if bad:
            errors.append(f"{len(bad)} values not negative, e.g. {bad[0]!r}")
    if "tolerance" in op.checks:
        requested = float(op.argv[op.argv.index("--rel-tol") + 1])
        got = max(_column(header, rows, "achieved_rel_tol"))
        if not got <= requested:
            errors.append(f"achieved tolerance {got!r} above requested {requested!r}")
    if "oracle" in op.checks:
        res = max(_column(header, rows, "achieved_rel_tol"))
        if not res <= RESIDUAL_MAX:
            errors.append(f"oracle residual {res!r} above {RESIDUAL_MAX}")
        for q, o in zip(_column(header, rows, "quantity"), _column(header, rows, "oracle")):
            if q == "phi1phi2" and not abs(o) <= CROSS_CORRELATION_MAX:
                errors.append(f"<phi1 phi2> = {o!r}, expected 0")
    if op.crosscheck is not None:
        other = values_by_key.get(op.crosscheck)
        value = _column(header, rows, "value")[0]
        if other is None:
            errors.append(f"cross-check {op.crosscheck} has no value")
        elif not abs(value - other) <= CROSSCHECK_RTOL * abs(value):
            errors.append(f"value {value!r} disagrees with {op.crosscheck} = {other!r}")
    return errors
