"""Command-line front end: deterministic CSV/JSON outputs for every observable.

Each run writes one CSV data file (a '#'-prefixed provenance block with
the full configuration, a header row, then one record per grid point)
and a flat JSON sidecar (same configuration keys plus library version,
wall-clock time and convergence diagnostics).  The computations return
their records as an fmt17.Table of float64 arrays and Cycle columns;
write_outputs writes the provenance block, the header and the sidecar,
and fmt17.write_table the records, in blocks formatted in numpy.
Identical configurations produce byte-identical CSV files; `vacmirror
rerun` rebuilds the CSV from a sidecar alone.
build_config takes the configuration from the parsed options, translating
a few (it checks --cutoff, where it enters) and keeping only those the run
reads; every other value is checked where the run uses it, in compute_rows
or a _compute_* function, so a rerun meets the checks and exit codes of a
command line, and a key its sidecar lacks is a parameter error.  A sweep
evaluates its points in order in the calling thread; `--threads` is
accepted for compatibility and recorded in the sidecar, but selects
nothing.

Exit codes: 0 success, 2 parameter/usage error, 3 convergence failure,
4 capacity error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .continuum import (DEFAULT_BUDGET, asymptotic_correlation,
                        continuum_correlation, scaling_probe)
from .errors import (CapacityError, ConvergenceError, ParameterError, UsageError)
from .fmt17 import Cycle, Table, concat, write_table
from .model import CutoffSpec, PhysicalParams
from .oracle import TruncationSpec, build_hamiltonian, expectation, ground_state
from .perturb import energy_shift, photon_spectrum
from .single_cavity import delta_energy_density, em_field_fluctuations
from .two_cavity import squared_field_correlation_discrete

SI_HBAR = 1.054571817e-34
SI_C = 2.99792458e8

# configuration keys that may be swept and coerced to float
SWEEPABLE = {"mass", "omega0", "length", "cutoff_omega_m", "xt1", "xt2",
             "bin_width", "rel_tol"}


def _parse_cutoff(text: str) -> tuple[str, float]:
    kind, _, val = text.partition(":")
    try:
        return kind, float(val)
    except ValueError:
        raise ParameterError(f"cutoff must look like 'exp:50' or 'sharp:50', got {text!r}")


def _parse_values(spec: str) -> np.ndarray:
    """Comma list '1,2,4' or range 'lo:hi:n' / 'lo:hi:n:log', as float64."""
    if not isinstance(spec, str):
        raise ParameterError(
            f"value list must be a string like '1,2,4' or 'lo:hi:n[:log]', got {spec!r}")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ParameterError(f"range spec must be lo:hi:n[:log], got {spec!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParameterError(
                f"range spec must be lo:hi:n[:log] with an integer n, got {spec!r}")
        if n < 1:
            raise ParameterError("range spec needs n >= 1")
        if len(parts) == 4:
            if lo <= 0 or hi <= 0:
                raise ParameterError("log range needs positive endpoints")
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)
    try:
        return np.array([float(v) for v in spec.split(",") if v != ""])
    except ValueError:
        raise ParameterError(f"could not parse value list {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vacmirror",
        description="Vacuum observables near a quantum-mechanical movable mirror")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, mass=True, length=True):  # --m and --L where the run reads them
        if mass:
            p.add_argument("--m", "--mass", dest="mass", type=float, default=1.0,
                           help="mirror mass")
        p.add_argument("--omega0", type=float, default=1.0,
                       help="mirror angular frequency")
        if length:
            p.add_argument("--L", dest="length", type=float, default=1.0,
                           help="cavity length")
        p.add_argument("--hbar", type=float, default=None)
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--si", action="store_true",
                       help="interpret parameters in SI units (kg, 1/s, m)")
        p.add_argument("--sweep", default=None, metavar="NAME=SPEC",
                       help="sweep one parameter (e.g. mass=1:16:5:log)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and recorded in the "
                       "sidecar; sweeps run serially (default 1)")
        p.add_argument("-o", "--output", required=True, help="output CSV path")

    def mode_sum(p):        # common(p) and the options of a mode sum
        common(p)
        p.add_argument("--cutoff", default="exp:50",
                       help="regularization KIND:OMEGA_M, e.g. exp:50 or sharp:50")
        p.add_argument("--sharp-rule", choices=["per_mode", "total"],
                       default="per_mode")
        p.add_argument("--n-max", type=int, default=None,
                       help="explicit mode count overriding the cutoff size")

    p = sub.add_parser("energy-shift", help="ground-state energy shift")
    mode_sum(p)

    p = sub.add_parser("spectrum", help="virtual photon pair spectrum")
    mode_sum(p)
    p.add_argument("--bin-width", type=float, default=None,
                   help="histogram bin width (default omega0/20)")

    p = sub.add_parser("energy-density", help="field energy density change profile")
    mode_sum(p)
    p.add_argument("--grid", default=None, metavar="LO:HI:N",
                   help="sample grid (default 0.01L:0.99L:200)")
    p.add_argument("--origin", choices=["fixed", "movable"], default="fixed")

    p = sub.add_parser("em-fluct", help="electric/magnetic fluctuation profile")
    mode_sum(p)
    p.add_argument("--component", choices=["E", "B"], required=True)
    p.add_argument("--grid", default=None, metavar="LO:HI:N")
    p.add_argument("--origin", choices=["fixed", "movable"], default="fixed")

    p = sub.add_parser("correlation", help="cross-cavity squared-field correlation")
    mode_sum(p)
    p.add_argument("--method", choices=["discrete", "asymptotic"], default="discrete")
    p.add_argument("--x1-grid", default=None, metavar="LO:HI:N",
                   help="cavity-1 positions (default 0.05L:0.95L:10)")
    p.add_argument("--x2-grid", default=None, metavar="LO:HI:N",
                   help="cavity-2 positions (default 1.05L:1.95L:10)")
    p.add_argument("--xt1", type=float, default=None,
                   help="distance from the wall (asymptotic method)")
    p.add_argument("--xt2", type=float, default=None)
    p.add_argument("--negativity", choices=["warn", "raise", "ignore"],
                   default="warn")

    p = sub.add_parser("continuum", help="single-wall continuum correlation")
    common(p, length=False)
    p.add_argument("--omega-m", type=float, required=True,
                   help="exponential cutoff frequency")
    p.add_argument("--xt1", type=float, required=True)
    p.add_argument("--xt2", type=float, required=True)
    p.add_argument("--method", choices=["partial_analytic", "full_quadrature"],
                   default="partial_analytic")
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET)

    p = sub.add_parser("scaling", help="log-log scaling probes")
    common(p, length=False)
    p.add_argument("--quantity", choices=["asymptotic", "far_field", "continuum"],
                   required=True)
    p.add_argument("--axis", choices=["mass", "omega0", "distance"], required=True)
    p.add_argument("--points", required=True,
                   help="probe values: comma list or lo:hi:n[:log]")
    p.add_argument("--xt", type=float, default=None,
                   help="distance for mass/omega0 axes (default 10 c/omega0)")
    p.add_argument("--omega-m", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=1e-6)

    p = sub.add_parser("oracle-validate",
                       help="exact diagonalization versus perturbation theory")
    common(p, mass=False)
    p.add_argument("--cavities", choices=["1", "2"], default="1")
    p.add_argument("--modes", type=int, default=None,
                   help="modes per cavity (default 2 one-cavity, 1 two-cavity)")
    p.add_argument("--max-photons", type=int, default=6)
    p.add_argument("--max-mirror", type=int, default=6)
    p.add_argument("--lambdas", default="0.05,0.025,0.0125",
                   help="dimensionless couplings to scan")
    p.add_argument("--x1", type=float, default=None,
                   help="cavity-1 point for correlators (two-cavity)")
    p.add_argument("--x2", type=float, default=None)

    p = sub.add_parser("rerun", help="recompute a CSV from its JSON sidecar")
    p.add_argument("--sidecar", required=True)
    p.add_argument("-o", "--output", required=True)

    return ap


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def build_config(args) -> dict:
    """Flat, JSON-serializable run configuration: the parsed options, so
    build_parser is the one schema, with these translations.  --cutoff
    becomes cutoff_kind and cutoff_omega_m, --sweep sweep_param and
    sweep_spec; hbar and c default to 1 or, with --si, to their SI values;
    the grids default to fractions of L; oracle-validate's --cavities reads
    'one' or 'two' and --modes becomes modes_per_cavity.  Only keys the run
    reads are kept: a correlation drops its other method's, the asymptotic
    law also length and the mode-sum keys but cutoff_kind, a one-cavity
    oracle x1, x2.

    Checks only --cutoff, where it enters; compute_rows and the _compute_*
    functions check every other value where the run uses it."""
    cfg = dict(vars(args))
    sweep = cfg.pop("sweep")
    if "cutoff" in cfg:
        kind, omega_m = _parse_cutoff(cfg.pop("cutoff"))
        CutoffSpec(kind, omega_m, cfg["sharp_rule"])  # validate now
        cfg.update(cutoff_kind=kind, cutoff_omega_m=omega_m)
    cfg.update(sweep_param=None, sweep_spec=None)
    if sweep:
        name, _, spec = sweep.partition("=")
        cfg.update(sweep_param=name.replace("-", "_"), sweep_spec=spec)
    hbar, c = (SI_HBAR, SI_C) if cfg["si"] else (1.0, 1.0)
    cfg.update(hbar=hbar if cfg["hbar"] is None else cfg["hbar"],
               c=c if cfg["c"] is None else cfg["c"])

    for key, lo, hi, n in (("grid", 0.01, 0.99, 200), ("x1_grid", 0.05, 0.95, 10),
                           ("x2_grid", 1.05, 1.95, 10)):
        if key in cfg and not cfg[key]:
            cfg[key] = f"{lo * cfg['length']!r}:{hi * cfg['length']!r}:{n}"
    if cfg["command"] == "correlation":
        unused = (("x1_grid", "x2_grid", "negativity", "cutoff_omega_m",
                   "sharp_rule", "n_max", "length")
                  if cfg["method"] == "asymptotic" else ("xt1", "xt2"))
        for key in unused:
            del cfg[key]
    if cfg["command"] == "oracle-validate":
        one = cfg["cavities"] == "1"
        modes = cfg.pop("modes")
        cfg.update(cavities="one" if one else "two",
                   modes_per_cavity=(2 if one else 1) if modes is None else modes)
        if one:
            del cfg["x1"], cfg["x2"]
    return cfg


def _unread(cfg) -> set:
    """The parameters a run never reads, so never records: oracle-validate's
    mass, which each coupling sets, and the continuum formulas' length."""
    cmd = cfg["command"]
    if cmd == "oracle-validate":
        return {"mass"}
    continuum = cmd in ("continuum", "scaling") or (
        cmd == "correlation" and cfg["method"] == "asymptotic")
    return {"length"} if continuum else set()


def _params_from(cfg) -> PhysicalParams:
    """The run's physical parameters, with 1 for each one it never reads."""
    unread = _unread(cfg)
    return PhysicalParams(*(1.0 if key in unread else cfg[key]
                            for key in ("mass", "omega0", "length", "hbar", "c")))


def _cutoff_from(cfg) -> CutoffSpec:
    return CutoffSpec(cfg["cutoff_kind"], cfg["cutoff_omega_m"], cfg["sharp_rule"])


# ---------------------------------------------------------------------------
# per-command computations: return (header, table, diagnostics)
# ---------------------------------------------------------------------------

def _const(n, *values):
    """One Cycle column per value, each value repeated n times."""
    return [Cycle([v], 1, n) for v in values]


def _compute_energy_shift(cfg):
    params = _params_from(cfg)
    value = energy_shift(params, _cutoff_from(cfg), cfg["n_max"])
    return (["value", "method", "achieved_rel_tol"],
            Table([[value], ["discrete-sum"], [""]]),
            {"n_values": 1})


def _compute_spectrum(cfg):
    params = _params_from(cfg)
    spec = photon_spectrum(params, _cutoff_from(cfg), cfg["n_max"],
                           cfg["bin_width"])
    lo, hi = spec.bin_edges[:-1], spec.bin_edges[1:]
    table = Table([lo, hi, 0.5 * (lo + hi), spec.weights,
                   *_const(len(lo), "discrete-sum", "")])
    return (["bin_lo", "bin_hi", "bin_center", "weight", "method",
             "achieved_rel_tol"], table,
            {"peak_frequency": spec.peak_frequency,
             "total_weight": spec.total_weight})


def _compute_profile(cfg):
    params = _params_from(cfg)
    cutoff = _cutoff_from(cfg)
    grid = _parse_values(cfg["grid"])
    if cfg["command"] == "energy-density":
        prof = delta_energy_density(params, cutoff, grid, cfg["n_max"],
                                    origin=cfg["origin"])
    else:
        prof = em_field_fluctuations(params, cutoff, grid,
                                     component=cfg["component"],
                                     n_max=cfg["n_max"], origin=cfg["origin"])
    n = len(prof.values)
    table = Table([Cycle(prof.grid_cavity, 1, n),
                   Cycle(prof.grid_from_movable_wall, 1, n), prof.values,
                   *_const(n, "discrete-sum", "")])
    return (["x", "x_from_movable_wall", "value", "method", "achieved_rel_tol"],
            table, {"n_modes": prof.n_modes, "kernel_nodes": prof.kernel_nodes,
                    "cond": prof.cond})


def _compute_correlation(cfg):
    params = _params_from(cfg)
    if cfg["method"] == "asymptotic":
        if cfg["xt1"] is None or cfg["xt2"] is None:
            raise ParameterError("asymptotic correlation needs --xt1 and --xt2")
        if cfg["cutoff_kind"] == "sharp":
            raise ParameterError(
                "--method asymptotic is incompatible with a sharp cutoff; "
                "the closed form assumes omega_m -> infinity")
        value = asymptotic_correlation(params, cfg["xt1"], cfg["xt2"])
        return (["xt1", "xt2", "value", "method", "achieved_rel_tol"],
                Table([[cfg["xt1"]], [cfg["xt2"]], [value], ["asymptotic"],
                       [""]]),
                {})
    cutoff = _cutoff_from(cfg)
    x1 = _parse_values(cfg["x1_grid"])
    x2 = _parse_values(cfg["x2_grid"])
    grid = squared_field_correlation_discrete(
        params, cutoff, x1, x2, cfg["n_max"], negativity=cfg["negativity"])
    # rows run over x1 outer, x2 inner
    n1, n2 = grid.values.shape
    n = n1 * n2
    table = Table([Cycle(grid.x1_grid, n2, n), Cycle(grid.x2_grid, 1, n),
                   Cycle(grid.xt1_grid, n2, n), Cycle(grid.xt2_grid, 1, n),
                   grid.values.ravel(), *_const(n, "discrete-sum", "")])
    return (["x1", "x2", "xt1", "xt2", "value", "method", "achieved_rel_tol"],
            table, {"n_modes": grid.n_modes, "kernel_nodes": grid.kernel_nodes,
                    "cond": grid.cond})


def _compute_continuum(cfg):
    params = _params_from(cfg)
    pt = continuum_correlation(params, cfg["omega_m"], cfg["xt1"], cfg["xt2"],
                               rel_tol=cfg["rel_tol"], method=cfg["method"],
                               budget=cfg["budget"])
    return (["xt1", "xt2", "value", "method", "achieved_rel_tol", "neval"],
            Table([[pt.xt1], [pt.xt2], [pt.value], [pt.method], [pt.rel_tol],
                   [pt.neval]]),
            {"achieved_rel_tol": pt.rel_tol, "neval": pt.neval})


def _compute_scaling(cfg):
    params = _params_from(cfg)
    probes = scaling_probe(params, cfg["quantity"], cfg["axis"],
                           _parse_values(cfg["points"]), xt=cfg["xt"],
                           omega_m=cfg["omega_m"], rel_tol=cfg["rel_tol"])
    table = Table([[p.parameter for p in probes], [p.value for p in probes],
                   [p.log_slope for p in probes],
                   *_const(len(probes), cfg["quantity"], "")])
    return (["parameter", "value", "log_slope", "method", "achieved_rel_tol"],
            table, {})


def _compute_oracle_validate(cfg):
    base = _params_from(cfg)
    lambdas = _parse_values(cfg["lambdas"]).tolist()
    # each coupling sets the mass hbar / (8 lambda^2 omega0 L^2)
    if not all(0 < lam < math.inf for lam in lambdas):
        raise ParameterError(
            f"couplings must be positive and finite, got {cfg['lambdas']!r}")
    trunc = TruncationSpec(modes_per_cavity=cfg["modes_per_cavity"],
                           max_photons_per_mode=cfg["max_photons"],
                           max_mirror_quanta=cfg["max_mirror"])
    rows = []
    for lam in lambdas:
        mass = base.hbar / (8.0 * lam**2 * base.omega0 * base.length**2)
        params = base.with_mass(mass)
        model = build_hamiltonian(params, trunc, cfg["cavities"])
        res = ground_state(model)
        cut = CutoffSpec.sharp_n_modes(params, cfg["modes_per_cavity"])
        if cfg["cavities"] == "one":
            pert = energy_shift(params, cut)
            rows.append([lam, "energy_shift", pert, res.energy_shift,
                         abs(res.energy_shift - pert) / abs(pert),
                         "oracle", res.residual_norm])
        else:
            L = params.length
            x1 = 0.63 * L if cfg["x1"] is None else cfg["x1"]
            x2 = L + 0.37 * L if cfg["x2"] is None else cfg["x2"]
            pert = squared_field_correlation_discrete(
                params, cut, [x1], [x2], negativity="ignore").values[0, 0]
            orc = expectation(model, res, ("phi2phi2", x1, x2))
            rows.append([lam, "phi2phi2", pert, orc,
                         abs(orc - pert) / abs(pert), "oracle",
                         res.residual_norm])
            cross = expectation(model, res, ("phi1phi2", x1, x2))
            rows.append([lam, "phi1phi2", 0.0, cross, abs(cross), "oracle",
                         res.residual_norm])
    return (["lam", "quantity", "perturbative", "oracle", "rel_err",
             "method", "achieved_rel_tol"], Table(zip(*rows)), {})


_COMPUTE = {
    "energy-shift": _compute_energy_shift,
    "spectrum": _compute_spectrum,
    "energy-density": _compute_profile,
    "em-fluct": _compute_profile,
    "correlation": _compute_correlation,
    "continuum": _compute_continuum,
    "scaling": _compute_scaling,
    "oracle-validate": _compute_oracle_validate,
}


def compute_rows(cfg):
    """Check and run one configuration, expanding a sweep if present: its
    points are evaluated in order, in the calling thread."""
    cmd = cfg["command"]
    fn = _COMPUTE.get(cmd)
    if fn is None:
        raise ParameterError(
            f"invalid choice: {cmd!r} (choose from {', '.join(_COMPUTE)})")
    threads = cfg["threads"]
    if not isinstance(threads, numbers.Integral) or isinstance(threads, bool):
        raise ParameterError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    name = cfg["sweep_param"]
    if name is None:
        return fn(cfg)
    _params_from(cfg)  # the base parameters are recorded, swept or not
    if name not in SWEEPABLE:
        raise ParameterError(f"cannot sweep {name!r}; sweepable: {sorted(SWEEPABLE)}")
    if cmd == "oracle-validate" and name == "mass":
        raise ParameterError("oracle-validate sets the mass from each coupling: "
                             "scan the couplings with --lambdas, not --sweep mass")
    if cfg.get(name) is None:
        raise ParameterError(f"{name!r} is not a parameter of {cmd!r}")
    values = _parse_values(cfg["sweep_spec"])
    if len(values) < 2:
        raise ParameterError("a sweep needs at least 2 points")
    # each point gets a Python float, as from a command line, so a message
    # that shows the swept value reads the same, and cfg's type, so a key a
    # sidecar lacks stays a parameter error
    results = [fn(type(cfg)(cfg, sweep_param=None, **{name: v}))
               for v in values.tolist()]
    header = [name] + results[0][0]
    tables = [t for _, t, _ in results]
    counts = [len(t) for t in tables]
    # the swept column is a grid whenever every point has as many rows
    swept = (Cycle(values, counts[0], sum(counts)) if len(set(counts)) == 1
             else np.repeat(values, counts))
    table = Table([swept, *map(concat, zip(*(t.columns for t in tables)))])
    # each diagnostic becomes the list of its per-point values, in sweep order
    diag = {k: [sub_diag[k] for _, _, sub_diag in results]
            for k in results[0][2]}
    return header, table, diag


def _compute_recording_warnings(cfg):
    """compute_rows, with each distinct warning message added to the
    diagnostics as 'warnings'; the warnings are still shown as usual."""
    fired = set()
    with warnings.catch_warnings():
        show = warnings.showwarning

        def record(message, *args, **kwargs):
            fired.add(str(message))
            show(message, *args, **kwargs)

        warnings.showwarning = record
        header, table, diag = compute_rows(cfg)
    diag["warnings"] = sorted(fired)
    return header, table, diag


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def sidecar_path(output: str) -> str:
    base, ext = os.path.splitext(output)
    return base + ".meta.json" if ext == ".csv" else output + ".meta.json"


def write_outputs(cfg, header, table, diagnostics, wall_time: float):
    """Write the CSV, its rows by fmt17.write_table, then the JSON sidecar,
    which adds the seconds spent on the CSV (diag_stage_write_s), its data
    row count (diag_rows) and the process's peak resident memory so far
    (diag_peak_rss_kib).  table is a Table or a plain list of rows."""
    import resource     # POSIX only, and needed here only
    if not isinstance(table, Table):
        table = Table(zip(*table))
    t0 = time.perf_counter()
    with open(cfg["output"], "w", newline="") as fh:
        # threads and the output path never influence data values; keeping
        # them out of the CSV block makes reruns byte-comparable
        for key in sorted(k for k in cfg if k not in ("threads", "output")):
            fh.write(f"# {key} = {cfg[key]}\n")
        fh.write(",".join(header) + "\n")
        fh.flush()  # the rows go straight to the byte buffer underneath
        write_table(fh.buffer, table, fh.encoding)
    write_s = time.perf_counter() - t0

    meta = dict(cfg)
    meta["library_version"] = __version__
    meta["wall_time_s"] = wall_time
    for k, v in diagnostics.items():
        meta[f"diag_{k}"] = v
    meta["diag_stage_write_s"] = write_s
    meta["diag_rows"] = len(table)
    # ru_maxrss is in KiB on Linux
    meta["diag_peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(sidecar_path(cfg["output"]), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


class _Sidecar(dict):
    """A rerun's configuration: a key the sidecar lacks is a parameter error."""

    def __missing__(self, key):
        raise ParameterError(f"the sidecar has no {key!r} key")


def config_from_sidecar(path: str) -> dict:
    with open(path) as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise ParameterError(f"sidecar {path} is not JSON: {exc}")
    if not isinstance(meta, dict):
        raise ParameterError(
            f"sidecar {path} must hold a JSON object, not a {type(meta).__name__}")
    return _Sidecar((k, v) for k, v in meta.items()
                    if k != "library_version" and k != "wall_time_s"
                    and not k.startswith("diag_"))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the parser of `main`, built on its first call and reused by later calls
# in the same process
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "rerun":
            cfg = config_from_sidecar(args.sidecar)
            cfg["output"] = args.output
        else:
            cfg = build_config(args)
        t1 = time.perf_counter()
        header, table, diag = _compute_recording_warnings(cfg)
        diag["stage_compute_s"] = time.perf_counter() - t1
        # stdout carries the coupling only for a run that passed its checks
        # and reads the mass and length it follows from: not oracle-validate,
        # whose rows each set their own, nor the continuum formulas
        if cfg.get("si") and not _unread(cfg):
            print(f"# lambda = {_params_from(cfg).coupling_lambda:.6e}")
        write_outputs(cfg, header, table, diag, time.perf_counter() - t0)
        return 0
    except (ParameterError, UsageError) as exc:
        print(f"vacmirror: parameter error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"vacmirror: convergence failure: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"vacmirror: capacity error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"vacmirror: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
