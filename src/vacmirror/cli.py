"""Command-line front end: deterministic CSV/JSON outputs for every observable.

Each run writes one CSV data file (a '#'-prefixed provenance block with
the full configuration, a header row, then one record per grid point)
and a flat JSON sidecar (same configuration keys plus library version,
wall-clock time and convergence diagnostics).  Identical configurations
produce byte-identical CSV files at any thread count; `vacmirror rerun`
rebuilds the CSV from a sidecar alone.

Exit codes: 0 success, 2 parameter/usage error, 3 convergence failure,
4 capacity error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .continuum import (DEFAULT_BUDGET, asymptotic_correlation,
                        continuum_correlation, scaling_probe)
from .errors import (CapacityError, ConvergenceError, ParameterError, UsageError)
from .model import CutoffSpec, PhysicalParams
from .oracle import TruncationSpec, build_hamiltonian, expectation, ground_state
from .perturb import dressed_amplitudes, energy_shift, photon_spectrum
from .single_cavity import (default_grid, delta_energy_density,
                            em_field_fluctuations)
from .two_cavity import squared_field_correlation_discrete

SI_HBAR = 1.054571817e-34
SI_C = 2.99792458e8

THREADS_ENV = "VACMIRROR_THREADS"

# configuration keys that may be swept and coerced to float
SWEEPABLE = {"mass", "omega0", "length", "cutoff_omega_m", "xt1", "xt2",
             "bin_width", "rel_tol"}


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17e")
    return str(v)


def _parse_cutoff(text: str) -> tuple[str, float]:
    try:
        kind, _, val = text.partition(":")
        omega_m = float(val)
    except ValueError:
        raise ParameterError(f"cutoff must look like 'exp:50' or 'sharp:50', got {text!r}")
    if kind not in ("exp", "sharp"):
        raise ParameterError(f"cutoff kind must be 'exp' or 'sharp', got {kind!r}")
    return kind, omega_m


def _parse_values(spec: str) -> list[float]:
    """Comma list '1,2,4' or range 'lo:hi:n' / 'lo:hi:n:log'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ParameterError(f"range spec must be lo:hi:n[:log], got {spec!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ParameterError("range spec needs n >= 1")
        if len(parts) == 4:
            if lo <= 0 or hi <= 0:
                raise ParameterError("log range needs positive endpoints")
            return [float(v) for v in np.geomspace(lo, hi, n)]
        return [float(v) for v in np.linspace(lo, hi, n)]
    try:
        return [float(v) for v in spec.split(",") if v != ""]
    except ValueError:
        raise ParameterError(f"could not parse value list {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vacmirror",
        description="Vacuum observables near a quantum-mechanical movable mirror")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, cutoff_default=None):
        p.add_argument("--m", "--mass", dest="mass", type=float, default=1.0,
                       help="mirror mass")
        p.add_argument("--omega0", type=float, default=1.0,
                       help="mirror angular frequency")
        p.add_argument("--L", dest="length", type=float, default=1.0,
                       help="cavity length")
        p.add_argument("--hbar", type=float, default=None)
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--si", action="store_true",
                       help="interpret parameters in SI units (kg, 1/s, m)")
        p.add_argument("--cutoff", default=cutoff_default,
                       help="regularization KIND:OMEGA_M, e.g. exp:50 or sharp:50")
        p.add_argument("--sharp-rule", choices=["per_mode", "total"],
                       default="per_mode")
        p.add_argument("--n-max", type=int, default=None,
                       help="explicit mode count overriding the cutoff size")
        p.add_argument("--sweep", default=None, metavar="NAME=SPEC",
                       help="sweep one parameter (e.g. mass=1:16:5:log)")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads for sweeps (default ${THREADS_ENV} or 1)")
        p.add_argument("-o", "--output", required=True, help="output CSV path")

    p = sub.add_parser("energy-shift", help="ground-state energy shift")
    common(p, cutoff_default="exp:50")

    p = sub.add_parser("spectrum", help="virtual photon pair spectrum")
    common(p, cutoff_default="exp:50")
    p.add_argument("--bin-width", type=float, default=None,
                   help="histogram bin width (default omega0/20)")

    p = sub.add_parser("energy-density", help="field energy density change profile")
    common(p, cutoff_default="exp:50")
    p.add_argument("--grid", default=None, metavar="LO:HI:N",
                   help="sample grid (default 0.01L:0.99L:200)")
    p.add_argument("--origin", choices=["fixed", "movable"], default="fixed")

    p = sub.add_parser("em-fluct", help="electric/magnetic fluctuation profile")
    common(p, cutoff_default="exp:50")
    p.add_argument("--component", choices=["E", "B"], required=True)
    p.add_argument("--grid", default=None, metavar="LO:HI:N")
    p.add_argument("--origin", choices=["fixed", "movable"], default="fixed")

    p = sub.add_parser("correlation", help="cross-cavity squared-field correlation")
    common(p, cutoff_default="exp:50")
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
    common(p)
    p.add_argument("--omega-m", type=float, required=True,
                   help="exponential cutoff frequency")
    p.add_argument("--xt1", type=float, required=True)
    p.add_argument("--xt2", type=float, required=True)
    p.add_argument("--method", choices=["partial_analytic", "full_quadrature"],
                   default="partial_analytic")
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET)

    p = sub.add_parser("scaling", help="log-log scaling probes")
    common(p)
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
    common(p)
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
    """Validated, flat, JSON-serializable run configuration."""
    cfg = {"command": args.command, "output": args.output}
    hbar = args.hbar
    c = args.c
    if args.si:
        hbar = SI_HBAR if hbar is None else hbar
        c = SI_C if c is None else c
    else:
        hbar = 1.0 if hbar is None else hbar
        c = 1.0 if c is None else c
    cfg.update(mass=args.mass, omega0=args.omega0, length=args.length,
               hbar=hbar, c=c, si=bool(args.si))
    params = PhysicalParams(cfg["mass"], cfg["omega0"], cfg["length"],
                            cfg["hbar"], cfg["c"])

    if getattr(args, "cutoff", None) is not None:
        kind, omega_m = _parse_cutoff(args.cutoff)
        cfg.update(cutoff_kind=kind, cutoff_omega_m=omega_m,
                   sharp_rule=args.sharp_rule)
        CutoffSpec(kind, omega_m, args.sharp_rule)  # validate now
    else:
        cfg.update(cutoff_kind=None, cutoff_omega_m=None,
                   sharp_rule=getattr(args, "sharp_rule", "per_mode"))
    cfg["n_max"] = getattr(args, "n_max", None)

    cmd = args.command
    if cmd == "spectrum":
        cfg["bin_width"] = args.bin_width
    if cmd in ("energy-density", "em-fluct"):
        cfg["grid"] = args.grid or f"{0.01 * params.length!r}:{0.99 * params.length!r}:200"
        cfg["origin"] = args.origin
    if cmd == "em-fluct":
        cfg["component"] = args.component
    if cmd == "correlation":
        cfg["method"] = args.method
        if args.method == "asymptotic":
            if args.xt1 is None or args.xt2 is None:
                raise ParameterError("asymptotic correlation needs --xt1 and --xt2")
            if args.cutoff is not None and cfg["cutoff_kind"] == "sharp":
                raise ParameterError(
                    "--method asymptotic is incompatible with a sharp cutoff; "
                    "the closed form assumes omega_m -> infinity")
            cfg.update(xt1=args.xt1, xt2=args.xt2)
        else:
            L = params.length
            cfg["x1_grid"] = args.x1_grid or f"{0.05 * L!r}:{0.95 * L!r}:10"
            cfg["x2_grid"] = args.x2_grid or f"{1.05 * L!r}:{1.95 * L!r}:10"
            cfg["negativity"] = args.negativity
    if cmd == "continuum":
        cfg.update(omega_m=args.omega_m, xt1=args.xt1, xt2=args.xt2,
                   method=args.method, rel_tol=args.rel_tol, budget=args.budget)
    if cmd == "scaling":
        cfg.update(quantity=args.quantity, axis=args.axis, points=args.points,
                   xt=args.xt, omega_m=args.omega_m, rel_tol=args.rel_tol)
        _parse_values(args.points)
    if cmd == "oracle-validate":
        cavities = "one" if args.cavities == "1" else "two"
        modes = args.modes if args.modes is not None else (2 if cavities == "one" else 1)
        cfg.update(cavities=cavities, modes_per_cavity=modes,
                   max_photons=args.max_photons, max_mirror=args.max_mirror,
                   lambdas=args.lambdas, x1=args.x1, x2=args.x2)
        _parse_values(args.lambdas)

    sweep = getattr(args, "sweep", None)
    if sweep:
        name, _, spec = sweep.partition("=")
        name = name.replace("-", "_")
        if name not in SWEEPABLE:
            raise ParameterError(
                f"cannot sweep {name!r}; sweepable: {sorted(SWEEPABLE)}")
        if name not in cfg or cfg.get(name) is None:
            if name == "cutoff_omega_m":
                raise ParameterError("sweeping cutoff_omega_m needs --cutoff")
            if name not in ("mass", "omega0", "length"):
                raise ParameterError(f"{name!r} is not a parameter of {cmd!r}")
        values = _parse_values(spec)
        if len(values) < 2:
            raise ParameterError("a sweep needs at least 2 points")
        cfg.update(sweep_param=name, sweep_spec=spec)
    else:
        cfg.update(sweep_param=None, sweep_spec=None)

    threads = getattr(args, "threads", None)
    if threads is None:
        threads = int(os.environ.get(THREADS_ENV, "1"))
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    cfg["threads"] = threads
    return cfg


def _params_from(cfg) -> PhysicalParams:
    return PhysicalParams(cfg["mass"], cfg["omega0"], cfg["length"],
                          cfg["hbar"], cfg["c"])


def _cutoff_from(cfg) -> CutoffSpec:
    if cfg.get("cutoff_kind") is None:
        raise ParameterError("this command requires --cutoff")
    return CutoffSpec(cfg["cutoff_kind"], cfg["cutoff_omega_m"], cfg["sharp_rule"])


def _grid_from(cfg, key, fallback=None):
    spec = cfg.get(key)
    if spec is None:
        return fallback
    vals = _parse_values(spec)
    return np.asarray(vals, dtype=float)


# ---------------------------------------------------------------------------
# per-command computations: return (header, rows, diagnostics)
# ---------------------------------------------------------------------------

def _compute_energy_shift(cfg):
    params = _params_from(cfg)
    value = energy_shift(params, _cutoff_from(cfg), cfg.get("n_max"))
    return (["value", "method", "achieved_rel_tol"],
            [[value, "discrete-sum", ""]],
            {"n_values": 1})


def _compute_spectrum(cfg):
    params = _params_from(cfg)
    amps = dressed_amplitudes(params, _cutoff_from(cfg), cfg.get("n_max"))
    spec = photon_spectrum(amps, cfg.get("bin_width"))
    rows = [[float(lo), float(hi), 0.5 * float(lo + hi), float(w),
             "discrete-sum", ""]
            for lo, hi, w in zip(spec.bin_edges[:-1], spec.bin_edges[1:],
                                 spec.weights)]
    return (["bin_lo", "bin_hi", "bin_center", "weight", "method",
             "achieved_rel_tol"], rows,
            {"peak_frequency": spec.peak_frequency,
             "total_weight": spec.total_weight})


def _compute_profile(cfg):
    params = _params_from(cfg)
    cutoff = _cutoff_from(cfg)
    grid = _grid_from(cfg, "grid", default_grid(params))
    if cfg["command"] == "energy-density":
        prof = delta_energy_density(params, cutoff, grid, cfg.get("n_max"),
                                    origin=cfg.get("origin", "fixed"))
    else:
        prof = em_field_fluctuations(params, cutoff, grid,
                                     component=cfg["component"],
                                     n_max=cfg.get("n_max"),
                                     origin=cfg.get("origin", "fixed"))
    rows = [[float(x), float(xm), float(v), "discrete-sum", ""]
            for x, xm, v in zip(prof.grid_cavity, prof.grid_from_movable_wall,
                                prof.values)]
    return (["x", "x_from_movable_wall", "value", "method", "achieved_rel_tol"],
            rows, {"n_modes": prof.n_modes})


def _compute_correlation(cfg):
    params = _params_from(cfg)
    if cfg["method"] == "asymptotic":
        value = asymptotic_correlation(params, cfg["xt1"], cfg["xt2"])
        return (["xt1", "xt2", "value", "method", "achieved_rel_tol"],
                [[cfg["xt1"], cfg["xt2"], value, "asymptotic", ""]],
                {})
    cutoff = _cutoff_from(cfg)
    x1 = _grid_from(cfg, "x1_grid")
    x2 = _grid_from(cfg, "x2_grid")
    grid = squared_field_correlation_discrete(
        params, cutoff, x1, x2, cfg.get("n_max"),
        negativity=cfg.get("negativity", "warn"))
    rows = []
    for i, a in enumerate(grid.x1_grid):
        for j, b in enumerate(grid.x2_grid):
            rows.append([float(a), float(b), float(grid.xt1_grid[i]),
                         float(grid.xt2_grid[j]), float(grid.values[i, j]),
                         "discrete-sum", ""])
    return (["x1", "x2", "xt1", "xt2", "value", "method", "achieved_rel_tol"],
            rows, {"n_modes": grid.n_modes})


def _compute_continuum(cfg):
    params = _params_from(cfg)
    pt = continuum_correlation(params, cfg["omega_m"], cfg["xt1"], cfg["xt2"],
                               rel_tol=cfg["rel_tol"], method=cfg["method"],
                               budget=cfg["budget"])
    return (["xt1", "xt2", "value", "method", "achieved_rel_tol", "neval"],
            [[pt.xt1, pt.xt2, pt.value, pt.method, pt.rel_tol, pt.neval]],
            {"achieved_rel_tol": pt.rel_tol, "neval": pt.neval})


def _compute_scaling(cfg):
    params = _params_from(cfg)
    probes = scaling_probe(params, cfg["quantity"], cfg["axis"],
                           _parse_values(cfg["points"]), xt=cfg.get("xt"),
                           omega_m=cfg.get("omega_m"),
                           rel_tol=cfg.get("rel_tol", 1e-6))
    rows = [[p.parameter, p.value, p.log_slope, cfg["quantity"], ""]
            for p in probes]
    return (["parameter", "value", "log_slope", "method", "achieved_rel_tol"],
            rows, {})


def _compute_oracle_validate(cfg):
    base = _params_from(cfg)
    lambdas = _parse_values(cfg["lambdas"])
    trunc = TruncationSpec(modes_per_cavity=cfg["modes_per_cavity"],
                           max_photons_per_mode=cfg["max_photons"],
                           max_mirror_quanta=cfg["max_mirror"])
    rows = []
    for lam in lambdas:
        mass = base.hbar / (8.0 * lam**2 * base.omega0 * base.length**2)
        params = base.with_mass(mass)
        model = build_hamiltonian(params, trunc, cfg["cavities"])
        res = ground_state(model)
        if cfg["cavities"] == "one":
            cut = CutoffSpec.sharp_n_modes(params, cfg["modes_per_cavity"])
            pert = energy_shift(params, cut)
            rows.append([lam, "energy_shift", pert, res.energy_shift,
                         abs(res.energy_shift - pert) / abs(pert),
                         "oracle", res.residual_norm])
        else:
            L = params.length
            x1 = 0.63 * L if cfg.get("x1") is None else cfg["x1"]
            x2 = L + 0.37 * L if cfg.get("x2") is None else cfg["x2"]
            cut = CutoffSpec.sharp_n_modes(params, cfg["modes_per_cavity"])
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
             "method", "achieved_rel_tol"], rows, {})


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
    """Run one configuration, expanding a sweep if present."""
    command = cfg["command"]
    fn = _COMPUTE[command]
    if not cfg.get("sweep_param"):
        return fn(cfg)
    name = cfg["sweep_param"]
    values = _parse_values(cfg["sweep_spec"])

    def one(v):
        sub = dict(cfg)
        sub[name] = float(v)
        sub["sweep_param"] = None
        return fn(sub)

    with ThreadPoolExecutor(max_workers=cfg["threads"]) as ex:
        results = list(ex.map(one, values))
    header = [name] + results[0][0]
    rows = []
    diag = {}
    for v, (_, sub_rows, sub_diag) in zip(values, results):
        for r in sub_rows:
            rows.append([float(v)] + r)
        diag.update(sub_diag)
    return header, rows, diag


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def sidecar_path(output: str) -> str:
    base, ext = os.path.splitext(output)
    return base + ".meta.json" if ext == ".csv" else output + ".meta.json"


def write_outputs(cfg, header, rows, diagnostics, wall_time: float):
    # threads and the output path never influence data values; keeping
    # them out of the CSV block makes reruns byte-comparable
    lines = []
    for key in sorted(k for k in cfg if k not in ("threads", "output")):
        lines.append(f"# {key} = {cfg[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    with open(cfg["output"], "w", newline="") as fh:
        fh.write(text)

    meta = dict(cfg)
    meta["library_version"] = __version__
    meta["wall_time_s"] = wall_time
    for k, v in diagnostics.items():
        meta[f"diag_{k}"] = v
    with open(sidecar_path(cfg["output"]), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def config_from_sidecar(path: str) -> dict:
    with open(path) as fh:
        meta = json.load(fh)
    cfg = {k: v for k, v in meta.items()
           if k != "library_version" and k != "wall_time_s"
           and not k.startswith("diag_")}
    return cfg


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "rerun":
            cfg = config_from_sidecar(args.sidecar)
            cfg["output"] = args.output
        else:
            cfg = build_config(args)
        if cfg.get("si"):
            params = _params_from(cfg)
            print(f"# lambda = {params.coupling_lambda:.6e}")
        header, rows, diag = compute_rows(cfg)
        write_outputs(cfg, header, rows, diag, time.perf_counter() - t0)
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
