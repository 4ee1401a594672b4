"""Workload definitions: the CLI operations each workload runs, built from a seed.

Physical parameters are those of the acceptance suite: hbar = c = L = 1,
omega0 = pi, lambda = 0.05 (mass 1/(8 * 0.05**2 * pi)); the continuum
commands use unit parameters.  The seed varies only the mirror mass (by a
factor f) and the oracle couplings (by a factor g <= 1, which keeps them
inside the stable window).  Every perturbative and continuum value carries
an exact 1/m prefactor, so the checks compare seed-invariant products
(value * mass, perturbative / lambda**2) with references recorded at seed 0.

After its main load, every pass runs "companions": one small fixed-size
call of every CLI command (the oracle with two cavities, so that the
field-operator expectations run too).  Every layer function then has work,
and every per-layer time is measured, on every workload, for a few per
cent of a pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

PI = math.pi
LAMBDA = 0.05
ACCEPTANCE_MASS = 1.0 / (8.0 * LAMBDA**2 * PI)

WORKLOADS = ("modesum-large", "many-small", "continuum-quad", "oracle-ed")

# address-space cap of the workload process, MiB; the two large workloads
# peak near 2.6 GiB of resident memory
MEM_CAP_MIB = {"modesum-large": 4096, "many-small": 2048,
               "continuum-quad": 4096, "oracle-ed": 2048}

COMPANION_PREFIX = "small/"

# metric name of each CLI command's seconds
COMMAND_METRIC = {
    "energy-shift": "energy_shift_s",
    "spectrum": "spectrum_s",
    "energy-density": "energy_density_s",
    "em-fluct": "em_fluct_s",
    "correlation": "correlation_s",
    "continuum/full_quadrature": "continuum_fq_s",
    "continuum/partial_analytic": "continuum_pa_s",
    "scaling": "scaling_s",
    "oracle-validate": "oracle_validate_s",
}


@dataclass(frozen=True)
class Inputs:
    """Seed-derived inputs: mass factor f and oracle coupling factor g."""

    seed: int
    f: float
    g: float

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(seed, rng.uniform(0.8, 1.25), rng.uniform(0.85, 1.0))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the checks its output must pass.

    key names the reference entry (shared by identical operations in
    different workloads); argv excludes the output path; mass is the
    mirror mass of a non-swept command (None when the mass is swept or
    the command derives it from lambda).
    """

    key: str
    metric: str
    argv: tuple
    mass: float | None = None
    checks: tuple = field(default=())
    crosscheck: str | None = None     # key of an op whose value must agree


def _cut(multiple: float) -> str:
    return f"exp:{multiple * PI!r}"


def _modesum(inp, key, cmd, cutoff):
    m = ACCEPTANCE_MASS * inp.f
    extra = ["--component", "E"] if cmd == "em-fluct" else []
    checks = ("negative",) if cmd in ("energy-shift", "correlation") else ()
    return Op(key, COMMAND_METRIC[cmd],
              (cmd, *extra, "--m", repr(m), "--omega0", repr(PI), "--cutoff", cutoff),
              m, checks)


def _sweep(inp, key, cmd, cutoff, points):
    extra = ["--component", "E"] if cmd == "em-fluct" else []
    checks = ("negative",) if cmd in ("energy-shift", "correlation") else ()
    spec = f"mass={inp.f!r}:{64.0 * inp.f!r}:{points}:log"
    return Op(key, COMMAND_METRIC[cmd],
              (cmd, *extra, "--omega0", repr(PI), "--cutoff", cutoff,
               "--sweep", spec, "--threads", "1"), None, checks)


def _continuum(inp, key, method, omega_m, xt, rel_tol, crosscheck=None):
    argv = ["continuum", "--m", repr(inp.f), "--omega-m", repr(omega_m),
            "--xt1", repr(xt), "--xt2", repr(xt), "--method", method,
            "--rel-tol", repr(rel_tol)]
    if method == "full_quadrature":
        argv += ["--budget", "4e9"]
    return Op(key, COMMAND_METRIC[f"continuum/{method}"], tuple(argv), inp.f,
              ("negative", "tolerance"), crosscheck)


def _scaling(inp, key, points):
    return Op(key, "scaling_s",
              ("scaling", "--m", repr(inp.f), "--quantity", "continuum",
               "--axis", "distance", "--points", points), inp.f, ())


def _oracle(inp, key, cavities, modes, caps, lambdas):
    argv = ["oracle-validate", "--omega0", repr(PI), "--cavities", str(cavities),
            "--modes", str(modes), "--lambdas", lambdas]
    if caps is not None:
        argv += ["--max-photons", str(caps), "--max-mirror", str(caps)]
    return Op(key, "oracle_validate_s", tuple(argv), None, ("oracle",))


def _companions(inp: Inputs) -> list:
    """Small fixed-size calls of every command.

    partial_analytic comes first, ahead of the full-quadrature call that
    is checked against it.
    """
    c = COMPANION_PREFIX
    pa = _continuum(inp, c + "continuum-pa", "partial_analytic", 1.0, 0.5, 1e-8)
    return [
        pa,
        _continuum(inp, c + "continuum-fq", "full_quadrature", 1.0, 0.5, 1e-4,
                   crosscheck=pa.key),
        _modesum(inp, c + "energy-shift", "energy-shift", _cut(5)),
        _modesum(inp, c + "energy-density", "energy-density", _cut(5)),
        _modesum(inp, c + "em-fluct", "em-fluct", _cut(5)),
        _modesum(inp, c + "correlation", "correlation", _cut(5)),
        _modesum(inp, c + "spectrum", "spectrum", _cut(5)),
        _scaling(inp, c + "scaling", "1:4:3:log"),
        _oracle(inp, c + "oracle-two", 2, 1, 3, repr(0.0125 * inp.g)),
    ]


def _main_load(workload: str, inp: Inputs, size: str) -> list:
    smoke = size == "smoke"
    if workload == "modesum-large":
        big, spec = (_cut(20), _cut(10)) if smoke else (_cut(200), _cut(50))
        return [_modesum(inp, f"{size}/large/{c}", c, big)
                for c in ("energy-shift", "energy-density", "em-fluct", "correlation")] + \
               [_modesum(inp, f"{size}/large/spectrum", "spectrum", spec)]
    if workload == "many-small":
        cut, points = (_cut(5), 4) if smoke else (_cut(20), 48)
        lambdas = (f"{0.025 * inp.g!r}:{0.0125 * inp.g!r}:2:log" if smoke
                   else f"{0.025 * inp.g!r}:{0.00625 * inp.g!r}:8:log")
        return [_sweep(inp, f"{size}/sweep/{c}", c, cut, points)
                for c in ("energy-shift", "energy-density", "em-fluct", "correlation")] + \
               [_scaling(inp, f"{size}/scaling", "5:40:3:log" if smoke else "5:40:8:log"),
                _oracle(inp, f"{size}/oracle-one", 1, 2, None, lambdas)]
    if workload == "continuum-quad":
        omega_m, xt, tol = (2.0, 0.2, 1e-4) if smoke else (15.0, 0.15, 1e-7)
        pa = _continuum(inp, f"{size}/continuum-pa", "partial_analytic", omega_m, xt, 1e-8)
        return [pa, _continuum(inp, f"{size}/continuum-fq", "full_quadrature",
                               omega_m, xt, tol, crosscheck=pa.key)]
    if workload == "oracle-ed":
        if smoke:
            return [_oracle(inp, "smoke/oracle-two", 2, 1, 3, repr(0.025 * inp.g))]
        return [_oracle(inp, "full/oracle-two", 2, 2, 4,
                        f"{0.025 * inp.g!r},{0.0125 * inp.g!r}")]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, inp: Inputs) -> list:
    """Untimed operations run before the first pass.

    The smoke-size pass loads lazily imported modules and starts the sweep
    pool.  modesum-large also runs its first operation once: the first
    touch of some GiB of fresh memory costs 1-3 s of kernel time, by the
    host's state rather than the program's, and with two passes in a run
    it would move the median.
    """
    ops = build_pass(workload, inp, "smoke")
    if workload == "modesum-large":
        ops.append(_main_load(workload, inp, "full")[0])
    return ops


def is_companion(op_key: str) -> bool:
    return op_key.startswith(COMPANION_PREFIX)


def build_pass(workload: str, inp: Inputs, size: str = "full") -> list:
    """The operations of one pass: the main load, then the companions."""
    return _main_load(workload, inp, size) + _companions(inp)
