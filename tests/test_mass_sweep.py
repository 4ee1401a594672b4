"""A mass sweep evaluates each mass-free mode sum once (model.mass_free_sum).

The mirror mass enters the profiles and the correlation only through their
1/m prefactor.  Reusing the sum must change nothing else: every value is
bit-identical to a cold call, and an input other than the mass never
reuses a stale sum.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vacmirror import (CutoffSpec, PhysicalParams, UsageError,
                       delta_energy_density, delta_phi_squared,
                       em_field_fluctuations, model, single_cavity,
                       squared_field_correlation_discrete, two_cavity)
from vacmirror.cli import main, sidecar_path

PI = repr(np.pi)
COMMANDS = {
    "energy-density": ["energy-density"],
    "em-fluct-E": ["em-fluct", "--component", "E"],
    "em-fluct-B-movable": ["em-fluct", "--component", "B", "--origin",
                           "movable"],
    "correlation": ["correlation"],
}


def _clear():
    model._last_sum = None


def _count_contractions(monkeypatch):
    """Record every call of the kernel layer by the profiles and the
    correlation: one or two per contraction, none when a sum is reused."""
    calls = []
    for mod, name in ((single_cavity, "exp_sum"), (two_cavity, "exp_sum")):
        def counted(*args, _orig=getattr(mod, name), **kwargs):
            calls.append(name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


def _data_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return lines[1:]


def _warnings(path):
    with open(sidecar_path(str(path))) as fh:
        return json.load(fh)["diag_warnings"]


@pytest.mark.parametrize("command", ["energy-density", "em-fluct-E",
                                     "correlation"])
def test_mass_sweep_contracts_once(tmp_path, monkeypatch, command):
    argv = COMMANDS[command] + ["--omega0", PI, "--cutoff", "exp:31.4"]
    calls = _count_contractions(monkeypatch)
    assert main(argv + ["--m", "2", "-o", str(tmp_path / "one.csv")]) == 0
    once = len(calls)
    assert once > 0

    _clear()
    calls.clear()
    assert main(argv + ["--sweep", "mass=1:16:5:log",
                        "-o", str(tmp_path / "mass.csv")]) == 0
    assert len(calls) == once

    # an exponential cutoff sets the mode count and the damping rate, two
    # inputs of the sum: every point contracts its own sum
    _clear()
    calls.clear()
    assert main(argv + ["--m", "2", "--sweep", "cutoff-omega-m=20:40:5",
                        "-o", str(tmp_path / "cutoff.csv")]) == 0
    assert len(calls) == 5 * once


@pytest.mark.parametrize("command", ["energy-density", "correlation"])
def test_sharp_cutoff_sweep_at_one_mode_count_contracts_once(tmp_path,
                                                              monkeypatch,
                                                              command):
    # sharp:30 and sharp:31 keep the same 9 modes, undamped: the sum reads
    # only those, so the sweep contracts it once
    argv = COMMANDS[command] + ["--cutoff", "sharp:30"]
    calls = _count_contractions(monkeypatch)
    assert main(argv + ["-o", str(tmp_path / "one.csv")]) == 0
    once = len(calls)
    assert once > 0

    _clear()
    calls.clear()
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--sweep", "cutoff-omega-m=30,31", "-o", str(out)]) == 0
    assert len(calls) == once
    with open(sidecar_path(str(out))) as fh:
        assert json.load(fh)["diag_n_modes"] == [9, 9]


@pytest.mark.parametrize("cutoff", ["exp:31.4", "exp:10"])   # 10 < 5 omega0
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["energy-density", "em-fluct-B-movable",
                                     "correlation"])
def test_mass_sweep_rows_match_single_runs(tmp_path, command, threads, cutoff):
    argv = COMMANDS[command] + ["--omega0", PI, "--cutoff", cutoff]
    masses = ["1.5", "4", "11.25"]
    sweep = tmp_path / "sweep.csv"
    assert main(argv + ["--sweep", "mass=" + ",".join(masses),
                        "--threads", threads, "-o", str(sweep)]) == 0
    rows, fired = [], set()
    for m in masses:
        _clear()
        out = tmp_path / f"m{m}.csv"
        assert main(argv + ["--m", m, "-o", str(out)]) == 0
        rows += _data_rows(out)
        fired.update(_warnings(out))
    assert [r.split(",", 1)[1] for r in _data_rows(sweep)] == rows
    assert _warnings(sweep) == sorted(fired)
    assert bool(fired) == (cutoff == "exp:10")


def test_library_mass_loop_matches_cold_calls():
    cut = CutoffSpec.exponential(31.4)
    grid = np.linspace(0.05, 0.95, 9)
    masses = (0.5, 3.0, 15.9, 200.0)
    looped = [delta_energy_density(PhysicalParams(m, np.pi, 1.0), cut, grid,
                                   state="second_order").values
              for m in masses]
    for m, values in zip(masses, looped):
        _clear()
        cold = delta_energy_density(PhysicalParams(m, np.pi, 1.0), cut, grid,
                                    state="second_order").values
        assert values.tobytes() == cold.tobytes()


P0 = PhysicalParams(15.9, np.pi, 1.0)
CUT0 = CutoffSpec.exponential(31.4)
GRID0 = np.linspace(0.1, 0.9, 5)
X1 = np.array([0.3, 0.6, 0.9])


def _e(p=P0, cut=CUT0, grid=GRID0, **kw):
    return em_field_fluctuations(p, cut, grid, **kw)


def _corr(p=P0, cut=CUT0, x1=X1, x2=1.0 + X1, **kw):
    return squared_field_correlation_discrete(p, cut, x1, x2, **kw)


# every input of a sum but the mass, changed one at a time after the
# base call: (warm-up call, changed call)
VARIANTS = {
    "mass": (_e, lambda: _e(PhysicalParams(7.0, np.pi, 1.0))),
    "omega0": (_e, lambda: _e(PhysicalParams(15.9, 3.0, 1.0))),
    "length": (_e, lambda: _e(PhysicalParams(15.9, np.pi, 1.1))),
    "c": (_e, lambda: _e(PhysicalParams(15.9, np.pi, 1.0, c=1.3))),
    "hbar": (_e, lambda: _e(PhysicalParams(15.9, np.pi, 1.0, hbar=0.7))),
    "cutoff kind": (_e, lambda: _e(cut=CutoffSpec.sharp(31.4))),
    "omega_m": (_e, lambda: _e(cut=CutoffSpec.exponential(40.0))),
    "n_max": (_e, lambda: _e(n_max=50)),
    "grid value": (_e, lambda: _e(grid=np.array([0.1, 0.3, 0.5, 0.7, 0.85]))),
    "origin": (_e, lambda: _e(origin="movable")),
    "component": (_e, lambda: _e(component="B")),
    "state": (_e, lambda: _e(state="second_order")),
    "energy density": (_e, lambda: delta_energy_density(P0, CUT0, GRID0)),
    "phi squared": (_e, lambda: delta_phi_squared(P0, CUT0, GRID0)),
    "profile after correlation": (_corr, _e),
    "correlation after profile": (_e, _corr),
    "correlation mass": (_corr, lambda: _corr(PhysicalParams(7.0, np.pi, 1.0))),
    "correlation omega0": (_corr, lambda: _corr(PhysicalParams(15.9, 3.0, 1.0))),
    "correlation cutoff": (_corr, lambda: _corr(cut=CutoffSpec.sharp(31.4))),
    "correlation n_max": (_corr, lambda: _corr(n_max=50)),
    "x1_grid": (_corr, lambda: _corr(x1=np.array([0.3, 0.6, 0.8]))),
    "x2_grid": (_corr, lambda: _corr(x2=np.array([1.3, 1.6]))),
}


@pytest.mark.parametrize("name", list(VARIANTS))
def test_changed_input_matches_cold_call(name):
    warm_up, call = VARIANTS[name]
    warm_up()
    warm = call()
    _clear()
    cold = call()
    assert warm.values.tobytes() == cold.values.tobytes()
    assert (warm.n_modes, warm.kernel_nodes) == (cold.n_modes, cold.kernel_nodes)


def test_sharp_total_rule_still_rejected_after_warm_call():
    _e()
    with pytest.raises(UsageError, match="does not factorize"):
        _e(cut=CutoffSpec.sharp(31.4, rule="total"))
    _corr()
    with pytest.raises(UsageError, match="does not factorize"):
        _corr(cut=CutoffSpec.sharp(31.4, rule="total"))


def test_written_result_leaves_next_call_unchanged():
    cold_e, cold_c = _e().values.copy(), _corr().values.copy()
    for call, cold in ((_e, cold_e), (_corr, cold_c)):
        first = call()
        first.values[...] = 0.0
        assert call().values.tobytes() == cold.tobytes()


def test_threads_sharing_the_memo_get_their_own_sums():
    # more threads than cores, switching often, over three keys at two
    # masses each: a stale or mixed entry would give a call another key's sum
    cuts = (CUT0, CutoffSpec.exponential(40.0), CutoffSpec.sharp(31.4))
    calls = [(m, cut) for m in (2.0, 9.0) for cut in cuts]
    expected = {}
    for m, cut in calls:
        _clear()
        expected[m, cut] = _e(PhysicalParams(m, np.pi, 1.0), cut).values.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as ex:
            futures = [(call, ex.submit(_e, PhysicalParams(call[0], np.pi, 1.0),
                                        call[1]))
                       for call in calls * 10]
            for call, fut in futures:
                assert fut.result(timeout=60).values.tobytes() == expected[call]
    finally:
        sys.setswitchinterval(interval)
