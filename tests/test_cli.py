import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vacmirror import (ConvergenceError, PhysicalParams, cli,
                       continuum_correlation, oracle)
from vacmirror.cli import (build_config, build_parser, compute_rows, main,
                           sidecar_path, write_outputs)
from vacmirror.fmt17 import BLOCK_ROWS, Table

from conftest import reference_csv_line

SRC = str(Path(__file__).resolve().parents[1] / "src")


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def col(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


def test_energy_shift_negative_single_row(tmp_path):
    out = tmp_path / "de.csv"
    rc = main(["energy-shift", "--m", "10", "--omega0", "1", "--L", "1",
               "--cutoff", "exp:50", "-o", str(out)])
    assert rc == 0
    comments, header, rows = read_csv(out)
    assert len(rows) == 1
    assert col(header, rows, "value")[0] < 0
    assert any("cutoff_kind = exp" in c for c in comments)
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert meta["command"] == "energy-shift"
    assert meta["library_version"]


def test_correlation_asymptotic_value(tmp_path):
    out = tmp_path / "corr.csv"
    rc = main(["correlation", "--method", "asymptotic", "--xt1", "1",
               "--xt2", "1", "--m", "1", "--omega0", "1", "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    val = col(header, rows, "value")[0]
    assert abs(val - (-1.0 / (2**9 * math.pi**4))) < 1e-14


def test_asymptotic_with_sharp_cutoff_rejected(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["correlation", "--method", "asymptotic", "--xt1", "1",
               "--xt2", "1", "--cutoff", "sharp:50", "-o", str(out)])
    assert rc == 2


def test_parameter_error_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["energy-shift", "--m", "-3", "-o", str(out)]) == 2
    assert main(["energy-shift", "--cutoff", "weird:5", "-o", str(out)]) == 2
    # --cutoff is checked where it enters, also for a method that reads
    # only its kind
    assert main(["correlation", "--method", "asymptotic", "--xt1", "6",
                 "--xt2", "7", "--cutoff", "exp:-5", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert "omega_m must be positive and finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_capacity_error_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["energy-shift", "--cutoff", "sharp:1e9", "-o", str(out)])
    assert rc == 4


def test_convergence_error_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["continuum", "--omega-m", "10", "--xt1", "0.1", "--xt2", "0.1",
               "--method", "full_quadrature", "--budget", "1e3",
               "-o", str(out)])
    assert rc == 3
    assert "(no estimate," in capsys.readouterr().err


def test_full_quadrature_budget_message_carries_estimate(tmp_path, capsys):
    # the first two levels at this point cost 1.9e7 and 5.0e7 summands: a
    # budget between them leaves the first level's value as best estimate
    p = PhysicalParams(mass=1.0, omega0=1.0, length=1.0)
    with pytest.raises(ConvergenceError) as exc:
        continuum_correlation(p, 10.0, 0.1, 0.1, rel_tol=1e-6,
                              method="full_quadrature", budget=3e7)
    estimate = exc.value.best_estimate
    assert estimate is not None
    rc = main(["continuum", "--omega-m", "10", "--xt1", "0.1", "--xt2", "0.1",
               "--method", "full_quadrature", "--rel-tol", "1e-6",
               "--budget", "3e7", "-o", str(tmp_path / "x.csv")])
    assert rc == 3
    assert f"best estimate {estimate:.17e}" in capsys.readouterr().err


@pytest.mark.parametrize("eigenvalues, text", [
    ([-0.25], "best estimate -2.50000000000000000e-01"), ([], "no estimate")])
def test_eigensolver_failure_message_carries_estimate(tmp_path, capsys,
                                                      monkeypatch, eigenvalues,
                                                      text):
    # every sector goes to Lanczos, which gives up with ARPACK's estimate
    # or without one
    import scipy.sparse.linalg as sla

    def eigsh(*args, **kwargs):
        raise sla.ArpackNoConvergence("No convergence", np.array(eigenvalues),
                                      np.zeros((0, len(eigenvalues))))

    monkeypatch.setattr(oracle, "DENSE_SOLVE_LIMIT", 0)
    monkeypatch.setattr(sla, "eigsh", eigsh)
    assert main(ORACLE + ["-o", str(tmp_path / "o.csv")]) == 3
    assert text in capsys.readouterr().err


def test_rerun_byte_identical(tmp_path):
    # every computing command, a sweep at --threads 3 and an --si sweep:
    # the sidecar translates back into the configuration the run used
    runs = [
        ["energy-density", "--m", "20", "--omega0", "3.14159",
         "--cutoff", "exp:40", "--grid", "0.1:0.9:7"],
        ["energy-shift", "--m", "10", "--cutoff", "exp:30"],
        ["spectrum", "--m", "2", "--cutoff", "sharp:40", "--sharp-rule", "total"],
        ["em-fluct", "--component", "B", "--cutoff", "exp:20",
         "--grid", "0.1:0.9:5", "--origin", "movable"],
        ["correlation", "--cutoff", "exp:20", "--x1-grid", "0.2:0.8:3",
         "--x2-grid", "1.2:1.8:2"],
        ["correlation", "--method", "asymptotic", "--xt1", "6", "--xt2", "7"],
        ["continuum", "--omega-m", "1", "--xt1", "0.5", "--xt2", "0.5"],
        ["scaling", "--quantity", "far_field", "--axis", "distance",
         "--points", "20:80:3:log"],
        ["oracle-validate", "--lambdas", "0.05,0.025", "--max-photons", "3",
         "--max-mirror", "3"],
        ["energy-density", "--m", "15", "--cutoff", "exp:30", "--grid",
         "0.2:0.8:5", "--sweep", "cutoff-omega-m=10,20,30", "--threads", "3"],
        ["energy-shift", "--si", "--m", "1e-20", "--omega0", "1e3",
         "--L", "1e-3", "--cutoff", "exp:1e14", "--sweep", "mass=1e-20,2e-20"],
    ]
    for i, argv in enumerate(runs):
        out1 = tmp_path / f"a{i}.csv"
        rc = main(argv + ["-o", str(out1)])
        assert rc == 0, argv
        out2 = tmp_path / f"b{i}.csv"
        rc = main(["rerun", "--sidecar", sidecar_path(str(out1)), "-o", str(out2)])
        assert rc == 0, argv
        assert out1.read_bytes() == out2.read_bytes(), argv


def test_determinism_and_thread_invariance(tmp_path):
    argv = ["energy-density", "--m", "15", "--cutoff", "exp:30",
            "--grid", "0.2:0.8:5", "--sweep", "cutoff-omega-m=10,20,30"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(argv + ["--threads", "1", "-o", str(out1)]) == 0
    assert main(argv + ["--threads", "3", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_ignore_environment(tmp_path, monkeypatch):
    # --threads is the only thread knob; its default is 1
    monkeypatch.setenv("VACMIRROR_THREADS", "abc")
    out = tmp_path / "de.csv"
    assert main(["energy-shift", "--m", "10", "-o", str(out)]) == 0
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert meta["threads"] == 1


@pytest.mark.parametrize("argv, message", [
    (["energy-shift", "--sweep", "volume=1,2"], "cannot sweep 'volume'"),
    (["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1",
      "--sweep", "cutoff-omega-m=10,20"], "not a parameter of"),
    (["energy-shift", "--sweep", "xt1=1,2"], "not a parameter of"),
    (["energy-shift", "--sweep", "mass=2"], "at least 2 points"),
    (["energy-shift", "--threads", "0"], "threads must be >= 1"),
    (["energy-shift", "--sweep", "mass"], "at least 2 points"),
    (["energy-shift", "--sweep", "=1,2"], "cannot sweep ''"),
    (["energy-shift", "--si", "--sweep", "mass=2"], "at least 2 points"),
    (["scaling", "--quantity", "far_field", "--axis", "distance",
      "--points", "20:80:3:log", "--sweep", "cutoff-omega-m=10,20"],
     "not a parameter of"),
    (["correlation", "--method", "asymptotic", "--xt1", "6", "--xt2", "7",
      "--sweep", "cutoff-omega-m=10,20"], "not a parameter of"),
    # each coupling sets its own mass, so a mass sweep would repeat its rows
    (["oracle-validate", "--sweep", "mass=1,2"], "scan the couplings with --lambdas"),
    # the continuum formulas read no cavity length
    (["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1",
      "--sweep", "length=1,2"], "not a parameter of"),
    # a scaling probe reads rel_tol only for the continuum quantity
    (["scaling", "--quantity", "far_field", "--axis", "distance",
      "--points", "20:80:3:log", "--sweep", "rel-tol=1e-6,1e-7"],
     "not a parameter of"),
    (["scaling", "--quantity", "asymptotic", "--axis", "mass",
      "--points", "1,2,4", "--sweep", "rel-tol=1e-6,1e-7"],
     "not a parameter of"),
])
def test_sweep_and_threads_validation(tmp_path, capsys, argv, message):
    assert main(argv + ["-o", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


def _exit_code(argv):
    # main's code, or argparse's for a command line it rejects itself
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


ES_SWEEP = ["energy-shift", "--cutoff", "exp:20", "--sweep", "mass=1,2"]
ASYMPTOTIC = ["correlation", "--method", "asymptotic", "--xt1", "6", "--xt2", "7"]
ORACLE = ["oracle-validate", "--lambdas", "0.05", "--max-photons", "2",
          "--max-mirror", "2"]


@pytest.mark.parametrize("argv, key, value, command_line, message", [
    (ES_SWEEP, "sweep_param", "volume",
     ["energy-shift", "--sweep", "volume=1,2"], "cannot sweep 'volume'"),
    (ES_SWEEP, "sweep_spec", "3",
     ["energy-shift", "--sweep", "mass=3"], "at least 2 points"),
    (ES_SWEEP, "threads", 0,
     ["energy-shift", "--threads", "0"], "threads must be >= 1"),
    (ASYMPTOTIC, "cutoff_kind", "sharp", ASYMPTOTIC + ["--cutoff", "sharp:50"],
     "incompatible with a sharp cutoff"),
    (ASYMPTOTIC, "xt1", None,
     ["correlation", "--method", "asymptotic", "--xt2", "7"],
     "needs --xt1 and --xt2"),
    (ASYMPTOTIC, "n_max", 5, ASYMPTOTIC + ["--n-max", "5"], "--n-max 5"),
    (ORACLE, "lambdas", "0", ORACLE + ["--lambdas", "0"],
     "couplings must be positive and finite"),
    (ES_SWEEP, "command", "bogus", ["bogus"], "invalid choice: 'bogus'"),
], ids=["sweep-param", "sweep-spec", "threads", "cutoff-kind", "xt1",
        "n-max", "lambdas", "command"])
def test_rerun_meets_command_line_checks(tmp_path, capsys, argv, key, value,
                                         command_line, message):
    # a sidecar edited in one key is rejected as its command line is:
    # exit 2, the same message, no CSV
    first = tmp_path / "a.csv"
    assert main(argv + ["-o", str(first)]) == 0
    meta = json.loads(open(sidecar_path(str(first))).read())
    meta[key] = value
    edited = tmp_path / "edited.meta.json"
    edited.write_text(json.dumps(meta))
    capsys.readouterr()
    assert _exit_code(command_line + ["-o", str(tmp_path / "c.csv")]) == 2
    assert message in capsys.readouterr().err
    rerun = ["rerun", "--sidecar", str(edited), "-o", str(tmp_path / "b.csv")]
    if key == "command":
        # one case through the module entry point in a fresh interpreter
        proc = subprocess.run([sys.executable, "-m", "vacmirror.cli", *rerun],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=300)
        rc, err = proc.returncode, proc.stderr
        assert "Traceback" not in err
        lines = err.splitlines()
        assert [ln for ln in lines if ln.startswith("vacmirror:")] == lines[-1:]
    else:
        rc, err = main(rerun), capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert not (tmp_path / "b.csv").exists()
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv, key, value, message", [
    (ORACLE, "lambdas", 0.05, "value list must be a string"),
    (ES_SWEEP, "sweep_spec", None, "value list must be a string"),
    (ES_SWEEP, "threads", "2", "threads must be an integer"),
    (["energy-shift", "--cutoff", "exp:20", "--n-max", "5"], "n_max", "5",
     "n_max must be an integer"),
    (ES_SWEEP, "threads", True, "threads must be an integer"),
    (["energy-shift", "--cutoff", "exp:20", "--n-max", "5"], "n_max", True,
     "n_max must be an integer"),
], ids=["lambdas-number", "sweep-spec-null", "threads-string", "n-max-string",
        "threads-bool", "n-max-bool"])
def test_rerun_rejects_wrong_json_types(tmp_path, argv, key, value, message):
    # a sidecar value of the wrong JSON type is a parameter error (exit 2,
    # one message line, no CSV) through the module entry point, not a
    # traceback
    first = tmp_path / "a.csv"
    assert main(argv + ["-o", str(first)]) == 0
    meta = json.loads(open(sidecar_path(str(first))).read())
    meta[key] = value
    edited = tmp_path / "edited.meta.json"
    edited.write_text(json.dumps(meta))
    proc = subprocess.run([sys.executable, "-m", "vacmirror.cli", "rerun",
                           "--sidecar", str(edited), "-o", "b.csv"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert [ln for ln in lines if ln.startswith("vacmirror:")] == lines[-1:]
    assert lines[-1].startswith("vacmirror: parameter error:")
    assert message in lines[-1]
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not JSON"),
    ("[1, 2]", "must hold a JSON object, not a list"),
], ids=["not-json", "json-list"])
def test_rerun_rejects_malformed_sidecar(tmp_path, capsys, text, message):
    # a sidecar that is not a JSON object is a parameter error, not a
    # traceback
    sidecar = tmp_path / "bad.meta.json"
    sidecar.write_text(text)
    out = tmp_path / "b.csv"
    assert main(["rerun", "--sidecar", str(sidecar), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vacmirror: parameter error:")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["energy-shift"], "threads"),
    (ES_SWEEP, "cutoff_kind"),
    (["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1"], "xt1"),
    (ORACLE, "length"),
    (["energy-shift"], "length"),
], ids=["threads", "cutoff-kind", "continuum-xt1", "oracle-length",
        "energy-shift-length"])
def test_rerun_rejects_sidecar_without_key(tmp_path, capsys, argv, key):
    # a key the sidecar lacks is a parameter error that names it, not a
    # KeyError, also where a sweep point reads it
    first = tmp_path / "a.csv"
    assert main(argv + ["-o", str(first)]) == 0
    meta = json.loads(open(sidecar_path(str(first))).read())
    del meta[key]
    edited = tmp_path / "edited.meta.json"
    edited.write_text(json.dumps(meta))
    capsys.readouterr()
    out = tmp_path / "b.csv"
    assert main(["rerun", "--sidecar", str(edited), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vacmirror: parameter error:")
    assert repr(key) in err
    assert not out.exists()


# keys read by the writer (output), by build_config (si) or only in a
# sweep (sweep_spec)
READ_ELSEWHERE = {"output", "si", "sweep_spec"}


@pytest.mark.parametrize("argv", [
    ["energy-shift"],
    ["spectrum"],
    ["energy-density"],
    ["em-fluct", "--component", "E"],
    ["correlation"],
    ASYMPTOTIC,
    ["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1"],
    ["scaling", "--quantity", "continuum", "--axis", "mass",
     "--points", "1,2,4"],
    ["scaling", "--quantity", "far_field", "--axis", "distance",
     "--points", "20:80:3:log"],
    ["scaling", "--quantity", "continuum", "--axis", "distance",
     "--points", "1,2,4"],
    ["scaling", "--quantity", "asymptotic", "--axis", "omega0",
     "--points", "1,2,4", "--xt", "20", "--omega-m", "50",
     "--rel-tol", "1e-8"],
    ORACLE,
    ORACLE + ["--cavities", "2"],
], ids=["energy-shift", "spectrum", "energy-density", "em-fluct",
        "correlation", "asymptotic", "continuum", "scaling-continuum-mass",
        "scaling-far-field-distance", "scaling-continuum-distance",
        "scaling-asymptotic-omega0", "oracle-one", "oracle-two"])
def test_every_recorded_key_is_read(argv):
    # the configuration records only what the run reads, so its provenance
    # holds no option that could not have changed the numbers
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    cfg = build_config(build_parser().parse_args(argv + ["-o", "x.csv"]))
    compute_rows(Recording(cfg))
    assert set(cfg) - read <= READ_ELSEWHERE


@pytest.mark.parametrize("option", [["--cutoff", "exp:50"],
                                    ["--sharp-rule", "total"],
                                    ["--n-max", "3"]],
                         ids=["cutoff", "sharp-rule", "n-max"])
@pytest.mark.parametrize("argv", [
    ["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1"],
    ["scaling", "--quantity", "far_field", "--axis", "distance",
     "--points", "20:80:3:log"],
    ORACLE,
], ids=["continuum", "scaling", "oracle"])
def test_mode_sum_options_only_on_mode_sum_commands(tmp_path, capsys, argv,
                                                    option):
    out = tmp_path / "x.csv"
    assert _exit_code(argv + option + ["-o", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    (["--L", "2.5"], "--L 2.5"),
    (["--n-max", "5"], "--n-max 5"),
    (["--sharp-rule", "total"], "--sharp-rule 'total'"),
    (["--cutoff", "exp:7"], "--cutoff's omega_m 7.0"),
    (["--n-max", "5", "--sharp-rule", "total", "--cutoff", "exp:7"],
     "--n-max 5, --cutoff's omega_m 7.0, --sharp-rule 'total'"),
    # a sharp cutoff keeps its own message
    (["--cutoff", "sharp:7", "--n-max", "5"], "incompatible with a sharp cutoff"),
], ids=["length", "n-max", "sharp-rule", "cutoff", "all", "sharp"])
def test_asymptotic_rejects_mode_sum_options(tmp_path, capsys, option, message):
    # the closed form reads no cavity length and no mode sum, so an option
    # of either that differs from its default is an error that names it;
    # at their defaults they are dropped and the row is unchanged
    out = tmp_path / "x.csv"
    assert main(ASYMPTOTIC + option + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vacmirror: parameter error:")
    assert message in err
    assert not out.exists()
    plain, defaults = tmp_path / "plain.csv", tmp_path / "defaults.csv"
    assert main(ASYMPTOTIC + ["-o", str(plain)]) == 0
    assert main(ASYMPTOTIC + ["--L", "1", "--cutoff", "exp:50", "--sharp-rule",
                              "per_mode", "-o", str(defaults)]) == 0
    assert defaults.read_text() == plain.read_text()


# the keys these commands recorded, and never read, before they dropped them
OLD_KEYS = {"cutoff_kind": None, "cutoff_omega_m": None, "n_max": None,
            "sharp_rule": "per_mode"}


@pytest.mark.parametrize("argv, old_keys", [
    (["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1"],
     {**OLD_KEYS, "length": 1.0}),
    (ORACLE, {**OLD_KEYS, "x1": None, "x2": None, "mass": 1.0}),
    (["scaling", "--quantity", "far_field", "--axis", "distance",
      "--points", "20:80:3:log"],
     {"xt": None, "omega_m": None, "rel_tol": 1e-6}),
    (ASYMPTOTIC, {"cutoff_omega_m": 50.0, "n_max": None,
                  "sharp_rule": "per_mode", "length": 1.0}),
], ids=["continuum", "oracle-one", "scaling-far-field-distance",
        "asymptotic"])
def test_rerun_of_sidecar_with_dropped_keys(tmp_path, argv, old_keys):
    # an older sidecar that still holds them reruns to the CSV it was
    # written with: the same rows, the keys in the provenance block
    first = tmp_path / "a.csv"
    assert main(argv + ["-o", str(first)]) == 0
    meta = json.loads(open(sidecar_path(str(first))).read())
    assert not set(old_keys) & set(meta)
    meta.update(old_keys)
    old = tmp_path / "old.meta.json"
    old.write_text(json.dumps(meta))
    lines = first.read_text().splitlines(keepends=True)
    n = sum(ln.startswith("#") for ln in lines)
    block = lines[:n] + [f"# {k} = {v}\n" for k, v in old_keys.items()]
    block.sort(key=lambda ln: ln.split(" = ")[0])
    out = tmp_path / "b.csv"
    assert main(["rerun", "--sidecar", str(old), "-o", str(out)]) == 0
    assert out.read_text() == "".join(block + lines[n:])


def test_sweeps_start_no_thread(tmp_path, monkeypatch):
    # sweeps run serially: --threads is validated and recorded, and
    # selects nothing
    def start(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    out = tmp_path / "es.csv"
    assert main(["energy-shift", "--cutoff", "exp:20", "--sweep", "mass=1,2,4",
                 "--threads", "4", "-o", str(out)]) == 0
    assert json.loads(open(sidecar_path(str(out))).read())["threads"] == 4


def test_si_units(tmp_path, capsys):
    out = tmp_path / "si.csv"
    argv = ["energy-shift", "--si", "--m", "1e-20", "--omega0", "1e3",
            "--L", "1e-3", "--cutoff", "exp:1e14"]
    assert main(argv + ["-o", str(out)]) == 0
    lam = PhysicalParams(1e-20, 1e3, 1e-3, 1.054571817e-34, 299792458.0).coupling_lambda
    assert capsys.readouterr().out == f"# lambda = {lam:.6e}\n"
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert (meta["si"], meta["hbar"], meta["c"]) == (True, 1.054571817e-34, 299792458.0)
    again = tmp_path / "si-rerun.csv"
    assert main(["rerun", "--sidecar", sidecar_path(str(out)), "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_si_oracle_validate_prints_no_lambda(tmp_path, capsys):
    # each row's coupling sets its own mass, so the run prints no coupling
    out = tmp_path / "orc.csv"
    assert main(["oracle-validate", "--si", "--omega0", "1e9", "--L", "1e-3",
                 "--lambdas", "0.05", "--max-photons", "2",
                 "--max-mirror", "2", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    _, header, rows = read_csv(out)
    assert col(header, rows, "lam") == [0.05]


def test_sweep_near_wall_monotone_in_cutoff(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["energy-density", "--m", "15.9154943091895349", "--omega0",
               "3.14159265358979312", "--grid", "0.99:0.99:1",
               "--cutoff", "exp:31.4159265358979312",
               "--sweep", "cutoff-omega-m=31.4159265,78.5398163,157.0796327",
               "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header[0] == "cutoff_omega_m"
    vals = col(header, rows, "value")
    assert vals[0] < vals[1] < vals[2]


def test_sweep_diagnostics_per_point(tmp_path):
    # each point of a sweep keeps its own diagnostics, in sweep order;
    # the warnings stay one list for the whole run
    out = tmp_path / "sweep.csv"
    assert main(["energy-density", "--m", "15", "--grid", "0.5:0.5:1",
                 "--sweep", "cutoff-omega-m=10,100,1000", "-o", str(out)]) == 0
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert meta["diag_n_modes"] == [118, 1174, 11728]
    assert len(meta["diag_kernel_nodes"]) == 3
    assert meta["diag_warnings"] == []


def test_scaling_cli_mass_slope(tmp_path):
    out = tmp_path / "scal.csv"
    rc = main(["scaling", "--quantity", "asymptotic", "--axis", "mass",
               "--points", "1:8:4:log", "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    for s in col(header, rows, "log_slope"):
        assert abs(s - (-1.0)) < 1e-9


def test_scaling_cli_far_field_distance_slope(tmp_path):
    out = tmp_path / "far.csv"
    rc = main(["scaling", "--quantity", "far_field", "--axis", "distance",
               "--points", "10:40:3:log", "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert col(header, rows, "method", str) == ["far_field"] * 3
    for s in col(header, rows, "log_slope"):
        assert abs(s - (-3.0)) < 1e-6


def test_spectrum_cli(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--m", "50", "--cutoff", "exp:30", "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    weights = col(header, rows, "weight")
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert abs(sum(weights) - meta["diag_total_weight"]) < 1e-12
    assert meta["diag_peak_frequency"] > 0


def test_kernel_nodes_in_sidecar(tmp_path):
    # the node count of the exponential sum each engine contracted with
    # goes to the sidecar only: a rerun still rebuilds the CSV byte for byte.
    # Here the rule gives 44 nodes (profiles) and 45 (correlation); the
    # range allows 6 either way
    for argv in (["energy-density"], ["em-fluct", "--component", "B"],
                 ["correlation"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--m", "20", "--cutoff", "exp:30", "-o", str(out)]) == 0
        meta = json.loads(open(sidecar_path(str(out))).read())
        assert 38 <= meta["diag_kernel_nodes"] <= 51
        again = tmp_path / f"{argv[0]}-rerun.csv"
        assert main(["rerun", "--sidecar", sidecar_path(str(out)),
                     "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()


def test_condition_estimate_in_sidecar(tmp_path):
    # sum |terms| / max |value| of the node contraction, as an accuracy
    # estimate: near 1 for these sums, exactly 1 for the correlation, whose
    # terms are all non-negative; the CSV does not carry it
    for argv in (["energy-density"], ["em-fluct", "--component", "E"],
                 ["correlation"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--m", "20", "--cutoff", "exp:30", "-o", str(out)]) == 0
        cond = json.loads(open(sidecar_path(str(out))).read())["diag_cond"]
        assert 0.99 < cond < 10.0
        assert "cond" not in out.read_text()


def test_large_mode_count_runs(tmp_path):
    # exp:1000 omega0 is N = 36842 modes, where N x N tables or the
    # N (N + 1) / 2 pair arrays of the spectrum would take gigabytes
    base = ["--m", "15.9154943091895349", "--omega0", "3.14159265358979312",
            "--cutoff", "exp:3141.59265358979312"]
    for argv in (["energy-density"], ["correlation"],
                 ["spectrum", "--bin-width", "31.4159265358979312"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + base + ["-o", str(out)]) == 0
        meta = json.loads(open(sidecar_path(str(out))).read())
        if argv[0] != "spectrum":
            assert meta["diag_n_modes"] == 36842

def test_oracle_validate_cli(tmp_path):
    out = tmp_path / "orc.csv"
    rc = main(["oracle-validate", "--cavities", "2", "--lambdas",
               "0.05,0.025", "--max-photons", "5", "--max-mirror", "5",
               "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    quantities = col(header, rows, "quantity", str)
    rels = col(header, rows, "rel_err")
    assert "phi2phi2" in quantities and "phi1phi2" in quantities
    pair = [r for q, r in zip(quantities, rels) if q == "phi2phi2"]
    assert pair[0] / pair[1] > 3.0
    cross = [r for q, r in zip(quantities, rels) if q == "phi1phi2"]
    assert all(c < 1e-10 for c in cross)


def test_continuum_cli_roundtrip(tmp_path):
    out = tmp_path / "cont.csv"
    rc = main(["continuum", "--omega-m", "12", "--xt1", "0.1", "--xt2",
               "0.08", "--rel-tol", "1e-7", "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert col(header, rows, "value")[0] < 0
    assert col(header, rows, "achieved_rel_tol")[0] <= 1e-7

    out2 = tmp_path / "cont2.csv"
    rc = main(["rerun", "--sidecar", sidecar_path(str(out)), "-o", str(out2)])
    assert rc == 0
    assert out.read_bytes() == out2.read_bytes()


def test_unwritable_output(tmp_path):
    rc = main(["energy-shift", "-o", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 2


def test_oracle_validate_explicit_zero_position_rejected(tmp_path):
    # an explicit 0 is a position on the fixed wall, not "use the default"
    rc = main(["oracle-validate", "--cavities", "2", "--lambdas", "0.025",
               "--max-photons", "2", "--max-mirror", "2", "--x1", "0",
               "-o", str(tmp_path / "orc.csv")])
    assert rc == 2


def _cold_python(code, cwd, packages=("scipy",)):
    """Run code in a fresh interpreter that imports vacmirror from src/;
    it prints the sorted modules of the given packages it ended with."""
    tail = ("\nimport json, sys\n"
            f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))")
    proc = subprocess.run([sys.executable, "-c", code + tail], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cold_start_loads_no_scipy(tmp_path):
    # the discrete commands, both continuum paths and every scaling law
    # need numpy only
    runs = ["['energy-shift', '-o', 'de.csv']",
            "['spectrum', '-o', 'sp.csv']",
            "['energy-density', '--grid', '0.1:0.9:5', '-o', 'ed.csv']",
            "['em-fluct', '--component', 'E', '--grid', '0.1:0.9:5', '-o', 'em.csv']",
            "['correlation', '--x1-grid', '0.2:0.8:3', '--x2-grid', '1.2:1.8:3', '-o', 'co.csv']",
            "['scaling', '--quantity', 'asymptotic', '--axis', 'mass', '--points', '1,2,4', '-o', 'sa.csv']",
            "['scaling', '--quantity', 'far_field', '--axis', 'distance', '--points', '20,40,80', '-o', 'sf.csv']",
            "['continuum', '--omega-m', '12', '--xt1', '0.1', '--xt2', '0.08', '--method', 'partial_analytic', '-o', 'c.csv']",
            "['continuum', '--omega-m', '12', '--xt1', '0.1', '--xt2', '0.08', '--method', 'full_quadrature', '-o', 'cf.csv']",
            "['scaling', '--quantity', 'continuum', '--axis', 'distance', '--points', '1,2,4', '-o', 'sc.csv']"]
    for code in ("import vacmirror",
                 "from vacmirror import cli; cli.build_parser()",
                 "from vacmirror import cli\n" + "".join(
                     f"assert cli.main({r}) == 0\n" for r in runs)):
        assert _cold_python(code, tmp_path) == [], code


def test_cold_start_loads_no_fractions_or_decimal(tmp_path):
    # the CSV formatter builds its powers of ten from Python integers, so
    # neither set-up nor the first CSV write imports fractions or decimal
    packages = ("fractions", "decimal", "_decimal", "_pydecimal")
    assert _cold_python("from vacmirror import cli; cli.build_parser()",
                        tmp_path, packages) == []
    assert _cold_python("from vacmirror import cli\n"
                        "assert cli.main(['spectrum', '-o', 'sp.csv']) == 0",
                        tmp_path, packages) == []
    assert (tmp_path / "sp.csv").read_bytes().count(b"\n") > 100


def test_cold_start_builds_no_formatter_table(tmp_path):
    # fmt17's powers of ten and digit tables are built by the first CSV
    # write, not by set-up
    code = ("from vacmirror import cli, fmt17\n"
            "cli.build_parser()\n"
            "assert fmt17._powers is None and fmt17._words is None\n"
            "assert cli.main(['spectrum', '-o', 'sp.csv']) == 0\n"
            "assert fmt17._powers is not None and fmt17._words is not None\n")
    assert _cold_python(code, tmp_path) == []


def test_cold_start_scipy_commands_run(tmp_path):
    # the oracle loads scipy on first use
    loaded = _cold_python(
        "from vacmirror import cli\n"
        "assert cli.main(['oracle-validate', '--cavities', '2', '-o', 'o.csv']) == 0",
        tmp_path)
    assert "scipy.sparse" in loaded


def test_warnings_in_sidecar(tmp_path):
    # the few-mode sharp reference of oracle-validate sits below 5 omega0;
    # its warning still reaches the caller and is listed once in the sidecar
    out = tmp_path / "orc.csv"
    with pytest.warns(UserWarning, match="cutoff omega_m = 4.71239 is below"):
        assert main(["oracle-validate", "--cavities", "2", "--lambdas",
                     "0.05,0.025", "--max-photons", "3", "--max-mirror", "3",
                     "-o", str(out)]) == 0
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert len(meta["diag_warnings"]) == 1
    assert meta["diag_warnings"][0].startswith(
        "cutoff omega_m = 4.71239 is below 5 * omega0 = 5;")
    again = tmp_path / "orc-rerun.csv"
    assert main(["rerun", "--sidecar", sidecar_path(str(out)),
                 "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()

    out = tmp_path / "de.csv"
    assert main(["energy-shift", "--cutoff", "exp:50", "-o", str(out)]) == 0
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert meta["diag_warnings"] == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "--m", "2", "--cutoff", "exp:40"],
    ["continuum", "--omega-m", "1", "--xt1", "0.5", "--xt2", "0.5"],
    ["oracle-validate", "--lambdas", "0.05,0.025"],
])
def test_csv_lines_match_reference_formatter(tmp_path, argv):
    out = tmp_path / "x.csv"
    cfg = build_config(build_parser().parse_args(argv + ["-o", str(out)]))
    header, rows, diag = compute_rows(cfg)
    write_outputs(cfg, header, rows, diag, 0.0)
    data = out.read_bytes().split(b"\n")[-len(rows) - 1:]
    assert data == [reference_csv_line(r).encode() for r in rows] + [b""]


def test_csv_lines_match_reference_formatter_on_mixed_types(tmp_path):
    out = tmp_path / "x.csv"
    rows = [[0.1, -0.0, np.float64(1 / 3), math.inf, math.nan, 7, "s", ""],
            [np.float32(0.25), np.int64(3), True, None, 1e-300, "a,b", "%s", 2.0],
            [0.1, -0.0, np.float64(2.5), -math.inf, 0.0, 8, "t", "u"]]
    write_outputs({"command": "test", "output": str(out)}, ["c"] * 8, rows, {}, 0.0)
    data = out.read_bytes().split(b"\n")[-len(rows) - 1:]
    assert data == [reference_csv_line(r).encode() for r in rows] + [b""]


def test_csv_columns_format_signed_zeros_and_specials(tmp_path):
    # each float64 column is formatted value by value in numpy: -0.0 must
    # keep its sign apart from 0.0, nan, infinities, subnormals and values
    # out of the vectorized range take the fallback, and the table spans
    # more than one block
    traps = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 0.0,
             -0.0, 1e-300, math.nan]
    n = 2 * BLOCK_ROWS + 5
    a = np.resize(np.array(traps), n)
    b = -a[::-1]
    table = Table([a, b, a.astype(np.float32), np.arange(n, dtype=np.int64) - 3,
                   ["s"] * n])
    out = tmp_path / "x.csv"
    write_outputs({"command": "test", "output": str(out)}, ["c"] * 5, table, {}, 0.0)
    data = out.read_bytes().split(b"\n")[-n - 1:]
    assert data == [reference_csv_line(r).encode() for r in table] + [b""]


@pytest.mark.parametrize("argv", [
    ["correlation", "--sweep", "mass=1:4:3:log"],
    ["energy-density", "--sweep", "cutoff_omega_m=20,30"],
    ["spectrum", "--cutoff", "exp:40"],
])
def test_csv_columns_match_reference_formatter(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["-o", str(out)]) == 0
    cfg = build_config(build_parser().parse_args(argv + ["-o", str(out)]))
    header, table, diag = compute_rows(cfg)
    if argv[0] == "spectrum":
        assert 0.0 in table.columns[header.index("weight")]  # empty bins
    data = out.read_bytes().split(b"\n")[-len(table) - 1:]
    assert data == [reference_csv_line(r).encode() for r in table] + [b""]


def test_csv_blocks_switch_between_fixed_width_and_masked(tmp_path):
    # block 0 keeps the same bytes on every row of every column; blocks 1-4
    # each break that in one column only (a negative value, a 3-digit
    # exponent, a nan, a longer string), which alone is taken by mask;
    # block 5 is uniform again, at other widths.  The one-value columns'
    # bytes merge with the separators, also ahead of a masked column
    b = BLOCK_ROWS
    n = 6 * b - 11
    rng = np.random.default_rng(11)
    near_one = rng.uniform(1.0, 2.0, n)
    small = rng.uniform(1.0, 2.0, n) * 1e-5
    label = np.array(["abc"] * n, dtype=object)
    near_one[b + 17] *= -1.0
    small[2 * b + 5] = 3e150
    near_one[3 * b + 9] = math.nan
    label[4 * b + 100] = "abcd"
    last = slice(5 * b, n)
    near_one[last] *= -1.0
    small[last] *= 1e-200
    label[last] = "xyzzy-7"
    table = Table([*cli._const(n, -2.5e-7), near_one,
                   cli.Cycle(np.linspace(0.1, 0.9, 7), 3, n), small,
                   *cli._const(n, "pre"), label.tolist(),
                   *cli._const(n, "discrete-sum")])
    out = tmp_path / "x.csv"
    write_outputs({"command": "test", "output": str(out)}, ["c"] * 7, table, {}, 0.0)
    data = out.read_bytes().split(b"\n")[-n - 1:]
    assert data == [reference_csv_line(r).encode() for r in table] + [b""]


def test_csv_streaming_memory_bound(tmp_path):
    # 200 000 rows are written in blocks, so the writer's memory stays
    # that of one block, not of the whole table
    n = 200_000
    grid = np.linspace(0.0, 1.0, 97)
    table = Table([np.resize(grid, n), np.resize(-grid, n), np.resize(grid ** 3, n),
                   ["discrete-sum"] * n, [""] * n])
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_outputs({"command": "test", "output": str(out)},
                      ["a", "b", "c", "method", "achieved_rel_tol"], table, {}, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with open(out, "rb") as fh:
        assert sum(1 for _ in fh) == 2 + n  # provenance, header, rows


def test_sidecar_records_write_stage(tmp_path):
    out = tmp_path / "ed.csv"
    assert main(["energy-density", "--cutoff", "exp:20", "--grid", "0.1:0.9:7",
                 "--sweep", "mass=1,2,4", "-o", str(out)]) == 0
    meta = json.loads(open(sidecar_path(str(out))).read())
    _, _, rows = read_csv(out)
    assert meta["diag_rows"] == len(rows) == 21
    assert isinstance(meta["diag_stage_write_s"], float)
    assert meta["diag_stage_write_s"] >= 0.0
    again = tmp_path / "ed-rerun.csv"
    assert main(["rerun", "--sidecar", sidecar_path(str(out)),
                 "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_sidecar_records_compute_stage(tmp_path):
    # seconds spent in compute_rows, a scalar also in a sweep; rerun drops
    # it with every diag_* key, so the CSV is rebuilt byte for byte
    out = tmp_path / "ed.csv"
    assert main(["energy-density", "--cutoff", "exp:20", "--grid", "0.1:0.9:7",
                 "--sweep", "mass=1,2,4", "-o", str(out)]) == 0
    meta = json.loads(open(sidecar_path(str(out))).read())
    assert isinstance(meta["diag_stage_compute_s"], float)
    assert 0.0 <= meta["diag_stage_compute_s"] <= meta["wall_time_s"]
    assert isinstance(meta["diag_n_modes"], list)
    again = tmp_path / "ed-rerun.csv"
    assert main(["rerun", "--sidecar", sidecar_path(str(out)),
                 "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_sidecar_records_peak_rss(tmp_path):
    # the process's peak resident memory, a scalar also in a sweep; rerun
    # drops it with every diag_* key, so the CSV is rebuilt byte for byte
    import resource
    out = tmp_path / "ed.csv"
    assert main(["energy-density", "--cutoff", "exp:20", "--grid", "0.1:0.9:7",
                 "--sweep", "mass=1,2,4", "-o", str(out)]) == 0
    meta = json.loads(open(sidecar_path(str(out))).read())
    peak = meta["diag_peak_rss_kib"]
    assert isinstance(peak, int)
    assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    again = tmp_path / "ed-rerun.csv"
    assert main(["rerun", "--sidecar", sidecar_path(str(out)),
                 "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # back-to-back commands in one process share one parser, and write the
    # same CSVs as runs that each build a fresh one
    built = []

    def counted():
        built.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counted)
    runs = [["energy-shift", "--m", "20"],
            ["energy-density", "--m", "20", "--cutoff", "exp:10"],
            ["em-fluct", "--component", "B", "--cutoff", "exp:10"],
            ["correlation", "--cutoff", "exp:10", "--x1-grid", "0.2:0.8:3"],
            ["energy-shift", "--m", "5", "--sweep", "omega0=1,2"]]
    for fresh in (True, False):
        monkeypatch.setattr(cli, "_parser", None)
        built.clear()
        for i, argv in enumerate(runs):
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            assert main(argv + ["-o", str(tmp_path / f"{fresh}-{i}.csv")]) == 0
        assert len(built) == (len(runs) if fresh else 1)
    for i in range(len(runs)):
        assert ((tmp_path / f"False-{i}.csv").read_bytes()
                == (tmp_path / f"True-{i}.csv").read_bytes())


def test_correlation_table_holds_grids_not_rows():
    # the x1, x2, xt1 and xt2 columns expand from their grids one block at
    # a time, and the constant columns hold one value: beyond the engine,
    # the 10^6-row table costs little (25.9 MiB measured; whole columns
    # took 61.2 MiB)
    argv = ["correlation", "--cutoff", "exp:5", "--x1-grid", "0.05:0.95:1000",
            "--x2-grid", "1.05:1.95:1000", "-o", "unused.csv"]
    cfg = build_config(build_parser().parse_args(argv))
    tracemalloc.start()
    try:
        header, table, _ = compute_rows(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert len(table) == 10**6
    x1 = np.linspace(0.05, 0.95, 1000)
    x2 = np.linspace(1.05, 1.95, 1000)
    rows = slice(BLOCK_ROWS - 7, 3 * BLOCK_ROWS + 11)
    columns = dict(zip(header, table.columns))
    assert np.array_equal(columns["x1"][rows], np.repeat(x1, 1000)[rows])
    assert np.array_equal(columns["x2"][rows], np.tile(x2, 1000)[rows])
    assert set(columns["method"]) == {"discrete-sum"}


@pytest.mark.parametrize("argv", [
    ["energy-density", "--cutoff", "exp:20", "--grid", "0.1:0.9:7"],
    ["correlation", "--cutoff", "exp:20", "--x1-grid", "0.1:0.9:3",
     "--x2-grid", "1.1:1.9:4"],
], ids=["energy-density", "correlation"])
def test_sweep_constant_columns_stay_one_cycle(argv):
    # a sweep merges its points' constant columns into one lazy column
    # spanning every row, so the writer formats each value once
    argv = argv + ["--sweep", "mass=1,2,4", "-o", "unused.csv"]
    header, table, _ = compute_rows(build_config(build_parser().parse_args(argv)))
    columns = dict(zip(header, table.columns))
    for name, value in [("method", "discrete-sum"), ("achieved_rel_tol", "")]:
        column = columns[name]
        assert isinstance(column, cli.Cycle)
        assert column.values.tolist() == [value]
        assert len(column) == len(table)
    rows = 7 if argv[0] == "energy-density" else 12
    assert len(table) == 3 * rows
    # the swept parameter is a grid column too: each point's value once
    mass = columns["mass"]
    assert isinstance(mass, cli.Cycle)
    assert (mass.values.tolist(), mass.every, len(mass)) == ([1, 2, 4], rows, 3 * rows)
    # so are the positions, the same at every point: one period per point
    if argv[0] == "energy-density":
        x = np.linspace(0.1, 0.9, 7)
        grids = {"x": (x, 1), "x_from_movable_wall": (1.0 - x, 1)}
    else:
        x1, x2 = np.linspace(0.1, 0.9, 3), np.linspace(1.1, 1.9, 4)
        grids = {"x1": (x1, 4), "x2": (x2, 1), "xt1": (1.0 - x1, 4),
                 "xt2": (x2 - 1.0, 1)}
    for name, (values, every) in grids.items():
        column = columns[name]
        assert isinstance(column, cli.Cycle), name
        assert (column.every, len(column)) == (every, len(table)), name
        assert np.allclose(column.values, values, rtol=0, atol=1e-15), name


@pytest.mark.parametrize("spec", ["0:1:2000000", "1:2:2000000:log"])
def test_range_parsing_memory_bound(spec):
    # a range is parsed into one float64 array (16 MB here), never into
    # one Python float per point (77 MiB peak for the linear range)
    tracemalloc.start()
    try:
        values = cli._parse_values(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert values.dtype == np.float64 and values.shape == (2_000_000,)


@pytest.mark.parametrize("command", ["energy-shift", "spectrum",
                                     "energy-density", "correlation"])
def test_negative_n_max_is_a_parameter_error(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert main([command, "--n-max", "-5", "-o", str(out)]) == 2
    assert "n_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("width", ["1e-300", "1e-9"])
def test_spectrum_bin_count_checked_before_allocating(tmp_path, width):
    tracemalloc.start()
    try:
        code = main(["spectrum", "--cutoff", "exp:20", "--bin-width", width,
                     "-o", str(tmp_path / "sp.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 4 * 2**20
    assert not (tmp_path / "sp.csv").exists()


def test_default_spectrum_at_n_36842_runs(tmp_path):
    # N = 36842 modes at the default width: 1 473 641 bins, far inside
    # MAX_BINS, which admits the default width at MAX_MODES
    out = tmp_path / "sp.csv"
    try:
        assert main(["spectrum", "--m", "15.915", "--omega0", repr(math.pi),
                     "--cutoff", f"exp:{1000 * math.pi!r}", "-o", str(out)]) == 0
        meta = json.loads(open(sidecar_path(str(out))).read())
        assert meta["diag_rows"] == 1_473_641
    finally:
        out.unlink(missing_ok=True)


@pytest.mark.parametrize("argv, code", [
    (["energy-density", "--cutoff", "exp:20", "--grid", "0.1:0.9:x"], 2),
    (["energy-shift", "--sweep", "mass=1:2:2.5"], 2),
    (["oracle-validate", "--lambdas", "0"], 2),
    (["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1",
      "--rel-tol", "1e-16"], 3),
    (["continuum", "--omega-m", "10", "--xt1", "nan", "--xt2", "1"], 2),
    (["correlation", "--method", "asymptotic", "--xt1", "nan", "--xt2", "1"], 2),
    (["scaling", "--quantity", "far_field", "--axis", "mass",
      "--points", "1,2,4", "--xt", "nan"], 2),
    (["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1",
      "--rel-tol", "nan"], 2),
    (["continuum", "--omega-m", "10", "--xt1", "1", "--xt2", "1",
      "--budget", "nan"], 2),
    (["spectrum", "--cutoff", "exp:20", "--bin-width", "nan"], 2),
], ids=["range-count", "sweep-count", "zero-coupling", "unreachable-rel-tol",
        "continuum-nan-xt", "asymptotic-nan-xt", "scaling-nan-xt",
        "nan-rel-tol", "nan-budget", "nan-bin-width"])
def test_malformed_request_exit_codes(tmp_path, argv, code):
    # a fresh interpreter through the module entry point: the error ends
    # the run with its exit code and one message line, never a traceback
    proc = subprocess.run([sys.executable, "-m", "vacmirror.cli", *argv,
                           "-o", "x.csv"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert [ln for ln in lines if ln.startswith("vacmirror:")] == lines[-1:]
    assert not (tmp_path / "x.csv").exists()
