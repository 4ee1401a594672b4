import json
import math

import numpy as np
import pytest

from vacmirror.cli import main, sidecar_path


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


def test_parameter_error_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["energy-shift", "--m", "-3", "-o", str(out)]) == 2
    assert main(["energy-shift", "--cutoff", "weird:5", "-o", str(out)]) == 2


def test_capacity_error_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["energy-shift", "--cutoff", "sharp:1e9", "-o", str(out)])
    assert rc == 4


def test_convergence_error_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["continuum", "--omega-m", "10", "--xt1", "0.1", "--xt2", "0.1",
               "--method", "full_quadrature", "--budget", "1e3",
               "-o", str(out)])
    assert rc == 3


def test_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    rc = main(["energy-density", "--m", "20", "--omega0", "3.14159",
               "--cutoff", "exp:40", "--grid", "0.1:0.9:7", "-o", str(out1)])
    assert rc == 0
    out2 = tmp_path / "b.csv"
    rc = main(["rerun", "--sidecar", sidecar_path(str(out1)), "-o", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_determinism_and_thread_invariance(tmp_path):
    argv = ["energy-density", "--m", "15", "--cutoff", "exp:30",
            "--grid", "0.2:0.8:5", "--sweep", "cutoff-omega-m=10,20,30"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(argv + ["--threads", "1", "-o", str(out1)]) == 0
    assert main(argv + ["--threads", "3", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
