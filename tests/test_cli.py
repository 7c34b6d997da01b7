import json
import subprocess
import sys

import numpy as np
import pytest

import facetail as ft
from facetail.cli import main


@pytest.fixture
def measure_file(tmp_path, m_blk):
    path = tmp_path / "blk.json"
    ft.save_measure(m_blk, path)
    return str(path)


@pytest.fixture
def dep_file(tmp_path, m_dep):
    path = tmp_path / "dep.json"
    ft.save_measure(m_dep, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- validate --------------------------------------------------------------


def test_validate_ok(capsys, measure_file):
    code, out, _ = run_cli(capsys, "validate", measure_file)
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_reports_violations(capsys, tmp_path):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"d": 2, "atoms": [{"omega": [1.0, 0.0], "mass": 1.0}]}))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"][0]["code"] == "dead_coordinate"
    # internal index 1, 1-based on the wire
    assert payload["violations"][0]["coordinate"] == 2


def test_validate_snaps_relative_to_the_direction(capsys, tmp_path):
    # [0, 1e-14] is the ray e_2 at a small scale, not the zero direction
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"d": 2, "atoms": [{"omega": [0, 1e-14], "mass": 1},
                                                  {"omega": [1, 1], "mass": 1}]}))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert '"valid": true' in out
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_coordinates_are_one_based(capsys, tmp_path):
    # both coordinates dead: the payload must say 1 and 2, not 0 and 1
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"d": 2, "atoms": []}))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    payload = json.loads(out)
    assert [w["coordinate"] for w in payload["violations"]] == [1, 2]


def test_validate_handles_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_validate_missing_file(capsys):
    code, out, _ = run_cli(capsys, "validate", "/nonexistent/m.json")
    assert code == 1
    assert json.loads(out)["valid"] is False


# ---- check -----------------------------------------------------------------


def test_check_independent_split(capsys, measure_file):
    code, out, _ = run_cli(capsys, "check", measure_file, "--A", "1,2", "--C", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert all(payload[k] is True for k in
               ("cond_i", "cond_ii", "cond_iii", "df", "new_notion"))
    assert payload["witnesses"] == {}


def test_check_dependent_split(capsys, measure_file):
    code, out, _ = run_cli(capsys, "check", measure_file, "--A", "1,3", "--C", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["cond_i"] is False and payload["agree"] is True
    assert payload["witnesses"]["cond_iii"]["subset"] == [1, 2]


def test_check_rejects_bad_partition(capsys, measure_file):
    code, _, err = run_cli(capsys, "check", measure_file, "--A", "1", "--C", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("a, c, problems", [
    ("1", "3", "missing [2]"),
    ("1,2", "4", "missing [3], out of range [4]"),
    ("1", "2", "missing [3]"),
])
def test_check_names_uncovered_coordinates_one_based(capsys, measure_file, a, c, problems):
    code, out, err = run_cli(capsys, "check", measure_file, "--A", a, "--C", c)
    assert code == 1 and out == ""
    assert err == f"error: --A/--C must cover 1..3 of the measure: {problems}\n"


def test_check_rejects_overlapping_blocks(capsys, measure_file):
    code, _, err = run_cli(capsys, "check", measure_file, "--A", "1,2", "--C", "2,3")
    assert code == 2
    # the shared coordinate in the numbering the user typed, not internal
    assert "[2]" in err


def test_check_rejects_malformed_coords(capsys, measure_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", measure_file, "--A", "0,1", "--C", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_overflow_prints_strict_json_and_no_warnings(tmp_path):
    # the exponent overflows to +inf, from a huge mass or from a huge omega
    # over a small grid coordinate: no numpy warning on stderr, and an
    # infinite residual is the string "inf", not the non-JSON Infinity
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    residuals = []
    for name, atom in (("huge_mass", {"omega": [1, 1], "mass": 1e308}),
                       ("huge_omega", {"omega": [1e308, 1e308], "mass": 1e-308})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"d": 2, "atoms": [atom]}))
        proc = subprocess.run(
            [sys.executable, "-m", "facetail", "check", str(path), "--A", "1", "--C", "2"],
            capture_output=True, text=True)
        payload = json.loads(proc.stdout, parse_constant=reject)
        assert proc.stderr == ""
        residuals.append(payload["witnesses"]["cond_ii"]["residual"])
    # the huge omega overflows only below the grid point (1, 1), which decides
    assert residuals[0] == "inf" and 0.49 < residuals[1] < 0.51


def test_check_output_is_byte_stable(capsys, measure_file):
    _, first, _ = run_cli(capsys, "check", measure_file, "--A", "1,2", "--C", "3")
    _, second, _ = run_cli(capsys, "check", measure_file, "--A", "1,2", "--C", "3")
    assert first == second


# ---- graph -----------------------------------------------------------------


def test_graph_with_dot_output(capsys, tmp_path, measure_file):
    dot_path = tmp_path / "g.dot"
    code, out, _ = run_cli(capsys, "graph", measure_file, "--dot", str(dot_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == [[1, 2], [3]]
    assert payload["edges"] == [[1, 2]]
    assert "x1 -- x2;" in dot_path.read_text()


# ---- simulate --------------------------------------------------------------


def test_simulate_max_stable(capsys, tmp_path, measure_file):
    out_csv = tmp_path / "ms.csv"
    code, out, _ = run_cli(capsys, "simulate", measure_file,
                           "--n", "50", "--seed", "3", "--out", str(out_csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "max_stable" and payload["n"] == 50
    batch = ft.load_batch(out_csv)
    assert np.array_equal(batch.data, ft.sample_max_stable(
        ft.load_measure(measure_file), 50, 3).data)


def test_simulate_conditional_k_is_one_based(capsys, tmp_path, measure_file):
    out_csv = tmp_path / "cond.csv"
    code, out, _ = run_cli(capsys, "simulate", measure_file, "--conditional", "3",
                           "--n", "20", "--seed", "4", "--out", str(out_csv))
    assert code == 0
    assert json.loads(out)["k"] == 3
    batch = ft.load_batch(out_csv)
    assert batch.k == 2
    assert np.all(batch.data[:, 2] > 1.0)


def test_simulate_conditional_out_of_range(capsys, measure_file, tmp_path):
    code, _, err = run_cli(capsys, "simulate", measure_file, "--conditional", "4",
                           "--n", "5", "--seed", "1",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "out of range" in err


def test_simulate_requires_seed(capsys, measure_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", measure_file, "--n", "5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    capsys.readouterr()


# ---- estimate --------------------------------------------------------------


def test_estimate_chi_and_graph(capsys, tmp_path, measure_file):
    out_csv = tmp_path / "batch.csv"
    run_cli(capsys, "simulate", measure_file, "--n", "20000", "--seed", "107",
            "--out", str(out_csv))
    chi_csv = tmp_path / "chi.csv"
    code, out, _ = run_cli(capsys, "estimate", "--in", str(out_csv),
                           "--graph", "--csv", str(chi_csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "chi_matrix"
    assert payload["graph"]["components"] == [[1, 2], [3]]
    assert payload["graph"]["threshold"] == 0.1
    assert payload["chi"][0][1] > 0.9
    assert chi_csv.read_text().splitlines()[0] == "x1,x2,x3"


def test_estimate_factorization_test(capsys, tmp_path, dep_file):
    out_csv = tmp_path / "cond.csv"
    run_cli(capsys, "simulate", dep_file, "--conditional", "1",
            "--n", "2000", "--seed", "11", "--out", str(out_csv))
    code, out, _ = run_cli(capsys, "estimate", "--in", str(out_csv),
                           "--A", "1", "--C", "2", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "factorization_test"
    assert payload["reject"] is True and payload["degenerate"] is False
    assert payload["p_value"] == 1.0 / 500.0


def test_estimate_conditional_needs_blocks_and_seed(capsys, tmp_path, dep_file):
    out_csv = tmp_path / "cond.csv"
    run_cli(capsys, "simulate", dep_file, "--conditional", "1",
            "--n", "2000", "--seed", "11", "--out", str(out_csv))
    code, _, err = run_cli(capsys, "estimate", "--in", str(out_csv))
    assert code == 2 and "--A" in err
    code, _, err = run_cli(capsys, "estimate", "--in", str(out_csv),
                           "--A", "1", "--C", "2")
    assert code == 2 and "--seed" in err


def test_estimate_names_uncovered_coordinates_one_based(capsys, tmp_path, dep_file):
    out_csv = tmp_path / "cond.csv"
    run_cli(capsys, "simulate", dep_file, "--conditional", "1",
            "--n", "2000", "--seed", "11", "--out", str(out_csv))
    code, out, err = run_cli(capsys, "estimate", "--in", str(out_csv),
                             "--A", "1", "--C", "3", "--seed", "5")
    assert code == 1 and out == ""
    assert err == "error: --A/--C must cover 1..2 of the batch: missing [2], out of range [3]\n"


def test_estimate_rejects_test_flags_on_max_stable_batch(capsys, tmp_path, measure_file):
    out_csv = tmp_path / "batch.csv"
    run_cli(capsys, "simulate", measure_file, "--n", "1000", "--seed", "107",
            "--out", str(out_csv))
    code, _, err = run_cli(capsys, "estimate", "--in", str(out_csv),
                           "--A", "1,2", "--C", "3", "--seed", "5")
    assert code == 2
    assert "max_stable" in err and "conditional" in err


def test_estimate_rejects_non_finite_samples(capsys, tmp_path, dep_file):
    out_csv = tmp_path / "cond.csv"
    run_cli(capsys, "simulate", dep_file, "--conditional", "1",
            "--n", "2000", "--seed", "11", "--out", str(out_csv))
    lines = out_csv.read_text().splitlines()
    lines[10] = lines[10].split(",")[0] + ",nan"
    out_csv.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "estimate", "--in", str(out_csv),
                             "--A", "1", "--C", "2", "--seed", "5")
    assert code == 1 and out == ""
    assert "non-finite" in err


def test_estimate_names_the_short_column_one_based(capsys, tmp_path, measure_file):
    out_csv = tmp_path / "batch.csv"
    run_cli(capsys, "simulate", measure_file, "--n", "1000", "--seed", "107",
            "--out", str(out_csv))
    code, out, err = run_cli(capsys, "estimate", "--in", str(out_csv), "--q", "0.999")
    assert code == 1 and out == ""
    assert err == ("error: column x1 has only 1 exceedances above q=0.999; "
                   "need at least 20 per coordinate\n")


def test_estimate_missing_input(capsys):
    code, _, err = run_cli(capsys, "estimate", "--in", "/nonexistent/b.csv")
    assert code == 1 and "error" in err


# ---- crosscheck ------------------------------------------------------------


def test_crosscheck_clean_battery(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--d", "3", "--atoms", "5",
                           "--trials", "5", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["trials"] == 5
    assert payload["disagreements"] == []


def test_crosscheck_names_the_dimension_limit(capsys):
    # a random bipartition is drawn as an int64 below 2**(d-1) - 1
    code, out, err = run_cli(capsys, "crosscheck", "--d", "65", "--atoms", "65",
                             "--trials", "1", "--seed", "1")
    assert code == 1 and out == ""
    assert err == "error: random bipartitions need d <= 64, got d=65\n"


def test_crosscheck_requires_all_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crosscheck", "--d", "3", "--atoms", "5", "--trials", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---- surface ---------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert ft.__version__ in capsys.readouterr().out


def test_module_entry_point(tmp_path, m_ind):
    path = tmp_path / "ind.json"
    ft.save_measure(m_ind, path)
    proc = subprocess.run(
        [sys.executable, "-m", "facetail", "check", str(path), "--A", "1", "--C", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agree"] is True
