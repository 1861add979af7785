"""Command-line entry points: JSON reports, CSV artifacts, determinism."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from haltonlab import l2_discrepancy_squared, load_csv, point_set
from haltonlab.cli import MOMENT_RATIO_BOUND, VERIFY_SUITES, main

F = Fraction


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    return code, json.loads(lines[-1])


def test_generate_round_trip(tmp_path, capsys):
    path = tmp_path / "pts.csv"
    code, rep = _run(capsys, ["generate", "--n", "4", "--out", str(path)])
    assert code == 0
    assert rep["command"] == "generate"
    assert rep["path"] == str(path)
    assert load_csv(str(path)) == point_set("halton", (2, 3), 0, 4)
    rows = path.read_text().splitlines()
    assert rows[2] == "0/1,0/1"


def test_generate_frozen_offset_point(tmp_path, capsys):
    path = tmp_path / "one.csv"
    code, _ = _run(capsys, ["generate", "--n", "1", "--q", "5",
                            "--out", str(path)])
    assert code == 0
    assert path.read_text().splitlines()[2] == "5/8,7/9"


def test_generate_requires_out(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--n", "4"])


def test_verbs_reject_flags_they_do_not_read(tmp_path, capsys):
    out = str(tmp_path / "pts.csv")
    for argv in (["generate", "--n", "4", "--out", out, "--mode", "float"],
                 ["generate", "--n", "4", "--out", out, "--seed", "1"],
                 ["generate", "--n", "4", "--out", out, "--v-override", "1"],
                 ["generate", "--n", "4", "--out", out, "--vv-override", "1"],
                 ["discrepancy", "--n", "4", "--seed", "1"],
                 ["discrepancy", "--n", "4", "--v-override", "1"],
                 ["discrepancy", "--n", "4", "--vv-override", "1"],
                 ["scaling", "--n-grid", "16", "--seed", "1"],
                 ["scaling", "--n-grid", "16", "--v-override", "1"],
                 ["scaling", "--n-grid", "16", "--vv-override", "1"],
                 ["verify", "--suite", "padic", "--mode", "float"],
                 ["verify", "--suite", "moments", "--v-override", "1"],
                 ["verify", "--suite", "moments", "--vv-override", "1"],
                 ["padic-scan", "--l-max", "3", "--b-max", "3", "--min-ord", "2"],
                 # prefixes of --q-list and --inject-fault are not flags
                 ["scaling", "--n-grid", "16", "--q", "7"],
                 ["verify", "--inject"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_generate_bad_inputs_exit_2(capsys):
    code = main(["generate", "--n", "4", "--bases", "2,4",
                 "--out", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    code = main(["generate", "--kind", "hammersley", "--q", "1", "--n", "4",
                 "--out", "/dev/null"])
    assert code == 2


def test_discrepancy_l2sq_exact(capsys):
    code, rep = _run(capsys, ["discrepancy", "--n", "1"])
    assert code == 0
    assert (rep["value_num"], rep["value_den"]) == (11, 18)
    assert math.isclose(rep["value_f64"], 11 / 18)


def test_discrepancy_star(capsys):
    code, rep = _run(capsys, ["discrepancy", "--metric", "star", "--n", "1"])
    assert code == 0
    assert (rep["value_num"], rep["value_den"]) == (1, 1)


def test_discrepancy_local(capsys):
    code, rep = _run(capsys, ["discrepancy", "--metric", "local",
                              "--x", "1/2,1/2", "--n", "1"])
    assert code == 0
    assert (rep["value_num"], rep["value_den"]) == (3, 4)
    with pytest.raises(SystemExit):
        main(["discrepancy", "--metric", "local", "--n", "1"])


def test_discrepancy_float_mode(capsys):
    code, rep = _run(capsys, ["discrepancy", "--n", "16", "--mode", "float"])
    assert code == 0
    assert "value_num" not in rep
    exact = l2_discrepancy_squared(point_set("halton", (2, 3), 0, 16)).value
    assert math.isclose(rep["value_f64"], float(exact), rel_tol=1e-10)


def test_discrepancy_report_layout(capsys):
    # Every metric reports value_f64; exact values add their numerator and
    # denominator.  star is exact whatever --mode says, and "mode" names
    # how the value was computed.
    common = {"schema_version", "command", "metric", "mode", "kind", "bases",
              "q", "n", "value_f64"}
    exact = common | {"value_num", "value_den"}
    for extra, mode, keys in (([], "exact", exact), ([], "float", common),
                              (["--metric", "star"], "float", exact),
                              (["--metric", "local", "--x", "1/2,2/3"],
                               "exact", exact),
                              (["--metric", "local", "--x", "1/2,2/3"],
                               "float", common)):
        code, rep = _run(capsys, ["discrepancy", "--n", "32", "--mode", mode]
                         + extra)
        assert code == 0
        assert set(rep) == keys
        assert rep["mode"] == ("exact" if keys == exact else "float")
        if "value_num" in rep:
            assert rep["value_f64"] == float(
                F(rep["value_num"], rep["value_den"]))


def test_scaling_json_and_csv(tmp_path, capsys):
    path = tmp_path / "scale.csv"
    code, rep = _run(capsys, [
        "scaling", "--n-grid", "16,32,64", "--out", str(path)])
    assert code == 0
    assert set(rep) == {"schema_version", "command", "bases", "mode",
                        "log_base", "rows", "series"}
    assert rep["log_base"] == "e"
    assert rep["rows"] == 3
    series = rep["series"]["0"]
    assert series["count"] == 3
    assert set(series) == {"count", "slope", "mean_ratio", "min_sqrt_ratio"}

    lines = path.read_text().splitlines()
    assert lines[0] == "n,q,d2,d2_over_logn,d2_over_sqrtlogn,wall_time_ms"
    first = lines[1].split(",")
    assert first[0] == "16" and first[1] == "0"
    want = math.sqrt(float(l2_discrepancy_squared(
        point_set("halton", (2, 3), 0, 16)).value))
    assert math.isclose(float(first[2]), want, rel_tol=1e-12)
    assert math.isclose(float(first[3]), want / math.log(16), rel_tol=1e-12)


def test_scaling_determinism(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        code, rep = _run(capsys, [
            "scaling", "--n-grid", "16,64", "--q-list", "0,7",
            "--out", str(path)])
        assert code == 0
        stripped = "\n".join(
            ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines())
        outs.append((stripped, json.dumps(rep, sort_keys=True)))
    assert outs[0] == outs[1]


def test_scaling_guards(tmp_path, capsys):
    code, rep = _run(capsys, ["scaling", "--n-grid", "8192",
                              "--mode", "exact"])
    assert code == 0
    assert rep["rows"] == 1
    with pytest.raises(SystemExit):
        main(["scaling", "--n-grid", "1,16"])


def test_verify_all_passes(capsys):
    code, rep = _run(capsys, ["verify"])
    assert code == 0
    assert rep["pass"] is True
    assert [s["suite"] for s in rep["suites"]] == list(VERIFY_SUITES)
    assert all(s["pass"] for s in rep["suites"])


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_fault_injection_trips(suite, capsys):
    code, rep = _run(capsys, ["verify", "--suite", suite, "--inject-fault"])
    assert code == 1
    assert rep["pass"] is False


def test_verify_deterministic_output(tmp_path, capsys):
    for suite in ("decomposition", "fourier"):
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{suite}-{tag}.json"
            code, _ = _run(capsys, ["verify", "--suite", suite,
                                    "--seed", "42", "--out", str(path)])
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def test_clt_pairsum_small(tmp_path, capsys):
    path = tmp_path / "clt.json"
    argv = ["clt", "--s", "2", "--n", "64", "--samples", "200",
            "--seed", "7", "--out", str(path)]
    code, rep = _run(capsys, argv)
    assert code == 0
    assert rep["outside_claim"] is True
    assert rep["d2_mode"] == "pairsum"
    assert rep["ks_defined"] is True
    assert 0 <= rep["ks"] <= 1
    assert sum(rep["histogram"]["counts"]) <= 200
    first = path.read_bytes()
    code, _ = _run(capsys, argv)
    assert path.read_bytes() == first


def test_clt_no_samples(tmp_path, capsys):
    path = tmp_path / "clt0.json"
    code, rep = _run(capsys, ["clt", "--s", "3", "--n", "32",
                              "--samples", "0", "--out", str(path)])
    assert code == 0
    assert rep["ks_defined"] is False
    assert rep["histogram"] == {"edges": [], "counts": []}
    assert rep["outside_claim"] is False
    assert json.loads(path.read_text())["ks_defined"] is False


def test_clt_mc_mode(capsys):
    code, rep = _run(capsys, ["clt", "--s", "2", "--n", "64",
                              "--samples", "50", "--d2-mode", "mc",
                              "--norm-samples", "512"])
    assert code == 0
    assert rep["d2_mode"] == "mc"
    assert rep["norm_draws"] == 512
    assert rep["d2"] > 0


def test_padic_scan_cli(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, rep = _run(capsys, ["padic-scan", "--l-max", "5", "--b-max", "10",
                              "--out", str(path)])
    assert code == 0
    assert set(rep) == {
        "schema_version", "command", "p", "p_other", "l_max", "b_max",
        "examined", "skipped_mismatched", "skipped_zero", "max_ord",
        "max_ord_at", "max_ratio", "max_ratio_at", "csv_path"}
    assert rep["command"] == "padic-scan"
    assert rep["csv_path"] == str(path)
    for key in ("max_ord_at", "max_ratio_at"):
        assert isinstance(rep[key], list) and len(rep[key]) == 3
    assert rep["max_ord"] >= 1
    assert rep["max_ratio"] > 0
    assert path.read_text().splitlines()[0] == "l1,l2,b,ord,ratio"


def test_moment_bound_constant_is_pinned():
    assert MOMENT_RATIO_BOUND == 1.0


def test_bad_argument_values_exit_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["discrepancy", "--n", "1", "--metric", "local", "--x", "junk"])
    with pytest.raises(SystemExit):
        main(["scaling", "--n-grid", "16,banana"])
