"""Command-line entry points: JSON reports, CSV artifacts, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from haltonlab import l2_discrepancy_squared, load_csv, point_set
from haltonlab import cli
from haltonlab.cli import MOMENT_RATIO_BOUND, VERIFY_SUITES, build_parser, main

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
                 ["scaling", "--n-grid", "16", "--mode", "exact"],
                 ["clt", "--n", "64", "--samples", "0", "--d2-mode", "mc"],
                 ["verify", "--inject-fault"],
                 ["clt", "--n", "64", "--samples", "0", "--norm-samples", "512"],
                 # a prefix of --q-list is not a flag
                 ["scaling", "--n-grid", "16", "--q", "7"]):
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


def test_discrepancy_float_mode(capsys):
    code, rep = _run(capsys, ["discrepancy", "--n", "16", "--mode", "float"])
    assert code == 0
    assert "value_num" not in rep
    exact = l2_discrepancy_squared(point_set("halton", (2, 3), 0, 16)).value
    assert math.isclose(rep["value_f64"], float(exact), rel_tol=1e-10)


def test_discrepancy_report_layout(capsys):
    # Every metric reports value_f64; exact values add their numerator and
    # denominator.  star and local are exact whatever --mode says, and
    # "mode" names how the value was computed.
    common = {"schema_version", "command", "metric", "mode", "kind", "bases",
              "q", "n", "value_f64"}
    exact = common | {"value_num", "value_den"}
    for extra, mode, keys in (([], "exact", exact), ([], "float", common),
                              (["--metric", "star"], "float", exact),
                              (["--metric", "local", "--x", "1/2,2/3"],
                               "exact", exact),
                              (["--metric", "local", "--x", "1/2,2/3"],
                               "float", exact)):
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
    assert lines[0] == "n,q,d2,d2_over_logn,d2_over_sqrtlogn"
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
        outs.append((path.read_bytes(), json.dumps(rep, sort_keys=True)))
    assert outs[0] == outs[1]


def test_scaling_guards(tmp_path, capsys):
    code, rep = _run(capsys, ["scaling", "--n-grid", "8192"])
    assert code == 0
    assert rep["rows"] == 1
    assert rep["mode"] == "exact"


@pytest.mark.parametrize("bases", ["2,3", "2,5", "3,5"])
def test_verify_all_passes(bases, capsys):
    code, rep = _run(capsys, ["verify", "--bases", bases])
    assert code == 0
    assert rep["pass"] is True
    assert [s["suite"] for s in rep["suites"]] == list(VERIFY_SUITES)
    assert all(s["pass"] for s in rep["suites"])


# Negative controls: for each suite, the library route it audits answers
# wrongly once, and the suite has to catch it.
NEGATIVE_CONTROLS = {
    "membership": ("in_elementary_interval", lambda got: not got),
    "decomposition": ("truncated_discrepancy", lambda got: got + 1),
    "fourier": ("decomposition_term_fourier", lambda got: got + 1.0),
    "moments": ("second_moment_block",
                lambda got: (MOMENT_RATIO_BOUND * got[1] + 1.0, got[1])),
    "padic": ("lte_valuation", lambda got: got + 1),
}


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_negative_control_trips(suite, monkeypatch, capsys):
    name, corrupt = NEGATIVE_CONTROLS[suite]
    real = getattr(cli, name)
    served = []

    def wrong_once(*args):
        got = real(*args)
        if served:
            return got
        served.append(got)
        return corrupt(got)

    monkeypatch.setattr(cli, name, wrong_once)
    code, rep = _run(capsys, ["verify", "--suite", suite])
    assert served
    assert code == 1
    assert rep["pass"] is False
    [report] = rep["suites"]
    assert report["suite"] == suite
    assert report["pass"] is False
    assert report["violations"] >= 1


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
    # Above PAIRSUM_MAX points D2 comes from Monte Carlo draws.
    code, rep = _run(capsys, ["clt", "--s", "2", "--n", "4097",
                              "--samples", "50"])
    assert code == 0
    assert rep["d2_mode"] == "mc"
    assert rep["norm_draws"] == 65536
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


def test_bad_values_exit_2_with_an_error_line(capsys):
    # verify exits 1 only when a suite fails; a bad value is exit 2.
    for argv in (["discrepancy", "--n", "4", "--metric", "local"],
                 ["scaling", "--n-grid", "1,16"],
                 ["verify", "--suite", "padic", "--bases", "4,9"],
                 ["clt", "--s", "0", "--samples", "0"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert main(["clt", "--n", "8", "--samples", "-3"]) == 2
    assert capsys.readouterr().err.startswith("error: --samples")
    assert main(["clt", "--s", "0", "--samples", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --s must be >= 1")


def test_verify_checks_its_bases_before_any_suite(monkeypatch, capsys):
    def must_not_run(*_):
        raise AssertionError("a suite ran before the bases were checked")

    monkeypatch.setitem(cli._SUITES, "membership", must_not_run)
    for argv in (["verify", "--suite", "all", "--bases", "4,9"],
                 ["verify", "--suite", "all", "--bases", "2,3,5"],
                 ["verify", "--suite", "padic", "--bases", "2,3,5"],
                 ["verify", "--suite", "all", "--q", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


# sha256 of outputs that no libm or numpy float arithmetic reaches: exact
# values, integer draws, and Python's correctly rounded Fraction -> float.
PINNED_STDOUT = {
    ("discrepancy", "--n", "300", "--q", "1000000"):
        "a38bbef3b1f3317dbadbbe0beddf84d31cf7888873a2898ab5650e31f3d6e1bc",
    ("discrepancy", "--n", "256", "--metric", "star"):
        "a3810757af415e55540307e91d02ba1ec48e378e98ef7be80a3437aec0169ff5",
    ("discrepancy", "--kind", "van_der_corput", "--bases", "2", "--n", "100",
     "--q", "7", "--metric", "star"):
        "d7327a535a7a3e72f914bf29041d52be24e3b1ade1fe5fabf53dcd95456a4be6",
    ("discrepancy", "--n", "128", "--q", "1000000", "--metric", "star"):
        "f9dd86bd6c0683f02667b15cacdaac3591300cf7b9f08da608b5f0aaa18144f5",
    ("discrepancy", "--n", "256", "--metric", "local", "--x", "1/2,2/3"):
        "717a34f4b4cc352e8d3a7a1f38f4b2f3a41453d9f6ebf1fcec78dd7d31c98633",
    ("verify", "--suite", "membership", "--seed", "42"):
        "01f40573c000b933293cbaf04095046c6a050226849eb0ef9ad3bb38521fe5ed",
    ("verify", "--suite", "decomposition", "--seed", "42"):
        "cfda0363c9a568f00929ca0f6ada4e13a58b8ef870e6e73ea2b2cb9f011621d6",
    ("verify", "--suite", "padic", "--seed", "42"):
        "803b68eec9fb9b767d86c1907046cbc6d3d6fdd0e50acf8bf03b6bc846b2f261",
}
PINNED_GENERATE_N50_CSV = \
    "6e97d7e09f9a917988ddbf07e24c2505b87d32ee3e36cdb7615a7041cff1660b"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_exact_outputs_are_pinned_by_digest(tmp_path, capsys):
    for argv, digest in PINNED_STDOUT.items():
        assert main(list(argv)) == 0
        assert _sha256(capsys.readouterr().out.encode()) == digest, argv
    path = tmp_path / "pts.csv"
    assert main(["generate", "--n", "50", "--out", str(path)]) == 0
    assert _sha256(path.read_bytes()) == PINNED_GENERATE_N50_CSV


def test_bad_argument_values_exit_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["discrepancy", "--n", "1", "--metric", "local", "--x", "junk"])
    with pytest.raises(SystemExit):
        main(["scaling", "--n-grid", "16,banana"])


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _readme_block(heading: str, lang: str) -> str:
    found = re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```", README,
                      re.M | re.S)
    assert found, heading
    return found.group(1)


def test_readme_commands_parse():
    lines = [ln for ln in _readme_block("Command line", "sh").splitlines()
             if ln.startswith("haltonlab ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_library_example_runs():
    exec(compile(_readme_block("Library example", "python"), "README.md",
                 "exec"), {})
