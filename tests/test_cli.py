import argparse
import json
import math
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import apgaps.characters
import apgaps.variational
import apgaps.cli as cli
from apgaps.reports import ERROR_SUM_CSV_HEADER


def run(argv):
    return cli.main(argv)


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines() if not line.startswith("#")]


def test_bv_json_output(tmp_path):
    out = tmp_path / "bv.jsonl"
    assert run(["bv", "--x", "1e4", "--q", "3", "--b", "0.2", "--out", str(out)]) == 0
    rows = read_lines(out)
    assert len(rows) == 1
    row = rows[0]
    assert {"x", "q", "b", "value", "normalizer", "ratio", "term_count", "manifest_hash"} <= set(row)
    assert row["q"] == 3 and row["x"] == 1e4


def test_bv_csv_output(tmp_path):
    out = tmp_path / "bv.csv"
    assert run(["bv", "--x", "1e4", "--q", "3", "--b", "0.2", "--csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ERROR_SUM_CSV_HEADER
    assert lines[-1].startswith("# manifest_hash=")
    assert len(lines) == 3


def test_bv_grid_rows(tmp_path):
    out = tmp_path / "grid.jsonl"
    assert run(["bv", "--grid", "1e3,1e4", "--q", "3", "--b", "0.2", "--out", str(out)]) == 0
    assert len(read_lines(out)) == 2


def test_bv_grid_items_are_checked(tmp_path, capsys):
    for grid, message in (
        ("1e4,abc", "argument --grid: invalid float value: '1e4,abc'"),
        ("1e4,,2e4", "argument --grid: empty item in '1e4,,2e4'"),
        ("1e4,", "argument --grid: empty item in '1e4,'"),
    ):
        assert run(["bv", "--grid", grid, "--q", "3", "--b", "0.2"]) == 2
        assert message in last_error(capsys)
    # a config file's grid is read by the same type
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid": "1e3,1e4"}))
    out = tmp_path / "grid.jsonl"
    assert run(["bv", "--config", str(conf), "--q", "3", "--b", "0.2", "--out", str(out)]) == 0
    assert [row["x"] for row in read_lines(out)] == [1e3, 1e4]
    conf.write_text(json.dumps({"grid": "1e3,,1e4"}))
    assert run(["bv", "--config", str(conf), "--q", "3", "--b", "0.2"]) == 2
    assert "argument --grid: empty item" in last_error(capsys)


def test_usage_errors(capsys):
    assert run(["bv", "--x", "1e4", "--q", "0", "--b", "0.2"]) == 2
    assert run(["bv", "--q", "3", "--b", "0.2"]) == 2  # missing x
    assert run(["definitely-not-a-command"]) == 2
    # empty ranges that would pass vacuously
    for argv in (
        ["verify-identities", "--max-r", "0"],
        ["verify-identities", "--sandwich-trials", "0"],
        ["certify", "--kmax", "0"],
        ["gap", "--x", "1e7", "--q", "3", "--a", "1", "--t", "1", "--kmax", "-1"],
    ):
        assert run(argv) == 2


def test_parse_errors_end_with_json_error(capsys):
    cases = (
        (["bv", "--q", "x", "--b", "0.2", "--x", "1e4"], "--q"),  # bad type
        (["bv", "--x", "1e4", "--q", "3", "--b", "0.2", "--frob"], "--frob"),  # unknown flag
        (["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "2", "--L", "0.2", "--csv"], "--csv"),
    )
    for argv, flag in cases:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in json.loads(captured.err.strip().splitlines()[-1])["error"]
    assert run(["maycond", "--help"]) == 0
    assert "--csv" not in capsys.readouterr().out


def test_parser_of_one_command_matches_the_full_parser():
    def commands(ap):
        return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices

    full = cli.build_parser()
    for name, parser in commands(full).items():
        one = cli.build_parser(name)
        assert list(commands(one)) == [name]
        assert one.format_usage() == full.format_usage()
        assert commands(one)[name].format_help() == parser.format_help()
    assert cli.build_parser("definitely-not-a-command").format_help() == full.format_help()


def test_top_level_errors_list_every_command(capsys):
    for argv in (["bv", "--x", "1e4", "--frob"], ["definitely-not-a-command"], []):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "{verify-identities,bv,bdh,maycond,hb,comb,mk,certify,gap,constellation}" in captured.err
        assert json.loads(captured.err.strip().splitlines()[-1])["error"].startswith("apgaps: ")


def test_integer_options_take_exact_e_notation(tmp_path, capsys):
    outs = {}
    for random in ("2000", "2e3", "2.000e3", "20e2"):
        out = tmp_path / f"comb-{random}.jsonl"
        assert run(["comb", "--denominator", "6", "--random", random, "--seed", "1e0", "--out", str(out)]) == 0
        outs[random] = out.read_bytes()
    assert len(set(outs.values())) == 1  # the same rows and manifest hash as the integer literal
    assert read_lines(tmp_path / "comb-2e3.jsonl")[-1]["checked"] > 0
    for flag, value in (("--random", "2.5"), ("--random", "1e-3"), ("--denominator", "2.5e0"), ("--seed", "1e-3")):
        assert run(["comb", "--denominator", "6", flag, value]) == 2
        assert last_error(capsys) == f"apgaps comb: argument {flag}: invalid int value: '{value}'"
    for value in ("inf", "nan", "1e5000", "0x10"):
        assert run(["mk", "--k", value]) == 2
        assert "invalid int value" in last_error(capsys)
    assert run(["comb", "--denominator", "6", "--random=-1e3"]) == 2
    assert last_error(capsys) == "apgaps comb: argument --random: must be >= 0, got -1e3"
    # each item of --ks is read as an integer option is
    for ks in ("2,5", "2e0,5", "2,5.0e0"):
        out = tmp_path / f"certify-{ks}.jsonl"
        assert run(["certify", "--ks", ks, "--degree", "2", "--out", str(out)]) == 0
        outs[ks] = out.read_bytes()
    assert outs["2,5"] == outs["2e0,5"] == outs["2,5.0e0"]
    assert [r["k"] for r in read_lines(tmp_path / "certify-2e0,5.jsonl")] == [2, 5]
    for ks, message in (
        ("2.5", "invalid int value: '2.5'"),
        ("3,1e-3", "invalid int value: '3,1e-3'"),
        ("3,0", "must be >= 1, got 0"),
    ):
        assert run(["certify", "--ks", ks]) == 2
        assert last_error(capsys) == f"apgaps certify: argument --ks: {message}"


def test_thread_count_rejected(capsys):
    for argv in (["bv", "--x", "1e4", "--q", "3", "--b", "0.2"], ["bdh", "--x", "2e4", "--q", "3"]):
        for threads in ("0", "-1"):
            assert run(argv + ["--threads", threads]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert "threads" in json.loads(err[-1])["error"]


def test_solver_failure_is_json_error(monkeypatch, capsys):
    def fail(k, degree):
        raise apgaps.variational.RayleighError("Gram matrix not numerically positive definite (cond ~ 4.522e+22)")

    monkeypatch.setattr(apgaps.variational, "mk_lower_bound", fail)
    for argv in (["mk", "--k", "20", "--degree", "5"], ["certify", "--ks", "2,20"]):
        assert run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1]) == {"error": "Gram matrix not numerically positive definite (cond ~ 4.522e+22)"}


def test_mk_non_positive_a_norm_is_json_error(capsys):
    # at k = 10000 the float Gram matrix of degree 3 has lost its positive definiteness
    assert run(["mk", "--k", "10000", "--degree", "3", "--mc-samples", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    message = json.loads(err[-1])["error"]
    assert message.startswith("optimizer returned a function with non-positive A-norm "), message


def test_thread_count_invariance(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    base = ["bdh", "--x", "2e4", "--q", "3", "--Q", "300"]
    assert run(base + ["--threads", "1", "--out", str(a)]) == 0
    assert run(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_option_starts_no_thread(monkeypatch, capsys):
    def refuse(self):
        raise RuntimeError("no thread may start")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for argv in (["bdh", "--x", "2e5", "--q", "1"], ["bv", "--x", "1e6", "--q", "1", "--b", "0.45"]):
        assert run(argv + ["--threads", "2"]) == 0
        threaded = capsys.readouterr().out
        assert run(argv) == 0
        assert threaded == capsys.readouterr().out


def test_cli_import_sets_one_blas_thread_unless_set():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import os, apgaps.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    for preset, want in ((None, "1"), ("2", "2")):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == want


def test_repeat_run_byte_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    argv = ["mk", "--k", "2", "--degree", "2", "--mc-samples", "100000", "--seed", "0"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_merge(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"q": 3, "b": 0.2, "x": 1e3}))
    out = tmp_path / "out.jsonl"
    assert run(["bv", "--config", str(conf), "--x", "1e4", "--out", str(out)]) == 0
    row = read_lines(out)[0]
    assert row["x"] == 1e4 and row["q"] == 3  # flag overrides config, config fills the rest
    # an int config value of a float option is read as a float
    conf.write_text(json.dumps({"q": 3, "b": 0.2, "x": 1000}))
    assert run(["bv", "--config", str(conf), "--out", str(out)]) == 0
    row = read_lines(out)[0]
    assert row["x"] == 1000.0 and isinstance(row["x"], float)
    # a config seed is used, and a --seed flag overrides it
    hb = ["hb", "--x", "500", "--trials", "2"]
    conf.write_text(json.dumps({"seed": 4}))
    outputs = {}
    for name, extra in (("config", ["--config", str(conf)]), ("flag", ["--seed", "4"]), ("default", [])):
        assert run(hb + extra) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["config"] == outputs["flag"] != outputs["default"]
    assert run(hb + ["--config", str(conf), "--seed", "0"]) == 0
    assert capsys.readouterr().out == outputs["default"]
    # a config value is range-checked like the flag
    conf.write_text(json.dumps({"q": 0, "b": 0.2, "x": 1e3}))
    assert run(["bv", "--config", str(conf)]) == 2
    assert "--q" in last_error(capsys)


def test_config_list_options_take_json_arrays(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    for cmd, values, flags in (
        ("bv", {"grid": [1000, 10000], "q": 3, "b": 0.2}, ["--grid", "1000,10000", "--q", "3", "--b", "0.2"]),
        ("certify", {"ks": [3, 5], "degree": 2}, ["--ks", "3,5", "--degree", "2"]),
    ):
        conf.write_text(json.dumps(values))
        assert run([cmd, "--config", str(conf)]) == 0
        from_config = capsys.readouterr().out
        assert run([cmd] + flags) == 0
        assert capsys.readouterr().out == from_config
    # every item is checked by the option's type, so an empty list or a nested item names the option
    for values, message in (
        ({"grid": [1000, "abc"]}, "argument --grid: invalid float value"),
        ({"grid": []}, "argument --grid: no x value"),
        ({"grid": [[1000], 10000]}, "argument --grid: invalid float value"),
        ({"grid": [1000, {"x": 1}]}, "argument --grid: invalid float value"),
        ({"ks": [3, 2.5]}, "argument --ks: invalid int value"),
        ({"ks": []}, "argument --ks: empty item"),
        ({"ks": [3, [5]]}, "argument --ks: invalid int value"),
        ({"ks": [3, {"k": 5}]}, "argument --ks: invalid int value"),
        ({"q": [3]}, "argument --q: invalid int value"),  # only list options take arrays
    ):
        cmd = "certify" if "ks" in values else "bv"
        conf.write_text(json.dumps(dict({"q": 3, "b": 0.2, "x": 1e3}, **values) if cmd == "bv" else values))
        assert run([cmd, "--config", str(conf)]) == 2, values
        assert message in last_error(capsys)


def test_gap_radical_of_two_large_primes_is_refused_in_time():
    # q is the product of two 21-digit primes, which Brent rho does not split in reasonable time:
    # at C = 2 trial division decides; at C = 3 the cap is above 1e6, but q is no perfect power, so
    # radical(q) > 1e12 decides; at C = 5 the cap is above 1e12 and rho's step budget ends the search
    argv = ["gap", "--x", "1e200", "--q", "30000000000000000017000000000000000002067", "--a", "1", "--t", "1"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for extra, error in (
        ([], "radical(q) exceeds (log x)^C = 212076: q has a prime factor above it"),
        (
            ["--C", "3"],
            "radical(q) exceeds (log x)^C = 9.76646e+07: q has a factor above 2**64 with no prime factor up to "
            "1000000, not a perfect power, so radical(q) > 1 * 1000000**2",
        ),
        (
            ["--C", "5"],
            "radical(q) <= (log x)^C = 2.07123e+13 is undecided: q has a factor above 2**64 with no prime factor "
            "up to 1000000 that rho did not split in 1048576 steps",
        ),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "apgaps", *argv, *extra], env=env, capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["errors"] == [error]


def test_comb_verdict(tmp_path):
    out = tmp_path / "comb.jsonl"
    assert run(["comb", "--denominator", "24", "--out", str(out)]) == 0
    rows = read_lines(out)
    assert {r["check"] for r in rows} == {"trichotomy", "five-part-lemma"}
    assert all(r["counterexamples"] == [] and r["checked"] > 0 for r in rows)


def test_mk_anchor(tmp_path):
    out = tmp_path / "mk.jsonl"
    assert run(["mk", "--k", "1", "--degree", "3", "--mc-samples", "0", "--out", str(out)]) == 0
    row = read_lines(out)[0]
    assert row["lambda"] == pytest.approx(1.0, abs=1e-9)
    assert row["basis_size"] == 4


def test_mk_degree_6_at_k_12(capsys):
    assert run(["mk", "--k", "12", "--degree", "6", "--mc-samples", "100000"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert Fraction(row["lambda"]) <= Fraction(row["exact_bound"])
    assert row["mc_ci"][0] <= row["lambda"] <= row["mc_ci"][1]


def test_gap_table_lambda_is_ignored(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    assert run(["certify", "--ks", "1,2,3", "--degree", "2", "--out", str(table)]) == 0
    raised = tmp_path / "raised.jsonl"
    raised.write_text("".join(json.dumps(dict(r, **{"lambda": 99.0})) + "\n" for r in read_lines(table)))
    outcomes = {}
    for path in (table, raised):
        for t in ("1", "2"):
            code = run(["gap", "--x", str(2.0**60), "--q", str(2**20), "--a", "1", "--t", t, "--table", str(path)])
            captured = capsys.readouterr()
            row = json.loads(captured.out if code == 0 else captured.err.strip().splitlines()[-1])
            outcomes.setdefault(t, []).append((code, row.get("k"), row.get("error")))
    assert outcomes["1"][0] == outcomes["1"][1] == (0, 1, None)
    # the certified bounds stay below the t = 2 threshold, whatever "lambda" says
    assert outcomes["2"][0] == outcomes["2"][1]
    assert outcomes["2"][0][0] == 2 and "threshold" in outcomes["2"][0][2]


def test_gap_malformed_table_row_is_json_error(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    assert run(["certify", "--ks", "1", "--degree", "2", "--out", str(table)]) == 0
    (good,) = read_lines(table)
    bad_rows = (
        {},
        [1],
        dict(good, exact_bound="1/0"),
        dict(good, coefficients=good["coefficients"][:-1]),
        dict(good, coefficients=[float("nan")] + good["coefficients"][1:]),
        dict(good, coefficients=["1.0"] + good["coefficients"][1:]),
        dict(good, coefficients=[10**400] + good["coefficients"][1:]),
        dict(good, degree=3),
        dict(good, k=0),
    )
    for bad in bad_rows:
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        argv = ["gap", "--x", str(2.0**60), "--q", str(2**20), "--a", "1", "--t", "1", "--table", str(path)]
        assert run(argv) == 2
        assert f"{path}, line 2" in last_error(capsys)


def test_gap_rederives_the_selected_exact_bound(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    assert run(["certify", "--ks", "1,2,3", "--degree", "2", "--out", str(table)]) == 0
    capsys.readouterr()
    argv = ["gap", "--x", str(2.0**60), "--q", str(2**20), "--a", "1", "--t", "1"]
    # a genuine table passes the check and prints what the computed table prints
    assert run(argv + ["--kmax", "3", "--degree", "2"]) == 0
    computed = capsys.readouterr().out
    assert run(argv + ["--table", str(table)]) == 0
    assert capsys.readouterr().out == computed
    rows = read_lines(table)
    nudged = str(Fraction(rows[0]["exact_bound"]) - Fraction(1, 10**40))
    zero = [0.0] * len(rows[0]["coefficients"])
    for forgery in ({"exact_bound": "1000"}, {"exact_bound": nudged}, {"coefficients": zero}):
        forged = tmp_path / "forged.jsonl"
        forged.write_text("".join(json.dumps(r) + "\n" for r in [dict(rows[0], **forgery)] + rows[1:]))
        assert run(argv + ["--table", str(forged)]) == 2
        error = last_error(capsys)
        assert str(forged) in error and "k = 1" in error


def test_certify_table_then_gap(tmp_path):
    table = tmp_path / "table.jsonl"
    assert run(["certify", "--ks", "1,2,3", "--degree", "2", "--out", str(table)]) == 0
    rows = read_lines(table)
    assert [r["k"] for r in rows] == [1, 2, 3]
    assert all("log_k" in r and "lambda" in r for r in rows)
    out = tmp_path / "gap.jsonl"
    code = run(
        [
            "gap", "--x", str(2.0**60), "--q", str(2**20), "--a", "1", "--t", "1",
            "--eta", str(1 / 12), "--table", str(table), "--out", str(out),
        ]
    )
    assert code == 0
    row = read_lines(out)[0]
    assert row["k"] == 1 and row["tuple_diameter"] == 0
    assert row["found_gap"] is None  # x beyond the desk search bound
    for key in ("x", "q", "a", "t", "theta", "L", "k", "tuple_diameter", "bound", "found_gap", "primes"):
        assert key in row


def test_gap_validation_error(tmp_path, capsys):
    out = tmp_path / "gap.jsonl"
    man = tmp_path / "manifest.json"
    code = run(["gap", "--x", "1e10", "--q", "9973", "--a", "1", "--t", "1", "--out", str(out), "--manifest", str(man)])
    assert code == 2
    row = read_lines(out)[0]
    assert any("radical" in e for e in row["errors"])
    # the written error report gets its manifest like any other output
    assert json.loads(man.read_text())["manifest_hash"] == row["manifest_hash"]
    # exit 2 always ends stderr with a JSON error line
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(last) == {"error": "; ".join(row["errors"])}


def test_gap_rejects_non_finite_x(tmp_path, capsys):
    for x in ("nan", "inf", "-inf"):
        out = tmp_path / f"gap-{x}.jsonl"
        assert run(["gap", f"--x={x}", "--q", "3", "--a", "1", "--t", "1", "--out", str(out)]) == 2
        assert read_lines(out)[0]["errors"] == ["need finite x"]
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(last) == {"error": "need finite x"}


def test_gap_rejects_non_finite_eps_eta_C(tmp_path, capsys):
    # NaN turns no constraint off: a finite C fails the radical bound at q = 9973, and a finite eta
    # the theta bound at q = 2199023255552 (theta = 0.4114); the other cases fail nothing else
    cases = (
        (["--x", "1e10", "--q", "9973", "--C", "nan"], "need finite C"),
        (["--x", "1e10", "--q", "3", "--C", "inf"], "need finite C"),
        (["--x", "1e30", "--q", "2199023255552", "--eta", "nan"], "need finite eta"),
        (["--x", "1e10", "--q", "3", "--eta=-inf"], "need finite eta"),
        (["--x", "1e10", "--q", "3", "--eps", "nan"], "need finite eps"),
        (["--x", "1e10", "--q", "3", "--eps", "inf"], "need finite eps"),
        (["--x", "1e10", "--q", "3", "--eps", "0"], "need 0 < eps < 1/20"),
        (["--x", "1e10", "--q", "3", "--eps=-1e-3"], "need 0 < eps < 1/20"),
        (["--x", "1e10", "--q", "3", "--eps", "0.05"], "need 0 < eps < 1/20"),  # the float 0.05 exceeds 1/20
    )
    for extra, error in cases:
        out = tmp_path / "gap.jsonl"
        assert run(["gap", "--a", "1", "--t", "1", "--out", str(out)] + extra) == 2, extra
        assert read_lines(out)[0]["errors"] == [error]
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(last) == {"error": error}
    # (log x)^C above the float range bounds no radical
    assert run(["gap", "--x", "1e10", "--q", "3", "--a", "1", "--t", "1", "--C", "1e300", "--kmax", "1"]) == 0


def test_gap_rejects_zero_theta_and_negative_eta(tmp_path, capsys):
    # both failed later, in level_L_exact, with no error row written
    cases = (
        (["--q", "1", "--a", "0"], "need theta > 0: q = 1 gives theta = 0"),
        (["--q", "16384", "--a", "1", "--eta=-0.1"], "need eta >= 0, got -0.1"),  # theta = 0.4214 <= 5/12 - eta
    )
    for extra, error in cases:
        out = tmp_path / "gap.jsonl"
        assert run(["gap", "--x", "1e10", "--t", "1", "--out", str(out)] + extra) == 2, extra
        assert read_lines(out)[0]["errors"] == [error]
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(last) == {"error": error}


def test_gap_cap_exceeded(capsys):
    code = run(["gap", "--x", "1e7", "--q", "3", "--a", "1", "--t", "3", "--kmax", "6", "--degree", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "threshold" in err


def test_gap_decides_the_radical_once(monkeypatch, tmp_path):
    # q = 10000000019**2 * 30000000001: trial division and the root test leave q whole, and rho
    # finds radical(q) = 10000000019 * 30000000001 <= (log x)^8 once, for the CLI and gap_bound both
    from apgaps import gaps

    calls = []

    def spy(m, steps):
        calls.append(m)
        return rho_radical(m, steps)

    rho_radical = gaps.rho_radical
    monkeypatch.setattr(gaps, "rho_radical", spy)
    gaps._radical_errors.cache_clear()
    out = tmp_path / "g.jsonl"
    q = 10000000019**2 * 30000000001
    assert run(["gap", "--x", "1e300", "--q", str(q), "--a", "1", "--t", "1", "--C", "8", "--out", str(out)]) == 0
    assert calls == [q]
    assert read_lines(out)[0]["q"] == q


def test_gap_searches_constellations_up_to_the_desk_bound(tmp_path):
    from apgaps import gaps

    out = tmp_path / "g.jsonl"
    for x, searched in ((gaps.CONSTELLATION_MAX_X, True), (gaps.CONSTELLATION_MAX_X + 1, False)):
        assert run(["gap", "--x", str(x), "--q", "3", "--a", "1", "--t", "1", "--kmax", "6", "--out", str(out)]) == 0
        row = read_lines(out)[0]
        assert (row["found_gap"] is not None, bool(row["primes"])) == (searched, searched), x


def test_constellation_help_states_the_desk_bound(capsys):
    assert run(["constellation", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--x X at most 1e+08" in text and "--q Q at most 1e+08" in text
    assert run(["constellation", "--x", "100000001", "--q", "3", "--a", "1", "--t", "2"]) == 2
    assert last_error(capsys) == "desk bound is x <= 1e+08"


def test_hb_help_states_the_desk_bounds(capsys):
    assert run(["hb", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--x X sums over n <= x, at most 1e5" in text
    assert "--k K order of the identity, 1 to 3" in text
    for extra in (["--x", "100001"], ["--k", "0"]):
        assert run(["hb", "--x", "100", "--k", "2", "--trials", "1"] + extra) == 2
        assert last_error(capsys) == "decomposition is desk-bounded to 1 <= x <= 1e5, 1 <= k <= 3"


def test_comb_help_states_the_enumeration_bound(capsys):
    assert run(["comb", "--help"]) == 0
    assert "--denominator DENOMINATOR grid denominator, at most 48" in " ".join(capsys.readouterr().out.split())
    assert run(["comb", "--denominator", "49"]) == 2
    assert last_error(capsys) == "partition enumeration bound is 48"


def test_mk_help_states_the_sample_floor(capsys):
    assert run(["mk", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--mc-samples MC_SAMPLES Monte-Carlo samples, 0 skips, else at least 100000" in text
    assert run(["mk", "--k", "2", "--degree", "2", "--mc-samples", "99999"]) == 2
    assert last_error(capsys) == "need at least 1e5 samples"


def test_constellation_cmd(tmp_path):
    out = tmp_path / "c.jsonl"
    assert run(["constellation", "--x", "100", "--q", "1", "--a", "0", "--t", "2", "--out", str(out)]) == 0
    row = read_lines(out)[0]
    assert row["gap"] == 2 and row["primes"] == [59, 61]


def test_maycond_cmd(tmp_path):
    out = tmp_path / "m.jsonl"
    assert run(["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "2", "--L", "0.2", "--out", str(out)]) == 0
    row = read_lines(out)[0]
    assert row["lhs1"] > 0 and row["lhs2"] > 0 and row["term_count"] > 0


def test_maycond_takes_any_window_shift(monkeypatch, tmp_path):
    # the prime window (floor(x/2) + h, x] has an integer edge: --h 1e400 empties it, --h=-1e400 starts it at 0
    from apgaps import bv_sums

    counted, real = [], bv_sums.prime_residue_counts

    def spy(*args):
        counted.append(real(*args))
        return counted[-1]

    monkeypatch.setattr(bv_sums, "prime_residue_counts", spy)
    base = ["maycond", "--x", "1e5", "--q", "3", "--a", "1", "--k", "2", "--L", "0.2"]
    rows = {}
    for h in ("1e400", "-1e400", "-50000"):
        out = tmp_path / f"{h}.jsonl"
        assert run(base + [f"--h={h}", "--out", str(out)]) == 0
        rows[h] = read_lines(out)[0]
    assert not any(c.any() for c in counted[0])
    assert rows["-1e400"]["lhs2"] == rows["-50000"]["lhs2"]
    assert rows["1e400"]["lhs1"] == rows["-1e400"]["lhs1"]


# each refusal names the option and its desk bound
TOO_LARGE = {
    "mk --k 1e300 --mc-samples 0": "desk bound is k <= 10000",
    "certify --ks 1e300": "desk bound is k <= 10000",
    "maycond --x 1e6 --q 3 --a 1 --k 1e300 --L 0.2": "desk bound is k <= 10000",
    "constellation --x 1e6 --q 1e300 --a 1 --t 2": "desk bound is q <= 1e+08",
}


@pytest.mark.parametrize("argv", TOO_LARGE)
def test_integer_too_large_for_the_computation_is_json_error(argv, capsys):
    assert run(argv.split()) == 2
    assert last_error(capsys) == TOO_LARGE[argv]


def test_hb_cmd(tmp_path):
    out = tmp_path / "hb.jsonl"
    assert run(["hb", "--x", "2000", "--k", "2", "--trials", "2", "--out", str(out)]) == 0
    row = read_lines(out)[0]
    assert row["passed"] and row["components"] > 0


def last_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err.strip().splitlines()[-1])["error"]


def test_help_lists_defaults(capsys):
    defaults = {
        "verify-identities": {"max-r": 200, "sandwich-trials": 200, "seed": 0},
        "bv": {"threads": 1, "seed": 0},
        "bdh": {"threads": 1, "seed": 0},
        "maycond": {"h": 0, "seed": 0},
        "hb": {"x": 10000.0, "k": 2, "trials": 3, "seed": 0},
        "comb": {"denominator": 24, "random": 0, "seed": 0},
        "mk": {"degree": 3, "mc-samples": 100000, "seed": 0},
        "certify": {"kmax": 64, "degree": 3, "seed": 0},
        "gap": {"eps": 0.001, "eta": 0.01, "C": 2.0, "degree": 3, "kmax": 64, "seed": 0},
        "constellation": {"seed": 0},
    }
    for command, options in defaults.items():
        assert run([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, value in options.items():
            # the option's own help entry, up to the next option, names the default
            assert re.search(rf"--{name} [A-Z_]+ (?:(?!--).)*\(default {value}\)", text), (command, name)


def test_domain_edges_are_json_errors(capsys):
    cases = (
        (["bdh", "--x", "1", "--q", "1"], "x > 1"),
        (["bdh", "--x", "1", "--q", "1", "--Q", "1"], "x > 1"),
        (["bv", "--x", "inf", "--q", "3", "--b", "0.2"], "finite"),
        (["bv", "--grid", "1e4,inf", "--q", "3", "--b", "0.2"], "finite"),
        (["maycond", "--x", "inf", "--q", "3", "--a", "1", "--k", "2", "--L", "0.2"], "finite"),
        (["maycond", "--x", "1e4", "--q", "0", "--a", "1", "--k", "2", "--L", "0.2"], "--q"),
        (["bdh", "--x", "nan", "--q", "1"], "need finite x"),
        (["bdh", "--x", "inf", "--q", "1"], "need finite x"),
        (["bdh", "--x=-inf", "--q", "1"], "need finite x"),
        (["bdh", "--grid", "1e3,inf", "--q", "1", "--Q", "10"], "need finite x"),
        (["constellation", "--x", "nan", "--q", "4", "--a", "1", "--t", "2"], "need finite x"),
        (["constellation", "--x", "inf", "--q", "4", "--a", "1", "--t", "2"], "need finite x"),
        (["constellation", "--x=-inf", "--q", "4", "--a", "1", "--t", "2"], "need finite x"),
        (["bv", "--grid", ",", "--q", "3", "--b", "0.2"], "no x value"),
        (["bdh", "--grid", ",", "--q", "3", "--csv"], "no x value"),
        (["certify", "--ks", "3,,5"], "argument --ks: empty item in '3,,5'"),
        (["certify", "--ks", ","], "argument --ks: empty item"),
        (["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "0", "--L", "0.2"], "argument --k: must be >= 1"),
        (["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "-1", "--L", "0.2"], "argument --k: must be >= 1"),
        (["mk", "--k", "3", "--degree", "-1"], "argument --degree: must be >= 0"),
        (["certify", "--ks", "3", "--degree", "-1"], "argument --degree: must be >= 0"),
        (["gap", "--x", "1e10", "--q", "3", "--a", "1", "--t", "1", "--degree=-1"], "argument --degree: must be >= 0"),
        (["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "2", "--L", "nan"], "need 0 <= L <= 1, got nan"),
        (["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "2", "--L", "inf"], "need 0 <= L <= 1, got inf"),
        (["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "2", "--L", "-0.1"], "need 0 <= L <= 1, got -0.1"),
        (["maycond", "--x", "1e4", "--q", "3", "--a", "1", "--k", "2", "--L", "1.5"], "need 0 <= L <= 1, got 1.5"),
    )
    for argv, message in cases:
        assert run(argv) == 2
        assert message in last_error(capsys)


def test_hb_rejects_bad_arguments(capsys):
    cases = (
        (["--trials", "0"], "trials"),
        (["--trials", "-2"], "trials"),
        (["--x", "-5"], "x must"),
        (["--x", "0.5"], "x must"),
        (["--x", "nan"], "x must"),
        (["--x", "inf"], "x must"),
        (["--x", "2e5"], "desk-bounded"),
        (["--k", "4"], "desk-bounded"),
        # the weight budget, checked before any weight is drawn: 1e6 trials at x = 1e5 would take 745 GiB,
        # and 10382 trials of 101 weights are the fewest above 2**20
        (["--x", "1e5", "--trials", "1000000"], "trials * (floor(x) + 1) <= 1048576 weights, got 100001000000"),
        (["--trials", "10382"], "trials * (floor(x) + 1) <= 1048576 weights, got 1048582"),
    )
    for extra, message in cases:
        assert run(["hb", "--x", "100", "--k", "2", "--trials", "1"] + extra) == 2
        assert message in last_error(capsys)


def test_sizes_above_the_desk_bounds_are_refused_before_any_work(monkeypatch, capsys):
    # each refusal comes before a modulus list, residue table, dense table or sieve is built,
    # for every x of a grid before the first is computed
    from apgaps import bv_sums

    def built(*args, **kwargs):
        raise AssertionError("a table or sieve was built")

    for name in ("psi_residue_sums", "prime_residue_counts", "von_mangoldt_table", "reduced_residue_mask"):
        monkeypatch.setattr(bv_sums, name, built)
    cases = (
        (["bv", "--x", "1e300", "--q", "3", "--b", "0.2"], "desk-bounded to x <= 1e+10, got x = 1e+300"),
        (["bv", "--grid", "1e4,1e300", "--q", "3", "--b", "0.2"], "desk-bounded to x <= 1e+10, got x = 1e+300"),
        (["bv", "--x", "1e10", "--q", "3", "--b", "0.49"], "d <= 79432, need up to 3154761028 residue-table entries"),
        (["maycond", "--x", "1e11", "--q", "3", "--a", "1", "--k", "2", "--L", "0.2"], "desk-bounded to x <= 1e+10"),
        (["maycond", "--x", "1e10", "--q", "1", "--a", "1", "--k", "2", "--L", "1"], "residue-table entries"),
        (["bdh", "--x", "2e7", "--q", "3"], "desk-bounded to x <= 1e+07, got x = 2e+07"),
        (["bdh", "--grid", "1e4,1e8", "--q", "3"], "desk-bounded to x <= 1e+07, got x = 1e+08"),
    )
    for argv, message in cases:
        assert run(argv) == 2
        assert message in last_error(capsys)
    # the largest sizes the README, CI and benchmark run pass every check
    assert bv_sums.check_E_b_args(1e9, 3, 0.25) == 177
    assert bv_sums.check_E_b_args(1e7, 3, 0.45) == 1412
    assert bv_sums.check_bdh_args(4e6, 3) == pytest.approx(4e6 / math.log(4e6))


def test_comb_random_rows_match_two_draws(tmp_path):
    import apgaps.comb_lemmas as cl

    for seed in (0, 4, 9):
        out = tmp_path / f"comb{seed}.jsonl"
        assert run(["comb", "--denominator", "6", "--random", "150000", "--seed", str(seed), "--out", str(out)]) == 0
        rows = read_lines(out)[2:]
        want = [
            ("trichotomy-random", cl.random_trichotomy_sweep(150000, seed=seed)),
            ("five-part-lemma-random", cl.random_comblem_sweep(150000, seed=seed)),
        ]
        assert [(r["check"], r["checked"], r["counterexamples"]) for r in rows] == [
            (name, checked, [list(t) for t in bad]) for name, (checked, bad) in want
        ]


def test_comb_rejects_bad_arguments(tmp_path, capsys):
    for extra, message in ((["--random", "-1"], "random"), (["--denominator", "0"], "denominator")):
        assert run(["comb", "--denominator", "6"] + extra) == 2
        assert message in last_error(capsys)
    out = tmp_path / "comb.jsonl"
    assert run(["comb", "--denominator", "6", "--random", "0", "--out", str(out)]) == 0
    assert {r["check"] for r in read_lines(out)} == {"trichotomy", "five-part-lemma"}


def test_verify_identities_reduced_scope(tmp_path):
    out = tmp_path / "ids.jsonl"
    assert (
        run(["verify-identities", "--max-r", "50", "--sandwich-trials", "20", "--out", str(out)]) == 0
    )
    rows = read_lines(out)
    detail = {r["name"]: r["detail"] for r in rows if "name" in r}
    # --max-r bounds every character check
    assert detail["phi-star-divisor-sum"] == detail["conductor-partition"] == "all r <= 50"
    assert detail["orthogonality"].startswith("all r <= 50,")
    assert {
        "phi-star-divisor-sum",
        "conductor-partition",
        "orthogonality",
        "large-sieve",
        "farey-spacing",
        "hb-identity",
        "smoothed-sandwich",
    } == set(detail)
    assert rows[-1]["all_passed"] is True


def test_verify_identities_fault_injection(tmp_path, monkeypatch):
    # a wrong primitive-character count must fail the named identity
    real = apgaps.characters.phi_star_by_enumeration

    def broken(r):
        return real(r) + (1 if r == 9 else 0)

    monkeypatch.setattr(apgaps.characters, "phi_star_by_enumeration", broken)
    out = tmp_path / "ids.jsonl"
    code = run(["verify-identities", "--max-r", "30", "--sandwich-trials", "5", "--out", str(out)])
    assert code == 1
    rows = read_lines(out)
    failing = [r for r in rows if "name" in r and not r["passed"]]
    assert failing and failing[0]["name"] == "phi-star-divisor-sum"
    assert "r = 9" in failing[0]["detail"]


def test_manifest_sidecar(tmp_path):
    out = tmp_path / "bv.jsonl"
    man = tmp_path / "manifest.json"
    assert run(["bv", "--x", "1e3", "--q", "3", "--b", "0.2", "--out", str(out), "--manifest", str(man)]) == 0
    manifest = json.loads(man.read_text())
    assert manifest["command"] == "bv"
    assert manifest["manifest_hash"] == read_lines(out)[0]["manifest_hash"]
    assert manifest["started"] is not None
