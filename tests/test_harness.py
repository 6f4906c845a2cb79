import csv
import dataclasses
import io
import json

import pytest

from sublintest.core import SeededRng
from sublintest.cli import main as cli_main
from sublintest import harness
from sublintest.harness import (CONSTS, CSV_COLUMNS, EXIT_TRIAL_ERROR, RunConfig, budget_for,
                                build_instance, generate, load_bundle, oracle_check, report_csv,
                                run_one_trial, run_trials, save_bundle, scaling_experiment,
                                wilson_interval)
from sublintest.instances import (gen_dl_yes, gen_groups4, gen_mdl_yes, gen_pentagon,
                                  gen_random_table, gen_total_yes)
from sublintest.mdl import monotone_dl_tester
from sublintest.oracles import QueryLedger
from sublintest.total_order import test_total_ordering as total_tester


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(0, 50, z=1.959964)
    assert lo == 0.0
    assert 0.05 < hi < 0.09
    lo, hi = wilson_interval(50, 100, z=1.959964)
    assert 0.39 < lo < 0.42
    assert 0.58 < hi < 0.61
    # the edges are exact, not the closed form's rounding residue
    assert wilson_interval(0, 1000)[0] == 0.0
    assert wilson_interval(50, 50, z=1.959964)[1] == 1.0


def test_run_trials_single_deterministic():
    cfg = RunConfig(tester="total", family="pentagon", n=50, eps=0.1, trials=1, seed=3)
    r1 = run_trials(cfg)
    r2 = run_trials(cfg)
    strip = lambda rows: [{k: v for k, v in row.items() if k != "runtime_ms"}
                          for row in rows]
    assert strip(r1.rows) == strip(r2.rows)
    assert r1.rows[0]["verdict"] in ("accept", "reject")


def test_csv_round_trip():
    import csv as csvmod
    import io
    cfg = RunConfig(tester="total", family="total-yes", n=64, eps=0.2, trials=4, seed=5)
    report = run_trials(cfg)
    text = report_csv(report)
    rows = list(csvmod.DictReader(io.StringIO(text)))
    assert len(rows) == 4
    assert list(rows[0]) == CSV_COLUMNS
    assert sum(int(r["queries"]) for r in rows) == report.total_queries()


def test_budget_flagging_and_exit_path():
    cfg = RunConfig(tester="total", family="total-yes", n=128, eps=0.2, trials=2,
                    seed=7, budget=10)
    report = run_trials(cfg)
    assert report.overbudget == 2
    assert all(r["queries"] <= 10 for r in report.rows)


def test_trial_ledgers_within_declared_budget():
    cfg = RunConfig(tester="mdl", family="mdl-yes", n=128, eps=0.2, trials=3, seed=11,
                    support_size=48)
    bq, bs = budget_for(cfg)
    report = run_trials(cfg)
    for row in report.rows:
        assert row["queries"] <= bq
        assert row["samples"] <= bs


def test_scaling_rows_and_summary():
    cfg = RunConfig(tester="total", family="total-yes", n=64, eps=0.2, trials=2, seed=9)
    csv_text, summaries = scaling_experiment(cfg, [64, 256])
    assert [s["n"] for s in summaries] == [64, 256]
    assert summaries[1]["mean_queries"] > summaries[0]["mean_queries"]
    assert csv_text.count("\n") == 1 + 4  # header + 2 trials per n


def test_constants_resolve_once_per_config():
    cfg = RunConfig(tester="mdl", family="mdl-yes", n=16, eps=0.3,
                    consts={"c_t2": "2", "t_amplify": "1"})
    cfg.validate()
    constants = cfg.constants
    assert cfg.constants is constants and constants.t2_factor == 2.0
    # a copy resolves its own, so scaling a config whose constants are cached works
    wider = dataclasses.replace(cfg, n=32)
    assert wider.constants == constants and wider.constants is not constants
    _, summaries = scaling_experiment(cfg, [16, 32])
    assert [s["trials"] for s in summaries] == [1, 1]


def test_oracle_check_strata():
    bundles = [gen_mdl_yes(4, 3, SeededRng(13, i)) for i in range(6)]
    out = oracle_check(bundles, 0.2, 60, seed=17)
    assert out["strata"]["zero"]["bundles"] == 6
    assert out["strata"]["zero"]["rate"] >= 2 / 3 - 0.05
    assert not out["violations"]


def test_bundle_json_round_trip_boolean():
    bundle = gen_mdl_yes(24, 10, SeededRng(15))
    doc = save_bundle(bundle)
    again = load_bundle(json.loads(json.dumps(doc)))
    assert again.n == bundle.n
    for x, w in zip(bundle.dist.atoms, bundle.dist.weights):
        assert again.dist.mass(x) == pytest.approx(float(w))
        assert again.target(x.v) == bundle.target(x.v)


def test_bundle_json_round_trip_groups4():
    bundle = gen_groups4(32, SeededRng(16), "no")
    again = load_bundle(json.loads(json.dumps(save_bundle(bundle))))
    for x in bundle.dist.atoms:
        assert again.target(x.v) == bundle.target(x.v)


def test_bundle_json_round_trip_dl_yes():
    bundle = gen_dl_yes(10, 12, SeededRng(19))
    again = load_bundle(json.loads(json.dumps(save_bundle(bundle))))
    assert (again.family, again.n) == ("dl-yes", 10)
    for x, w in zip(bundle.dist.atoms, bundle.dist.weights):
        assert again.dist.mass(x) == pytest.approx(float(w))
    assert [again.target(v) for v in range(1 << 10)] == [bundle.target(v) for v in range(1 << 10)]


def test_bundle_json_round_trip_total_yes():
    bundle = gen_total_yes(20, 30, SeededRng(20))
    again = load_bundle(json.loads(json.dumps(save_bundle(bundle))))
    assert again.family == "total-yes"
    for (u, v), w in zip(bundle.dist.pairs, bundle.dist.weights):
        assert again.dist.mass(u, v) == pytest.approx(float(w))
    for u in range(1, 21):
        for v in range(u + 1, 21):
            assert again.less(u, v) == bundle.less(u, v)
            assert again.less(v, u) == bundle.less(v, u)


def test_bundle_json_round_trip_comparison():
    bundle = gen_pentagon(20, SeededRng(17))
    again = load_bundle(json.loads(json.dumps(save_bundle(bundle))))
    for (u, v), w in zip(bundle.dist.pairs, bundle.dist.weights):
        assert again.dist.mass(u, v) == pytest.approx(float(w))
        assert again.less(u, v) == bundle.less(u, v)


def test_hex_packing_little_endian_bit_one_first():
    bundle = gen_mdl_yes(16, 4, SeededRng(18))
    doc = save_bundle(bundle)
    for entry, atom in zip(doc["distribution"], bundle.dist.atoms):
        raw = bytes.fromhex(entry["x"])
        assert (raw[0] & 1) == atom.bit(1)


def test_cli_test_total_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli_main(["test-total", "--n", "64", "--eps", "0.2", "--trials", "2",
                     "--seed", "4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_usage_error_unknown_family():
    code = cli_main(["test-total", "--family", "nope", "--n", "64"])
    assert code == 2


def test_cli_budget_exit_code(tmp_path):
    out = tmp_path / "r.csv"
    code = cli_main(["test-total", "--n", "64", "--eps", "0.2", "--trials", "1",
                     "--seed", "4", "--budget", "5", "--out", str(out)])
    assert code == 3


@pytest.mark.parametrize("flag, value", [("--budget", "-5"), ("--jobs", "0"), ("--jobs", "-2")])
def test_cli_negative_budget_or_jobs_is_usage_error(flag, value, capsys):
    assert cli_main(["test-mdl", "--n", "16", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:] in err


def test_failing_trial_is_recorded_and_the_run_goes_on(monkeypatch, capsys):
    real = harness.monotone_dl_tester
    calls = []

    def second_call_fails(*args):
        calls.append(None)
        if len(calls) == 2:
            raise ZeroDivisionError("boom")
        return real(*args)

    monkeypatch.setattr(harness, "monotone_dl_tester", second_call_fails)
    cfg = RunConfig(tester="mdl", family="mdl-yes", n=32, eps=0.3, trials=3, seed=2)
    report = run_trials(cfg)
    assert [r["verdict"] for r in report.rows][1] == "error"
    assert [r["error"] for r in report.rows] == ["", "ZeroDivisionError", ""]
    assert all(r["verdict"] in ("accept", "reject") for r in report.rows[::2])
    assert (report.errors, report.accepts + report.rejects) == (1, 2)
    assert "ZeroDivisionError: boom" in capsys.readouterr().err  # the traceback
    calls.clear()
    assert cli_main(["test-mdl", "--n", "32", "--eps", "0.3", "--trials", "3",
                     "--seed", "2"]) == EXIT_TRIAL_ERROR
    captured = capsys.readouterr()
    assert "errors=1" in captured.err
    assert ",error,ZeroDivisionError,0,0," in captured.out  # the failed trial's CSV row


def test_cli_oracle_check_fills_the_far_stratum(tmp_path):
    out = tmp_path / "oc.json"
    code = cli_main(["oracle-check", "--bundles", "10", "--trials", "60", "--seed", "7",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    far = doc["strata"]["far"]
    assert far["bundles"] > 0 and far["trials"] >= 60
    assert far["rate"] is not None
    assert far["wilson99"] == list(wilson_interval(round(far["rate"] * far["trials"]),
                                                   far["trials"]))
    assert doc["strata"]["zero"]["bundles"] >= 10
    assert not doc["violations"]


def test_cli_oracle_check_reports_intervals_and_notes_small_run_violations(capsys):
    assert cli_main(["oracle-check", "--bundles", "3", "--trials", "20", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    zero = doc["strata"]["zero"]
    lo, hi = zero["wilson99"]
    assert [lo, hi] == list(wilson_interval(round(zero["rate"] * zero["trials"]),
                                            zero["trials"]))
    assert doc["violations"] == [["zero", zero["rate"]]]
    assert hi >= 2 / 3 - 0.05
    assert "# note: the zero violation" in captured.err


@pytest.mark.parametrize("family, tester", [("mdl-yes", "mdl"), ("groups4-no", "mdl"),
                                            ("dl-yes", "dl"), ("pentagon", "total")])
def test_cli_scaling_picks_the_tester_from_the_family(family, tester, tmp_path, capsys):
    n_list = [15, 30] if family == "pentagon" else [16, 32]
    out = tmp_path / "s.csv"
    code = cli_main(["scaling", "--family", family, "--n-list", ",".join(map(str, n_list)),
                     "--eps", "0.3", "--out", str(out)])
    assert code == 0
    assert [line.split()[1] for line in capsys.readouterr().err.splitlines()] == \
        [f"n={n}" for n in n_list]
    row = next(csv.DictReader(io.StringIO(out.read_text())))
    want = run_trials(RunConfig(tester=tester, family=family, n=n_list[0], eps=0.3)).rows[0]
    assert [row[k] for k in ("verdict", "queries", "samples")] == \
        [str(want[k]) for k in ("verdict", "queries", "samples")]


def test_cli_scaling_unknown_family_is_usage_error(capsys):
    assert cli_main(["scaling", "--family", "nope", "--n-list", "16"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_oracle_check_refuses_widths_without_exact_distances(capsys):
    assert cli_main(["oracle-check", "--n", "9", "--bundles", "1", "--trials", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_gen_instance_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    code = cli_main(["gen-instance", "--family", "mdl-yes", "--n", "32",
                     "--support", "8", "--seed", "21", "--out", str(path)])
    assert code == 0
    bundle = load_bundle(json.loads(path.read_text()))
    assert bundle.n == 32
    # and the harness can run from the file
    cfg = RunConfig(tester="mdl", family="mdl-yes", n=32, eps=0.25, trials=1, seed=22,
                    instance_path=str(path))
    report = run_trials(cfg)
    assert report.rows[0]["verdict"] == "accept"


def _one_error_line(capsys) -> str:
    """stderr of a command that must fail as a usage error: one error line."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.fixture
def no_trials(monkeypatch):
    """Fails the test if any trial runs."""
    def refuse(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(harness, "run_one_trial", refuse)


MDL8 = save_bundle(gen_mdl_yes(8, 4, SeededRng(3)))
PAIRS = {"pairs": [{"u": 1, "v": 2, "p": 1.0}]}
FIVE = {"type": "pentagon", "order": [1, 2, 3, 4, 5]}
MALFORMED_FILES = {
    "missing_key": {"version": 1},
    "mdl_over_pairs": {**MDL8, "distribution": PAIRS},
    "pentagon_order_not_a_permutation": {"version": 1, "n": 8, "function": FIVE,
                                         "distribution": PAIRS},
    "pentagon_order_too_short": {"version": 1, "n": 10, "function": FIVE, "distribution": PAIRS},
    "table_without_2_to_the_n_bits": {**MDL8, "function": {"type": "table", "bits": [0, 1]}},
    "pentagon_with_another_distribution": {
        **save_bundle(gen_pentagon(10, SeededRng(4))), "distribution": PAIRS},
}


@pytest.mark.parametrize("doc", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_cli_malformed_instance_file_is_usage_error(doc, tmp_path, capsys, no_trials):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["test-mdl", "--instance", str(path), "--trials", "3"]) == 2
    _one_error_line(capsys)
    with pytest.raises(ValueError):
        load_bundle(doc)


@pytest.mark.parametrize("argv", [["test-mdl", "--instance", "PENTAGON"],
                                  ["test-dl", "--family", "pentagon", "--n", "255"],
                                  ["test-total", "--family", "mdl-yes"]],
                         ids=lambda argv: argv[0])
def test_cli_tester_that_cannot_query_the_instance_is_usage_error(argv, tmp_path, capsys,
                                                                  no_trials):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(save_bundle(gen_pentagon(20, SeededRng(5)))))
    argv = [str(path) if a == "PENTAGON" else a for a in argv]
    assert cli_main(argv + ["--trials", "3"]) == 2
    assert "instance, not a" in _one_error_line(capsys)


def test_rows_carry_the_bundles_n(tmp_path, capsys):
    path = tmp_path / "m32.json"
    path.write_text(json.dumps(save_bundle(gen_mdl_yes(32, 8, SeededRng(6)))))
    assert cli_main(["test-mdl", "--instance", str(path), "--n", "64", "--eps", "0.3",
                     "--trials", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["n"] for row in rows] == ["32", "32"]


@pytest.mark.parametrize("argv", [["scaling", "--instance", "x.json"], ["scaling", "--n", "64"],
                                  ["gen-instance", "--eps", "0.2"],
                                  ["gen-instance", "--const", "c_sk=4"]],
                         ids=lambda argv: " ".join(argv[:2]))
def test_cli_refuses_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


OUT_COMMANDS = [["test-total", "--n", "16"], ["test-mdl", "--n", "16"], ["test-dl", "--n", "16"],
                ["scaling", "--n-list", "16"], ["gen-instance", "--n", "16"],
                ["birthday", "--size", "4", "--trials", "10"],
                ["oracle-check", "--n", "3", "--bundles", "1", "--trials", "2"]]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
def test_cli_out_in_a_missing_directory_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "f"
    assert cli_main(argv + ["--out", str(out)]) == 2
    assert "No such file or directory" in _one_error_line(capsys)


@pytest.mark.parametrize("tester, family, n", [("total", "pentagon", 255),
                                               ("mdl", "groups4-no", 256)])
def test_row_witness_is_the_verdicts_as_json(tester, family, n):
    cfg = RunConfig(tester=tester, family=family, n=n, eps=0.1, seed=5)
    bundle = build_instance(cfg)
    row = run_one_trial(cfg, bundle, 0)
    rng = SeededRng(cfg.seed, 0).derive(1)
    if tester == "total":
        verdict = total_tester(bundle.comparison_oracle(QueryLedger()), bundle.dist, 0.1, rng)
    else:
        verdict = monotone_dl_tester(bundle.function_oracle(QueryLedger()), bundle.dist, 0.1, rng)
    assert verdict.rejected and row["verdict"] == "reject"
    assert row["witness"] == json.dumps(verdict.witness)
    assert list(row) == CSV_COLUMNS and CSV_COLUMNS[-1] == "witness"


ROUND_TRIP = {"total-yes": 20, "pentagon": 20, "mdl-yes": 24, "dl-yes": 10, "groups4-yes": 32,
              "groups4-no": 32, "table": 4}


@pytest.mark.parametrize("family", ROUND_TRIP)
def test_load_keeps_what_the_generator_built(family):
    n = ROUND_TRIP[family]
    bundle = (gen_random_table(n, SeededRng(7)) if family == "table"
              else generate(family, n, None, 7))
    again = load_bundle(json.loads(json.dumps(save_bundle(bundle))))
    keep = lambda b: (b.kind, b.family, b.n, b.ground_truth, b.certificate)
    assert keep(again) == keep(bundle)


def test_cli_dl_desk_profile_runs(tmp_path):
    out = tmp_path / "dl.csv"
    code = cli_main(["test-dl", "--n", "64", "--eps", "0.2", "--trials", "1", "--seed", "3",
                     "--const", "t_amplify=3", "--const", "outer_rounds=6",
                     "--const", "inner_rounds=8", "--const", "c_accept_threshold=3",
                     "--const", "sketch_source=light", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1].split(",")[6] in ("accept", "reject")


@pytest.mark.parametrize("const", ["bogus=1", "t_amplify=x", "sketch_source=lite"])
def test_cli_bad_const_is_usage_error(const, capsys):
    code = cli_main(["test-dl", "--n", "64", "--trials", "1", "--const", const])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_const_of_another_tester_is_still_checked(capsys):
    assert cli_main(["test-total", "--n", "64", "--const", "sketch_source=lite"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_tester_is_rejected():
    with pytest.raises(ValueError, match="unknown tester"):
        RunConfig(tester="nope", family="total-yes", n=64, eps=0.2).validate()


def test_const_names_come_from_the_constants():
    assert sorted(CONSTS) == sorted([
        "c_sk", "c_lc", "c_long", "c_crowd", "c_type", "c_nil", "c_blockcap", "c_paircap",
        "c_t2", "t_amplify", "c_outer", "c_inner", "c_accept_threshold", "outer_rounds",
        "inner_rounds", "sketch_source"])


def test_env_seed_respected(monkeypatch, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    monkeypatch.setenv("SUBLINTEST_SEED", "909")
    cli_main(["test-total", "--n", "64", "--trials", "1", "--out", str(out1)])
    cli_main(["test-total", "--n", "64", "--trials", "1", "--out", str(out2)])
    strip = lambda p: [{k: v for k, v in row.items() if k != "runtime_ms"}
                       for row in csv.DictReader(io.StringIO(p.read_text()))]
    assert strip(out1) == strip(out2)
    assert "909" in out1.read_text()


def test_parallel_jobs_match_sequential():
    cfg1 = RunConfig(tester="total", family="total-yes", n=128, eps=0.2, trials=4,
                     seed=23, jobs=1)
    cfg2 = RunConfig(tester="total", family="total-yes", n=128, eps=0.2, trials=4,
                     seed=23, jobs=2)
    strip = lambda rows: [(r["trial"], r["verdict"], r["queries"], r["samples"])
                          for r in rows]
    assert strip(run_trials(cfg1).rows) == strip(run_trials(cfg2).rows)


SEED_COMMANDS = [["test-total", "--n", "64"], ["test-mdl", "--n", "32"], ["test-dl", "--n", "16"],
                 ["scaling", "--n-list", "16"], ["gen-instance", "--n", "16"],
                 ["birthday", "--size", "6", "--trials", "20"],
                 ["oracle-check", "--n", "3", "--bundles", "2", "--trials", "4"]]


@pytest.mark.parametrize("argv", SEED_COMMANDS, ids=lambda argv: argv[0])
def test_bad_env_seed_is_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setenv("SUBLINTEST_SEED", "abc")
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: SUBLINTEST_SEED")


@pytest.mark.parametrize("argv", [["birthday", "--size", "6", "--trials", "50"],
                                  ["oracle-check", "--n", "3", "--bundles", "2",
                                   "--trials", "8"]], ids=lambda argv: argv[0])
def test_empty_env_seed_means_the_default(argv, monkeypatch, capsys):
    assert cli_main(argv + ["--seed", "1"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setenv("SUBLINTEST_SEED", "")
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_birthday_rejects_nonpositive_trials(trials, capsys):
    assert cli_main(["birthday", "--trials", trials]) == 2
    assert "error: trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, '{"left": {"u": 1.0}}', "{not json"])
def test_cli_birthday_bad_instance_is_usage_error(content, tmp_path, capsys):
    path = tmp_path / "exp.json"
    if content is not None:
        path.write_text(content)
    assert cli_main(["birthday", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cmd", ["test-mdl", "test-dl", "gen-instance", "test-total"])
def test_cli_negative_support_is_usage_error(cmd, capsys):
    for support in ("-1", "0"):
        assert cli_main([cmd, "--n", "16", "--support", support]) == 2
        assert "error: a distribution needs at least one outcome" in capsys.readouterr().err
