import csv
import dataclasses
import io
import json
import os
import re
import shlex

import pytest

from sublintest.core import SeededRng
from sublintest.cli import main as cli_main
from sublintest import cli, harness
from sublintest.harness import (CONSTS, CSV_COLUMNS, EXIT_TRIAL_ERROR, RunConfig, budget_for,
                                build_instance, generate, load_bundle, oracle_check, report_csv,
                                run_one_trial, run_trials, save_bundle, scaling_experiment,
                                wilson_interval)
from sublintest.instances import (gen_dl_yes, gen_groups4, gen_mdl_yes, gen_pentagon,
                                  gen_planted_violation, gen_random_table, gen_total_yes)
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
    cfg = RunConfig(tester="total", family="total-yes", n=64, eps=0.2, trials=4, seed=5)
    report = run_trials(cfg)
    text = report_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
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


@pytest.mark.parametrize("eps, trials, says", [(0, 60, "eps must lie in (0,1)"),
                                               (1, 60, "eps must lie in (0,1)"),
                                               (0.2, 0, "trials_per_stratum must be at least 1")])
def test_oracle_check_refuses_before_any_distance(eps, trials, says, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "dist_mdl", lambda *args: calls.append(args))
    bundles = [gen_mdl_yes(4, 3, SeededRng(13, i)) for i in range(2)]
    with pytest.raises(ValueError, match=re.escape(says)):
        oracle_check(bundles, eps=eps, trials_per_stratum=trials, seed=17)
    assert calls == []


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


def test_save_refuses_a_family_without_a_file_form():
    bundle = gen_planted_violation(gen_mdl_yes(64, 8, SeededRng(1)), 1, 0.2, SeededRng(2))
    with pytest.raises(ValueError, match="family 'planted-type1' has no serialized form"):
        save_bundle(bundle)


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


def test_rows_carry_the_bundles_n(tmp_path, capsys):
    path = tmp_path / "m32.json"
    path.write_text(json.dumps(save_bundle(gen_mdl_yes(32, 8, SeededRng(6)))))
    assert cli_main(["test-mdl", "--instance", str(path), "--n", "64", "--eps", "0.3",
                     "--trials", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["n"] for row in rows] == ["32", "32"]


# every command that writes --out; the check refuses the path before the
# command runs, so each runs with its defaults
OUT_COMMANDS = [[cmd] for cmd, (_, flags, _) in cli.COMMANDS.items() if "out" in flags.split()]


@pytest.fixture
def command_calls(monkeypatch):
    """The calls of what the commands run (trials, experiments, generators),
    each replaced by a stub that records its name."""
    calls = []
    for name in ("run_trials", "scaling_experiment", "run_bipartite_birthday",
                 "run_hypergraph_birthday", "oracle_check", "generate"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name: calls.append(_name))
    return calls


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
def test_cli_out_in_a_missing_directory_is_usage_error(argv, tmp_path, capsys, command_calls):
    out = tmp_path / "missing" / "f"
    assert cli_main(argv + ["--out", str(out)]) == 2
    assert "No such file or directory" in _one_error_line(capsys)
    assert command_calls == [] and not out.parent.exists()


@pytest.mark.parametrize("bad", ["directory", "not_writable"])
@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
def test_cli_out_that_cannot_be_written_is_usage_error(argv, bad, tmp_path, monkeypatch, capsys,
                                                       command_calls):
    kept = tmp_path / "kept.txt"
    kept.write_text("kept")
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: p != str(kept) and real_access(p, mode))
    path = tmp_path if bad == "directory" else kept
    assert cli_main(argv + ["--out", str(path)]) == 2
    assert ("Is a directory" if bad == "directory" else "Permission denied") in \
        _one_error_line(capsys)
    assert command_calls == []
    assert kept.read_text() == "kept" and list(tmp_path.iterdir()) == [kept]


@pytest.mark.parametrize("argv", [["birthday", "--m", "0"], ["birthday", "--size", "0"],
                                  ["birthday", "--size", "-2"], ["oracle-check", "--bundles", "0"],
                                  ["oracle-check", "--bundles", "-1"],
                                  ["oracle-check", "--trials", "0"], ["test-mdl", "--trials", "0"],
                                  ["scaling", "--trials", "-1"]], ids=" ".join)
def test_cli_count_flag_below_one_is_usage_error(argv, capsys, command_calls):
    assert cli_main(argv) == 2
    assert _one_error_line(capsys).startswith(f"error: {argv[1][2:]} must be at least 1, got ")
    assert command_calls == []


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
    """The file keeps the metadata, the mass of every atom or pair, and the
    function: on every string up to width 10 and on the support above that,
    and on every ordered pair of vertices."""
    n = ROUND_TRIP[family]
    bundle = (gen_random_table(n, SeededRng(7)) if family == "table"
              else generate(family, n, None, 7))
    again = load_bundle(json.loads(json.dumps(save_bundle(bundle))))
    keep = lambda b: (b.kind, b.family, b.n, b.ground_truth, b.certificate)
    assert keep(again) == keep(bundle)
    if bundle.kind == "boolean":
        masses = [(again.dist.mass(x), w) for x, w in zip(bundle.dist.atoms, bundle.dist.weights)]
        strings = range(1 << n) if n <= 10 else [x.v for x in bundle.dist.atoms]
        assert [again.target(v) for v in strings] == [bundle.target(v) for v in strings]
    else:
        masses = [(again.dist.mass(*p), w) for p, w in zip(bundle.dist.pairs, bundle.dist.weights)]
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        assert [again.less(*p) for p in pairs] == [bundle.less(*p) for p in pairs]
    assert [m for m, _ in masses] == pytest.approx([float(w) for _, w in masses])


def test_cli_dl_desk_profile_runs(tmp_path):
    out = tmp_path / "dl.csv"
    code = cli_main(["test-dl", "--n", "64", "--eps", "0.2", "--trials", "1", "--seed", "3",
                     "--const", "t_amplify=3", "--const", "outer_rounds=6",
                     "--const", "inner_rounds=8", "--const", "c_accept_threshold=3",
                     "--const", "sketch_source=light", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1].split(",")[6] in ("accept", "reject")


# the desk profile without its threshold: at n=256 and eps 0.25 the default
# threshold log2(n/eps) = 10 is above the 8 attempts of a round
NO_THRESHOLD = ["--eps", "0.25", "--const", "t_amplify=3", "--const", "outer_rounds=2",
                "--const", "inner_rounds=8", "--const", "sketch_source=light"]


def test_cli_refuses_the_round_profile_only_at_the_instance_files_width(tmp_path, capsys):
    """A 16-wide file runs under --n 256: its threshold log2(16/0.25) = 6 fits."""
    path = tmp_path / "dl16.json"
    path.write_text(json.dumps(save_bundle(gen_dl_yes(16, 8, SeededRng(16)))))
    assert cli_main(["test-dl", "--instance", str(path), "--n", "256"] + NO_THRESHOLD) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "16"


def test_const_of_another_tester_is_still_checked(capsys):
    assert cli_main(["test-total", "--n", "64", "--const", "sketch_source=lite"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_tester_is_rejected():
    with pytest.raises(ValueError, match="unknown tester"):
        RunConfig(tester="nope", family="total-yes", n=64, eps=0.2).validate()


def test_const_names_come_from_the_constants():
    assert sorted(CONSTS) == sorted([
        "c_crowd", "c_paircap", "c_t2", "t_amplify", "c_accept_threshold", "outer_rounds",
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


def test_cli_birthday_hypergraph_file_ignores_m_prime(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"edges": [["a", "b"]], "left": {"a": 0.5, "b": 0.5}, "m": 6,
                                "m_prime": 0, "trials": 20}))
    assert cli_main(["birthday", "--instance", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "file"


@pytest.mark.parametrize("variant", ["hyper3", "hyper4"])
def test_cli_birthday_canned_hypergraph(variant, capsys):
    """One draw cannot hold a whole edge, and a seed fixes the output."""
    argv = ["birthday", "--variant", variant, "--size", "12", "--trials", "50", "--seed", "5"]
    outputs = []
    for extra in ([], [], ["--m", "1"]):
        assert cli_main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["variant"] == variant
    assert json.loads(outputs[2])["rate"] == 0.0


# values outside each numeric flag's range, for every command that reads it,
# and what their refusal says, from the "error: " that opens the line (the
# message of --n differs by command); --seed has no range
OUT_OF_RANGE = {"n": (["1"], "n must"),
                "eps": (["0", "1", "nan", "inf"], "error: eps must lie in (0,1)"),
                "delta": (["0", "1", "nan"], "error: delta must lie in (0,1)"),
                "trials": (["0", "-1", "-3"], "error: trials must be at least 1, got "),
                "seed": ([], None),
                "budget": (["-5"], "error: budget must not be negative"),
                "support": (["0", "-1"], "error: a distribution needs at least one outcome"),
                "jobs": (["0", "-2"], "error: jobs must be at least 1"),
                "size": (["0", "-2"], "error: size must be at least 1, got "),
                "m": (["0"], "error: m must be at least 1, got "),
                "bundles": (["0", "-1"], "error: bundles must be at least 1, got ")}
NUMERIC_FLAGS = [name for name, spec in cli.FLAGS.items() if spec.get("type") in (int, float)]
BAD_CONSTS = {"c_t2=nan": "finite and positive", "c_paircap=nan": "finite and positive",
              "c_t2=inf": "finite and positive", "c_t2=0": "finite and positive",
              "c_paircap=-1": "finite and positive", "t_amplify=0": "finite and positive",
              "bogus=1": "unknown constant", "t_amplify=x": "expects int",
              "sketch_source=lite": "sketch_source must be",
              # names that are not constants, whatever the value (the paper's fixed counts)
              "c_type=nan": "unknown constant", "c_nil=nan": "unknown constant",
              "c_type=inf": "unknown constant", "c_type=0": "unknown constant",
              "c_type=-1": "unknown constant", "c_type=2": "unknown constant",
              "c_sk=8": "unknown constant", "c_lc=8": "unknown constant",
              "c_long=100": "unknown constant", "c_blockcap=16": "unknown constant"}
# a --support of 121 at width 16 is more than each family draws from
OVERFULL = {"total-yes": "support larger than the number of pairs",
            "mdl-yes": "support larger than the number of weight-2 strings",
            "dl-yes": "support larger than the number of weight-2 strings"}
# scaling widths, each refused before the widths ahead of it run
BAD_N_LISTS = [(["--n-list", "16,1"], "n must be at least 2"),
               (["--n-list", "16,x"], "--n-list expects comma-separated integers, got '16,x'"),
               (["--n-list", "16,"], "--n-list expects comma-separated integers, got '16,'"),
               (["--family", "total-yes", "--n-list", "64,16", "--support", "200"],
                "support larger than the number of pairs")]
# --instance paths, relative to the folder the sweep runs in
BAD_INSTANCES = {"missing.json": "No such file or directory", "folder": "Is a directory",
                 "text.json": "--instance text.json is not JSON: Expecting value",
                 "brace.json": "--instance brace.json is not JSON: Expecting property name"}

MDL8 = save_bundle(gen_mdl_yes(8, 4, SeededRng(3)))
PENTAGON10 = save_bundle(gen_pentagon(10, SeededRng(4)))
PAIRS = {"pairs": [{"u": 1, "v": 2, "p": 1.0}]}
FIVE = {"type": "pentagon", "order": [1, 2, 3, 4, 5]}
# instance files the loader refuses, and what it says
MALFORMED_FILES = {
    "missing_key": ({"version": 1}, "malformed instance file (KeyError: 'n')"),
    "n_below_2": ({**MDL8, "n": 1}, "n must be an integer of at least 2"),
    "nu_of_the_wrong_length": ({**MDL8, "function": {**MDL8["function"], "nu": [0]}},
                               "nu must hold 9 values in {0, 1}"),
    "negative_mass": ({**MDL8, "distribution": [{**e, "p": -1.0} for e in MDL8["distribution"]]},
                      "weights must lie in (0,1]"),
    "mdl_over_pairs": ({**MDL8, "distribution": PAIRS},
                       "function type 'mdl' needs a distribution over strings"),
    "pentagon_of_width_8": ({"version": 1, "n": 8, "function": FIVE, "distribution": PAIRS},
                            "n must be a positive multiple of 5"),
    "pentagon_order_too_short": ({"version": 1, "n": 10, "function": FIVE, "distribution": PAIRS},
                                 "order must be a permutation of [1..n]"),
    "table_without_2_to_the_n_bits": ({**MDL8, "function": {"type": "table", "bits": [0, 1]}},
                                      "a truth table over n bits lists 2^n values in {0, 1}"),
    "pentagon_over_strings": ({**PENTAGON10, "distribution": MDL8["distribution"]},
                              "function type 'pentagon' needs a distribution over pairs"),
    "pentagon_with_another_distribution": ({**PENTAGON10, "distribution": PAIRS},
                                           "the distribution of a pentagon instance is fixed"),
    # an unknown type is refused before its distribution is read
    "unknown_type_over_strings": ({**MDL8, "function": {"type": "foo"}},
                                  "unknown function type 'foo'"),
    "unknown_type_over_pairs": ({**PENTAGON10, "function": {"type": "foo"}},
                                "unknown function type 'foo'"),
}
EXPERIMENT = {"edges": [["u", "v"]], "left": {"u": 0.5}, "right": {"v": 0.5}, "m": 4,
              "m_prime": 4, "trials": 20}
NOT_AN_EXPERIMENT = "an experiment definition needs 'edges' and 'left'"
NOT_VERTEX_NAMES = "edges must be a list of lists of vertex names"
# what birthday says of a flag that an experiment file sets
FILE_SETS = "cannot be given with --instance, whose file sets it"
WEIGHT = "every vertex weight must be a number in [0, 1]"
SAMPLE_SIZE = "m and, for a bipartite experiment, m_prime must be at least 1"
# experiment files birthday refuses, and what it says
BAD_EXPERIMENTS = {
    "edge_vertex_without_weight": ({**EXPERIMENT, "edges": [["u", "w"]]},
                                   "edge ['u', 'w'] has a vertex without a weight"),
    "right_vertex_only_on_the_left": (
        {**EXPERIMENT, "left": {"u": 0.5, "v": 0.1}, "right": {"w": 0.5}},
        "edge ['u', 'v'] has a vertex without a weight"),
    "hyperedge_vertex_without_weight": (
        {"edges": [["a", "b", "c"]], "left": {"a": 0.5, "b": 0.5}},
        "edge ['a', 'b', 'c'] has a vertex without a weight"),
    "negative_weight": ({**EXPERIMENT, "left": {"u": -0.5}}, WEIGHT),
    "nan_weight": ({**EXPERIMENT, "left": {"u": float("nan")}}, WEIGHT),
    "weight_not_a_number": ({**EXPERIMENT, "left": {"u": "0.5"}}, WEIGHT),
    "m_zero": ({**EXPERIMENT, "m": 0}, SAMPLE_SIZE),
    "bipartite_m_prime_zero": ({**EXPERIMENT, "m_prime": 0}, SAMPLE_SIZE),
    "m_null": ({**EXPERIMENT, "m": None}, "error: m must be an integer"),
    "edge_not_a_list": ({**EXPERIMENT, "edges": [1]}, NOT_VERTEX_NAMES),
    "vertex_not_a_name": ({**EXPERIMENT, "edges": [["u", ["v"]]]}, NOT_VERTEX_NAMES),
    "left_only": ({"left": {"u": 1.0}}, NOT_AN_EXPERIMENT),
}
NOT_BOOLEAN = "pentagon is a comparison instance, not a boolean function"
NOT_COMPARISON = "is a boolean instance, not a comparison relation"
TESTERS = ("test-total", "test-mdl", "test-dl")
# the files the sweep writes into its folder, each with what the commands that
# read --instance say of it; a command the entry does not name runs it
INSTANCE_FILES = {
    **{f"{name}.json": (doc, {**dict.fromkeys(TESTERS, says), "birthday": NOT_AN_EXPERIMENT})
       for name, (doc, says) in MALFORMED_FILES.items()},
    **{f"{name}.json": (doc, {**dict.fromkeys(TESTERS, "unsupported instance file version"),
                              "birthday": says})
       for name, (doc, says) in BAD_EXPERIMENTS.items()},
    "pentagon.json": (save_bundle(gen_pentagon(20, SeededRng(5))),
                      {"test-mdl": NOT_BOOLEAN, "test-dl": NOT_BOOLEAN,
                       "birthday": NOT_AN_EXPERIMENT}),
    "dl256.json": (save_bundle(gen_dl_yes(256, 8, SeededRng(256))),
                   {"test-total": NOT_COMPARISON, "birthday": NOT_AN_EXPERIMENT}),
    "experiment.json": (EXPERIMENT, {**dict.fromkeys(TESTERS, "unsupported instance file version"),
                                     "birthday": f"error: --trials {FILE_SETS}"}),
}
NO_EXACT_DISTANCES = "--n must lie in 3..6 for exact distances"
NO_ROUND = "no round could accept"
# refusals of one command: widths without exact distances, a tester that
# cannot query the family, a round profile that cannot accept (at --n, an
# --n-list entry or an --instance file's width whatever --n says), attempt
# 2**20 of a round, whose stream is the next round's attempt 0, flags a
# command does not read, and the birthday flags besides --trials that an
# experiment file sets
ONE_OFF = [(["oracle-check", "--n", "2"], NO_EXACT_DISTANCES),
           (["oracle-check", "--n", "9", "--bundles", "1", "--trials", "2"], NO_EXACT_DISTANCES),
           (["test-dl", "--family", "pentagon", "--n", "255", "--trials", "3"], NOT_BOOLEAN),
           (["test-total", "--family", "mdl-yes", "--trials", "3"], NOT_COMPARISON),
           (["test-dl", "--family", "dl-yes", "--n", "256", *NO_THRESHOLD], NO_ROUND),
           (["scaling", "--family", "dl-yes", "--n-list", "16,256", *NO_THRESHOLD], NO_ROUND),
           (["test-dl", "--instance", "dl256.json", "--n", "16", *NO_THRESHOLD], NO_ROUND),
           (["test-dl", "--n", "64", "--const", "inner_rounds=1048577"], "streams would repeat"),
           (["scaling", "--instance", "x.json"], "unrecognized arguments"),
           (["scaling", "--n", "64"], "unrecognized arguments"),
           (["gen-instance", "--eps", "0.2"], "unrecognized arguments"),
           (["gen-instance", "--const", "c_crowd=4"], "unrecognized arguments"),
           *((["birthday", "--instance", "experiment.json", f"--{flag}", value],
              f"error: --{flag} {FILE_SETS}")
             for flag, value in (("size", "5"), ("m", "7"), ("variant", "hyper3")))]


def _refusals():
    """(argv, what its error line says) for every value a command must refuse:
    a SUBLINTEST_SEED that is not an integer (a leading NAME=value sets the
    environment); each numeric flag it reads out of range, not a number and
    empty; each bad --const; an unknown --family; a --support above what a
    family of width 16 draws from; each bad --n-list; each --instance
    path that names no instance, and each instance file it cannot run; and
    the ONE_OFF rows."""
    for cmd, (_, flags, _) in cli.COMMANDS.items():
        flags = flags.split()
        yield ["SUBLINTEST_SEED=abc", cmd], "error: SUBLINTEST_SEED must be an integer, got 'abc'"
        for flag in NUMERIC_FLAGS:
            if flag in flags:
                values, says = OUT_OF_RANGE[flag]
                yield from (([cmd, f"--{flag}", v], says) for v in values)
                yield from (([cmd, f"--{flag}", v], f"argument --{flag}") for v in ("x", ""))
        if "const" in flags:
            yield from (([cmd, "--const", c], says) for c, says in BAD_CONSTS.items())
        if "family" in flags:
            yield [cmd, "--family", "nope"], "unknown family 'nope'"
        if "support" in flags:
            width = ["--n", "16"] if "n" in flags else ["--n-list", "16"]
            yield from (([cmd, "--family", family, *width, "--support", "121"], says)
                        for family, says in OVERFULL.items())
        if "n-list" in flags:
            yield from (([cmd, *argv], says) for argv, says in BAD_N_LISTS)
        if "instance" in flags:
            yield from (([cmd, "--instance", path], says) for path, says in BAD_INSTANCES.items())
            yield from (([cmd, "--instance", path, "--trials", "3"], says[cmd])
                        for path, (_, says) in INSTANCE_FILES.items() if cmd in says)
    yield from ONE_OFF


def test_every_numeric_flag_has_a_range():
    assert sorted(OUT_OF_RANGE) == sorted(NUMERIC_FLAGS)


@pytest.mark.parametrize("argv, says", [pytest.param(argv, says, id=shlex.join(argv))
                                         for argv, says in _refusals()])
def test_cli_refuses_bad_value(argv, says, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "brace.json").write_text("{not json")
    for path, (doc, _) in INSTANCE_FILES.items():
        (tmp_path / path).write_text(json.dumps(doc))
    if "=" in argv[0]:  # NAME=value: the environment the command runs in
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    work = []
    for module, name in ((harness, "run_one_trial"), (harness, "monotone_dl_tester"),
                         (harness, "dist_mdl"), (cli, "run_bipartite_birthday"),
                         (cli, "run_hypergraph_birthday"), (cli, "_emit")):
        monkeypatch.setattr(module, name, lambda *args, _name=name: work.append(_name))
    out = tmp_path / "out"
    try:
        code = cli_main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse's refusal: its usage lines, then one error line
        code, captured = exc.code, capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        [line] = [line for line in captured.err.splitlines() if "error:" in line]
    else:
        line = _one_error_line(capsys)
    assert code == 2 and says in line, line
    assert work == [] and not out.exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, trials, cpus, workers", [(1000, 3, 8, 3), (1000, 6, 4, 4),
                                                          (2, 6, 4, 2), (5, 1, 4, None),
                                                          (5, 6, 1, None)])
def test_jobs_capped_by_trials_and_cpus(jobs, trials, cpus, workers, monkeypatch):
    import concurrent.futures
    _RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = RunConfig(tester="mdl", family="mdl-yes", n=16, eps=0.3, trials=trials, seed=3,
                    jobs=jobs)
    rows = run_trials(cfg).rows
    assert _RecordingPool.sizes == ([] if workers is None else [workers])
    strip = lambda rows: [(r["trial"], r["verdict"], r["queries"], r["samples"]) for r in rows]
    assert strip(rows) == strip(run_trials(dataclasses.replace(cfg, jobs=1)).rows)
