"""Command-line front-end for the testers, the collision lab and the exact
cross-checks."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import SeededRng
from .birthday import (CollisionExperiment, experiment_from_json, run_bipartite_birthday,
                       run_hypergraph_birthday)
from .harness import (EXIT_BUDGET, EXIT_OK, EXIT_TRIAL_ERROR, EXIT_USAGE, FAMILY_TESTER,
                      RunConfig, build_instance, oracle_check, report_csv, run_trials,
                      save_bundle, scaling_experiment, wilson_interval)
from .exact import MAX_DL_N
from .instances import gen_mdl_yes, gen_random_table


# test command -> (tester, default family)
TEST_COMMANDS = {"test-total": ("total", "total-yes"), "test-mdl": ("mdl", "mdl-yes"),
                 "test-dl": ("dl", "dl-yes")}


def _parse_consts(entries) -> dict:
    out = {}
    for item in entries or ():
        if "=" not in item:
            raise ValueError(f"--const expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name] = value  # the harness converts it to its field's type
    return out


def _default_seed(args) -> int:
    """--seed, else SUBLINTEST_SEED when set and not empty, else 1."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SUBLINTEST_SEED")
    return int(env) if env else 1


def _add_common(p):
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=1.0 / 6.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--family", type=str, default=None)
    p.add_argument("--instance", type=str, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--support", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--const", action="append", default=[],
                   help="override a tuning constant, e.g. --const c_sk=4")


def _make_cfg(tester: str, args, default_family: str) -> RunConfig:
    return RunConfig(tester=tester, family=args.family or default_family,
                     n=args.n, eps=args.eps, trials=args.trials,
                     seed=args.seed, delta=args.delta,
                     budget=args.budget, consts=_parse_consts(args.const),
                     instance_path=args.instance, support_size=args.support,
                     jobs=args.jobs)


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_tester(tester: str, args, default_family: str) -> int:
    try:
        cfg = _make_cfg(tester, args, default_family)
        cfg.validate()
        report = run_trials(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(report_csv(report), args.out)
    lo, hi = report.wilson()
    print(f"# accept_rate={report.accept_rate():.4f} wilson99=[{lo:.4f},{hi:.4f}] "
          f"overbudget={report.overbudget} errors={report.errors}", file=sys.stderr)
    if report.errors:
        return EXIT_TRIAL_ERROR
    return EXIT_BUDGET if report.overbudget else EXIT_OK


def _birthday_experiment(args) -> tuple[str, CollisionExperiment]:
    """(variant label, experiment): the --instance file, else the canned family."""
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as fh:
            return "file", experiment_from_json(json.load(fh))
    size = args.size
    if args.variant == "bipartite":
        left = {f"u{i}": 1.0 / (2 * size) for i in range(size)}
        right = {f"v{i}": 1.0 / (2 * size) for i in range(size)}
        edges = [(f"u{i}", f"v{j}") for i in range(size) for j in range(size)]
        return args.variant, CollisionExperiment(
            edges=edges, left=left, right=right, m=args.m or size, m_prime=args.m or size,
            trials=args.trials, epsilon=0.5, justification="uniform complete bipartite")
    k = 3 if args.variant == "hyper3" else 4
    groups = max(1, size // k)
    left = {f"w{i}": 1.0 / (groups * k) for i in range(groups * k)}
    edges = [tuple(f"w{g * k + j}" for j in range(k)) for g in range(groups)]
    eps = 1.0 / k  # one vertex per edge must be covered
    m = args.m or int(10 * k * k * (groups * k) ** ((k - 1) / k) / eps) + 1
    return args.variant, CollisionExperiment(edges=edges, left=left, m=m, trials=args.trials,
                                             epsilon=eps, justification="disjoint edges")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sublintest",
                                     description="distribution-free testers and their lab")
    sub = parser.add_subparsers(dest="cmd", required=True)

    for cmd in TEST_COMMANDS:
        _add_common(sub.add_parser(cmd))

    p = sub.add_parser("birthday")
    p.add_argument("--variant", choices=["bipartite", "hyper3", "hyper4"],
                   default="bipartite")
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--instance", type=str, default=None,
                   help="JSON experiment definition (overrides the canned family)")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("scaling")
    _add_common(p)
    p.add_argument("--n-list", type=str, default="1024,4096,16384")

    p = sub.add_parser("oracle-check")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--bundles", type=int, default=50)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("gen-instance")
    _add_common(p)

    args = parser.parse_args(argv)
    cmd = args.cmd
    try:
        args.seed = _default_seed(args)
    except ValueError:
        print(f"error: SUBLINTEST_SEED must be an integer, got {os.environ['SUBLINTEST_SEED']!r}",
              file=sys.stderr)
        return EXIT_USAGE

    if cmd in TEST_COMMANDS:
        tester, family = TEST_COMMANDS[cmd]
        return _run_tester(tester, args, family)

    if cmd == "birthday":
        try:
            variant, exp = _birthday_experiment(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        runner = run_bipartite_birthday if exp.right is not None else run_hypergraph_birthday
        rate = runner(exp, SeededRng(args.seed, 0xB1))
        lo, hi = wilson_interval(round(rate * exp.trials), exp.trials)
        _emit(json.dumps({"variant": variant, "rate": rate,
                          "wilson99": [lo, hi]}, indent=2) + "\n", args.out)
        return EXIT_OK

    if cmd == "scaling":
        try:
            family = args.family or "total-yes"
            if family not in FAMILY_TESTER:
                raise ValueError(f"unknown family {family!r}")
            cfg = _make_cfg(FAMILY_TESTER[family], args, family)
            n_list = [int(x) for x in args.n_list.split(",")]
            csv_text, summaries = scaling_experiment(cfg, n_list)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _emit(csv_text, args.out)
        for s in summaries:
            print(f"# n={s['n']} mean_queries={s['mean_queries']:.1f}", file=sys.stderr)
        return EXIT_OK

    if cmd == "oracle-check":
        # mdl-yes lists fill the zero-distance stratum and random truth
        # tables the far one, as in acceptance criterion 5
        tables = SeededRng(args.seed, 0x7AB1E)
        try:
            if not 3 <= args.n <= MAX_DL_N:
                raise ValueError(f"--n must lie in 3..{MAX_DL_N} for exact distances")
            bundles = [gen_mdl_yes(args.n, 3, SeededRng(args.seed, i)) for i in range(args.bundles)]
            bundles += [gen_random_table(args.n, tables.derive(i)) for i in range(args.bundles)]
            out = oracle_check(bundles, args.eps, args.trials, args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _emit(json.dumps(out, indent=2, default=str) + "\n", args.out)
        for name, rate in out["violations"]:
            stratum = out["strata"][name]
            lo, hi = stratum["wilson99"]
            if hi >= 2.0 / 3.0 - 0.05:
                print(f"# note: the {name} violation (rate {rate:.4f} over {stratum['trials']} "
                      f"trials) has wilson99=[{lo:.4f},{hi:.4f}], which still reaches "
                      f"2/3 - 0.05; more trials may clear it", file=sys.stderr)
        return EXIT_OK

    if cmd == "gen-instance":
        try:
            cfg = _make_cfg("mdl", args, args.family or "mdl-yes")
            bundle = build_instance(cfg)
            doc = save_bundle(bundle)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _emit(json.dumps(doc) + "\n", args.out)
        return EXIT_OK

    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
