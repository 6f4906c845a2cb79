"""Command-line front-end for the testers, the collision lab and the exact
cross-checks."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import SeededRng
from .birthday import (CollisionExperiment, experiment_from_json, run_bipartite_birthday,
                       run_hypergraph_birthday)
from .harness import (EXIT_BUDGET, EXIT_OK, EXIT_TRIAL_ERROR, EXIT_USAGE, RunConfig,
                      generate, lookup_family, oracle_check, report_csv, run_trials,
                      save_bundle, scaling_experiment, wilson_interval)
from .exact import MAX_DL_N
from .instances import gen_mdl_yes, gen_random_table


def _parse_consts(entries) -> dict:
    out = {}
    for item in entries or ():
        if "=" not in item:
            raise ValueError(f"--const expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name] = value  # the harness converts it to its field's type
    return out


def _default_seed(seed: int | None) -> int:
    """--seed, else SUBLINTEST_SEED when set and not empty, else 1."""
    if seed is not None:
        return seed
    env = os.environ.get("SUBLINTEST_SEED")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SUBLINTEST_SEED must be an integer, got {env!r}") from None


def _config(args, tester: str, n: int, instance: str | None = None) -> RunConfig:
    return RunConfig(tester=tester, family=args.family, n=n, eps=args.eps, trials=args.trials,
                     seed=args.seed, delta=args.delta, budget=args.budget,
                     consts=_parse_consts(args.const), instance_path=instance,
                     support_size=args.support, jobs=args.jobs)


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _test(tester: str, args) -> int:
    report = run_trials(_config(args, tester, args.n, args.instance))
    _emit(report_csv(report), args.out)
    lo, hi = report.wilson()
    print(f"# accept_rate={report.accept_rate():.4f} wilson99=[{lo:.4f},{hi:.4f}] "
          f"overbudget={report.overbudget} errors={report.errors}", file=sys.stderr)
    if report.errors:
        return EXIT_TRIAL_ERROR
    return EXIT_BUDGET if report.overbudget else EXIT_OK


def _scaling(args) -> int:
    tester = lookup_family(args.family)[0]
    n_list = [int(x) for x in args.n_list.split(",")]
    csv_text, summaries = scaling_experiment(_config(args, tester, n_list[0]), n_list)
    _emit(csv_text, args.out)
    for s in summaries:
        print(f"# n={s['n']} mean_queries={s['mean_queries']:.1f}", file=sys.stderr)
    return EXIT_OK


def _birthday(args) -> int:
    """The --instance experiment, else the canned family of --variant."""
    size, variant = args.size, args.variant
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as fh:
            variant, exp = "file", experiment_from_json(json.load(fh))
    elif variant == "bipartite":
        left = {f"u{i}": 1.0 / (2 * size) for i in range(size)}
        right = {f"v{i}": 1.0 / (2 * size) for i in range(size)}
        edges = [(f"u{i}", f"v{j}") for i in range(size) for j in range(size)]
        exp = CollisionExperiment(
            edges=edges, left=left, right=right, m=args.m or size, m_prime=args.m or size,
            trials=args.trials, epsilon=0.5, justification="uniform complete bipartite")
    else:
        k = 3 if variant == "hyper3" else 4
        groups = max(1, size // k)
        left = {f"w{i}": 1.0 / (groups * k) for i in range(groups * k)}
        edges = [tuple(f"w{g * k + j}" for j in range(k)) for g in range(groups)]
        eps = 1.0 / k  # one vertex per edge must be covered
        m = args.m or int(10 * k * k * (groups * k) ** ((k - 1) / k) / eps) + 1
        exp = CollisionExperiment(edges=edges, left=left, m=m, trials=args.trials,
                                  epsilon=eps, justification="disjoint edges")
    runner = run_bipartite_birthday if exp.right is not None else run_hypergraph_birthday
    rate = runner(exp, SeededRng(args.seed, 0xB1))
    lo, hi = wilson_interval(round(rate * exp.trials), exp.trials)
    _emit(json.dumps({"variant": variant, "rate": rate,
                      "wilson99": [lo, hi]}, indent=2) + "\n", args.out)
    return EXIT_OK


def _oracle_check(args) -> int:
    # mdl-yes lists fill the zero-distance stratum and random truth tables the
    # far one, as in acceptance criterion 5
    if not 3 <= args.n <= MAX_DL_N:
        raise ValueError(f"--n must lie in 3..{MAX_DL_N} for exact distances")
    tables = SeededRng(args.seed, 0x7AB1E)
    bundles = [gen_mdl_yes(args.n, 3, SeededRng(args.seed, i)) for i in range(args.bundles)]
    bundles += [gen_random_table(args.n, tables.derive(i)) for i in range(args.bundles)]
    out = oracle_check(bundles, args.eps, args.trials, args.seed)
    _emit(json.dumps(out, indent=2, default=str) + "\n", args.out)
    for name, rate in out["violations"]:
        stratum = out["strata"][name]
        lo, hi = stratum["wilson99"]
        if hi >= 2.0 / 3.0 - 0.05:
            print(f"# note: the {name} violation (rate {rate:.4f} over {stratum['trials']} "
                  f"trials) has wilson99=[{lo:.4f},{hi:.4f}], which still reaches "
                  f"2/3 - 0.05; more trials may clear it", file=sys.stderr)
    return EXIT_OK


def _gen_instance(args) -> int:
    bundle = generate(args.family, args.n, args.support, args.seed)
    _emit(json.dumps(save_bundle(bundle)) + "\n", args.out)
    return EXIT_OK


# every flag's argparse settings; a subcommand registers the ones it reads
FLAGS = {
    "n": dict(type=int, default=256),
    "eps": dict(type=float, default=0.1),
    "delta": dict(type=float, default=1.0 / 6.0),
    "trials": dict(type=int, default=1),
    "seed": dict(type=int, default=None),
    "family": dict(type=str),
    "instance": dict(type=str, default=None),
    "budget": dict(type=int, default=None),
    "support": dict(type=int, default=None),
    "out": dict(type=str, default=None),
    "jobs": dict(type=int, default=1),
    "const": dict(action="append", default=[],
                  help="override a tuning constant, e.g. --const c_sk=4"),
    "n-list": dict(type=str, default="1024,4096,16384"),
    "variant": dict(choices=["bipartite", "hyper3", "hyper4"], default="bipartite"),
    "size": dict(type=int, default=20),
    "m": dict(type=int, default=None),
    "bundles": dict(type=int, default=50),
}
RUN_FLAGS = "eps delta trials seed family budget support out jobs const"

# subcommand -> (its function, the flags it reads, the defaults it changes)
COMMANDS = {
    "test-total": (functools.partial(_test, "total"), "n instance " + RUN_FLAGS,
                   {"family": "total-yes"}),
    "test-mdl": (functools.partial(_test, "mdl"), "n instance " + RUN_FLAGS,
                 {"family": "mdl-yes"}),
    "test-dl": (functools.partial(_test, "dl"), "n instance " + RUN_FLAGS, {"family": "dl-yes"}),
    "scaling": (_scaling, "n-list " + RUN_FLAGS, {"family": "total-yes"}),
    "birthday": (_birthday, "variant size m trials seed instance out", {"trials": 1000}),
    "oracle-check": (_oracle_check, "n eps bundles trials seed out",
                     {"n": 4, "eps": 0.2, "trials": 400}),
    "gen-instance": (_gen_instance, "n seed family support out", {"family": "mdl-yes"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sublintest",
                                     description="distribution-free testers and their lab")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (run, flags, defaults) in COMMANDS.items():
        p = sub.add_parser(cmd, allow_abbrev=False)  # so --n is not read as --n-list
        for name in flags.split():
            p.add_argument(f"--{name}", **FLAGS[name])
        p.set_defaults(run=run, **defaults)
    args = parser.parse_args(argv)
    try:
        args.seed = _default_seed(args.seed)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
