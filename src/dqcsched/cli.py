"""Command-line interface for the benchmark harness.

Subcommands: ``run`` (simulate and write per-slot CSVs), ``summarize``,
``cdf``, ``train-ppo`` and ``init-config``. Exit codes: 0 on success,
2 on configuration errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from . import harness, ppo
from .configfile import ConfigError, first_repeat
from .netmodel import build_network


def _cmd_init_config(args) -> int:
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(harness.default_config_text())
    print(f"wrote default configuration to {args.out}")
    return 0


def _ppo_environment(config: harness.ExperimentConfig):
    network = build_network(config.n_nodes, config.qpu_capacity, config.quality_mix,
                            seed=config.ppo_seed)
    catalog = harness.build_catalog(config, network)
    return network, catalog


def _cmd_train_ppo(args) -> int:
    config = harness.load_config(args.config, variant=args.variant)
    updates = args.updates if args.updates is not None else config.ppo_updates
    network, catalog = _ppo_environment(config)
    agent = ppo.PpoAgent(
        ppo.PpoConfig(j_max=config.ppo_j_max, reward_variant=config.ppo_variant,
                      seed=config.ppo_seed),
        network, config.exec_params(), catalog,
    )
    log = agent.train(updates)
    ppo.save_weights(args.out, agent)
    log_path = args.log if args.log else args.out + ".log.csv"
    with open(log_path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("update", "mean_reward", "policy_loss", "value_loss", "entropy"))
        writer.writerows(map(dataclasses.astuple, log))
    print(f"trained {len(log)} updates; weights -> {args.out}, log -> {log_path}")
    return 0


def _cmd_run(args) -> int:
    config = harness.load_config(args.config, args.schedulers)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    agent = None
    if set(harness.PPO_SCHEDULER_NAMES) & set(config.schedulers):
        weights = args.weights or config.ppo_weights
        if not weights:
            raise ConfigError(f"{args.config}: ppo schedulers need a weights file "
                              "(--weights or [ppo] weights_file)")
        network, catalog = _ppo_environment(config)
        agent = ppo.load_agent(weights, network, config.exec_params(), catalog)
        for setting in config.settings:  # each has a fixed_count, checked at parse time
            if setting.fixed_count > agent.config.j_max:
                raise ConfigError(
                    f"{args.config}: setting {setting.label!r}: fixed_count "
                    f"{setting.fixed_count} exceeds the model's job capacity "
                    f"{agent.config.j_max}")
    table = harness.run_experiment(config, agent)
    os.makedirs(args.out, exist_ok=True)
    slots_path = os.path.join(args.out, harness.SLOTS_CSV)
    harness.write_slots_csv(table, slots_path)
    summary_path = os.path.join(args.out, "summary.csv")
    harness.write_summary_csv(harness.summarize(table), summary_path)
    print(f"wrote {len(table)} slot records -> {slots_path}")
    print(f"wrote summary -> {summary_path}")
    return 0


def _cmd_summarize(args) -> int:
    table = harness.read_slots_csv(os.path.join(args.indir, harness.SLOTS_CSV))
    rows = harness.summarize(table)
    out = args.out or os.path.join(args.indir, "summary.csv")
    harness.write_summary_csv(rows, out)
    print(f"wrote {len(rows)} summary rows -> {out}")
    return 0


def _cmd_cdf(args) -> int:
    table = harness.read_slots_csv(os.path.join(args.indir, harness.SLOTS_CSV))
    rows = harness.cdf_export(table, args.metric, setting=args.setting)
    out = args.out or os.path.join(args.indir, f"cdf_{args.metric}.csv")
    harness.write_cdf_csv(rows, out)
    print(f"wrote {len(rows)} CDF points -> {out}")
    return 0


def _scheduler_list(value: str) -> tuple[str, ...]:
    """``--schedulers``: a comma list of known names, under the config's
    repeated-item rule."""
    names = tuple(name.strip() for name in value.split(","))
    repeated = first_repeat(names)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"lists {repeated!r} more than once")
    for name in names:
        if name not in harness.KNOWN_SCHEDULERS:
            raise argparse.ArgumentTypeError(f"lists unknown scheduler {name!r}")
    return names


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an integer that is at least ``low`` and at most ``high``, if given."""
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = low - 1  # reported as below ``low``
        if number < low:
            raise argparse.ArgumentTypeError(f"expects an integer >= {low}, got {value!r}")
        if high is not None and number > high:
            raise argparse.ArgumentTypeError(f"expects an integer <= {high}, got {value!r}")
        return number
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqcsched",
        description="Distributed quantum computing job-scheduling benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the benchmark and write CSVs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--schedulers", type=_scheduler_list,
                       help="comma list overriding the config")
    p_run.add_argument("--seed", type=_int_at_least(0), help="run a single seed only")
    p_run.add_argument("--weights", help="ppo weights file")
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate a slots.csv")
    p_sum.add_argument("--in", dest="indir", required=True)
    p_sum.add_argument("--out")
    p_sum.set_defaults(func=_cmd_summarize)

    p_cdf = sub.add_parser("cdf", help="export an empirical CDF table")
    p_cdf.add_argument("--in", dest="indir", required=True)
    p_cdf.add_argument("--metric", required=True,
                       choices=list(harness.METRIC_FIELDS))
    p_cdf.add_argument("--setting")
    p_cdf.add_argument("--out")
    p_cdf.set_defaults(func=_cmd_cdf)

    p_train = sub.add_parser("train-ppo", help="train the RL scheduler")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True, help="weights file to write")
    p_train.add_argument("--updates", type=_int_at_least(1, harness.MAX_PPO_UPDATES))
    p_train.add_argument("--variant", choices=["plain", "node-selection"])
    p_train.add_argument("--log", help="training log CSV path")
    p_train.set_defaults(func=_cmd_train_ppo)

    p_init = sub.add_parser("init-config", help="write the default config file")
    p_init.add_argument("--out", required=True)
    p_init.set_defaults(func=_cmd_init_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
