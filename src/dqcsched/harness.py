"""Experiment harness: runs slot simulations across schedulers and seeds,
collects per-slot metrics, and emits summary and CDF tables as CSV.

Under one seed, every scheduler receives the identical job stream and the
same network, so per-slot comparisons are paired. All outputs are plain
CSV (comma separator, header row, LF endings, '.' decimals); plotting is
left to external tools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import workload
from .configfile import ConfigError, ParsedConfig, parse_config_file
from .execmodel import ExecModelParams
from .netmodel import Network, build_network
from .schedulers import SCHEDULER_NAMES, get_scheduler

PPO_SCHEDULER_NAMES = ("ppo", "ppo-ns")
METRIC_FIELDS = (
    "makespan_ns",
    "qpu_utilization",
    "nonlocal_gate_density",
    "selp",
    "fairness",
)

SLOTS_CSV = "slots.csv"


@dataclass(frozen=True)
class SettingSpec:
    """One workload setting: arrival intensity and selection bias."""

    label: str
    lam: float | None = None
    fixed_count: int | None = None
    bias_alpha: float = 0.0

    def __post_init__(self) -> None:
        if (self.lam is None) == (self.fixed_count is None):
            raise ConfigError(
                f"setting {self.label!r} needs exactly one of lambda / fixed_count"
            )


@dataclass
class ExperimentConfig:
    n_nodes: int = 6
    qpu_capacity: int = 3
    quality_mix: dict[str, float] = field(
        default_factory=lambda: {"bad": 0.2, "medium": 0.3, "good": 0.5}
    )
    local_gate_ns: int = 1000
    epr_serialization: str = "serial"
    n_slots: int = 200
    qubit_sizes: tuple[int, ...] = (5, 10, 15)
    reps: int = 1
    catalog_file: str | None = None
    settings: tuple[SettingSpec, ...] = ()
    schedulers: tuple[str, ...] = ("fifo", "list", "resource", "epr", "epr-ns", "asap")
    seeds: tuple[int, ...] = tuple(range(30))
    ppo_updates: int = 200
    ppo_variant: str = "plain"
    ppo_j_max: int = 5
    ppo_seed: int = 0
    ppo_weights: str | None = None

    def exec_params(self) -> ExecModelParams:
        return ExecModelParams(
            local_gate_ns=self.local_gate_ns,
            epr_serialization=self.epr_serialization,
        )

    def validate(self) -> None:
        if not self.settings:
            raise ConfigError("at least one [setting ...] is required")
        if not self.schedulers:
            raise ConfigError("at least one scheduler is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.n_slots < 1:
            raise ConfigError("n_slots must be >= 1")
        known = set(SCHEDULER_NAMES) | set(PPO_SCHEDULER_NAMES)
        for name in self.schedulers:
            if name not in known:
                raise ConfigError(f"unknown scheduler {name!r}")
        labels = [s.label for s in self.settings]
        if len(set(labels)) != len(labels):
            raise ConfigError("setting labels must be unique")


@dataclass(frozen=True)
class SlotRecord:
    """Metrics of one (setting, scheduler, seed, slot); None for empty slots."""

    setting: str
    scheduler: str
    seed: int
    slot: int
    n_jobs: int
    makespan_ns: int | None = None
    qpu_utilization: float | None = None
    nonlocal_gate_density: float | None = None
    selp: float | None = None
    fairness: float | None = None


def default_benchmark_config() -> ExperimentConfig:
    """Desk-scale benchmark: 6 nodes, four load/bias settings, 30 seeds."""
    return ExperimentConfig(
        settings=(
            SettingSpec("lam5", lam=5.0, bias_alpha=0.0),
            SettingSpec("lam5_bias", lam=5.0, bias_alpha=0.5),
            SettingSpec("lam8", lam=8.0, bias_alpha=0.0),
            SettingSpec("lam8_bias", lam=8.0, bias_alpha=0.5),
        ),
    )


def _workload_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))


def build_catalog(config: ExperimentConfig, network: Network):
    if config.catalog_file is not None:
        return workload.catalog_from_file(
            config.catalog_file, network, config.exec_params()
        )
    return workload.default_catalog(
        network, config.exec_params(), qubit_sizes=config.qubit_sizes, reps=config.reps
    )


def _resolve_scheduler(name: str, config: ExperimentConfig, ppo_agents):
    if name in PPO_SCHEDULER_NAMES:
        if not ppo_agents or name not in ppo_agents:
            raise ConfigError(
                f"scheduler {name!r} requires trained weights (train-ppo first)"
            )
        agent = ppo_agents[name]
        node_selection = name == "ppo-ns"
        return lambda queue, net, params: agent.schedule(
            queue, node_selection=node_selection, network=net, exec_params=params
        )
    return get_scheduler(name)


def run_experiment(config: ExperimentConfig, ppo_agents=None) -> list[SlotRecord]:
    """Run every (setting, seed, scheduler) cell and collect slot records.

    Per seed one network and one catalog are built and shared by every
    setting and scheduler; per (setting, seed) the job stream is generated
    once and fed to every scheduler, so comparisons are paired. Each cell's
    non-empty schedules are reduced to metrics in one pass.
    """
    config.validate()
    exec_params = config.exec_params()
    run_fns = {name: _resolve_scheduler(name, config, ppo_agents)
               for name in config.schedulers}
    environments = {}
    for seed in config.seeds:
        net = build_network(config.n_nodes, config.qpu_capacity,
                            config.quality_mix, seed=seed)
        environments[seed] = net, build_catalog(config, net)
    records: list[SlotRecord] = []
    for setting in config.settings:
        for seed in config.seeds:
            net, catalog = environments[seed]
            wcfg = workload.WorkloadConfig(
                catalog=catalog,
                lam=setting.lam if setting.lam is not None else 0.0,
                bias_alpha=setting.bias_alpha,
                fixed_count=setting.fixed_count,
            )
            rng = _workload_rng(seed)
            queues = [workload.generate_slot_jobs(wcfg, rng)
                      for _ in range(config.n_slots)]
            for name, run_fn in run_fns.items():
                reports = iter(metrics_mod.compute_reports(
                    [run_fn(queue, net, exec_params) for queue in queues if queue],
                    config.n_nodes,
                ))
                for slot, queue in enumerate(queues):
                    if not queue:
                        records.append(SlotRecord(
                            setting=setting.label, scheduler=name,
                            seed=seed, slot=slot, n_jobs=0,
                        ))
                        continue
                    report = next(reports)
                    records.append(SlotRecord(
                        setting=setting.label, scheduler=name,
                        seed=seed, slot=slot, n_jobs=len(queue),
                        makespan_ns=report.makespan_ns,
                        qpu_utilization=report.qpu_utilization,
                        nonlocal_gate_density=report.nonlocal_gate_density,
                        selp=report.selp,
                        fairness=report.fairness,
                    ))
    return records


# -- CSV I/O -----------------------------------------------------------------

_SLOT_COLUMNS = ("setting", "scheduler", "seed", "slot", "n_jobs") + METRIC_FIELDS


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_slots_csv(records: list[SlotRecord], path: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SLOT_COLUMNS)
        for r in records:
            writer.writerow([_format_cell(getattr(r, col)) for col in _SLOT_COLUMNS])


def read_slots_csv(path: str) -> list[SlotRecord]:
    records: list[SlotRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            empty = row["makespan_ns"] == ""
            records.append(SlotRecord(
                setting=row["setting"],
                scheduler=row["scheduler"],
                seed=int(row["seed"]),
                slot=int(row["slot"]),
                n_jobs=int(row["n_jobs"]),
                makespan_ns=None if empty else int(row["makespan_ns"]),
                qpu_utilization=None if empty else float(row["qpu_utilization"]),
                nonlocal_gate_density=None if empty else float(row["nonlocal_gate_density"]),
                selp=None if empty else float(row["selp"]),
                fairness=None if empty else float(row["fairness"]),
            ))
    return records


# -- aggregation -------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRow:
    setting: str
    scheduler: str
    makespan_ns: float
    qpu_utilization: float
    nonlocal_gate_density: float
    selp: float
    fairness: float


def summarize(records: list[SlotRecord]) -> list[SummaryRow]:
    """Mean of each metric per (setting, scheduler), empty slots excluded."""
    if not records:
        raise ValueError("summarize requires at least one record")
    order: list[tuple[str, str]] = []
    groups: dict[tuple[str, str], list[SlotRecord]] = {}
    for r in records:
        key = (r.setting, r.scheduler)
        if key not in groups:
            groups[key] = []
            order.append(key)
        if r.makespan_ns is not None:
            groups[key].append(r)
    rows = []
    for key in order:
        grp = groups[key]
        if not grp:
            continue
        rows.append(SummaryRow(
            setting=key[0],
            scheduler=key[1],
            **{
                f: float(np.mean([getattr(r, f) for r in grp]))
                for f in METRIC_FIELDS
            },
        ))
    return rows


def write_summary_csv(rows: list[SummaryRow], path: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("setting", "scheduler") + METRIC_FIELDS)
        for row in rows:
            writer.writerow(
                [row.setting, row.scheduler]
                + [_format_cell(getattr(row, f)) for f in METRIC_FIELDS]
            )


def cdf_export(
    records: list[SlotRecord], metric: str, setting: str | None = None
) -> list[tuple[str, float, float]]:
    """Per scheduler, sorted metric values with empirical cumulative k/n."""
    if metric not in METRIC_FIELDS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRIC_FIELDS}")
    order: list[str] = []
    values: dict[str, list[float]] = {}
    for r in records:
        if setting is not None and r.setting != setting:
            continue
        if getattr(r, metric) is None:
            continue
        if r.scheduler not in values:
            values[r.scheduler] = []
            order.append(r.scheduler)
        values[r.scheduler].append(float(getattr(r, metric)))
    rows: list[tuple[str, float, float]] = []
    for name in order:
        vals = sorted(values[name])
        n = len(vals)
        rows.extend((name, v, (k + 1) / n) for k, v in enumerate(vals))
    return rows


def write_cdf_csv(rows: list[tuple[str, float, float]], path: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("scheduler", "value", "cum_prob"))
        for name, value, prob in rows:
            writer.writerow([name, _format_cell(float(value)), _format_cell(prob)])


def metric_values(records: list[SlotRecord], setting: str, scheduler: str,
                  metric: str) -> np.ndarray:
    """Non-empty per-slot values of one cell, ordered by (seed, slot)."""
    selected = [
        r for r in records
        if r.setting == setting and r.scheduler == scheduler
        and getattr(r, metric) is not None
    ]
    selected.sort(key=lambda r: (r.seed, r.slot))
    return np.array([getattr(r, metric) for r in selected], dtype=float)


def bootstrap_mean_diff_ci(
    a: np.ndarray,
    b: np.ndarray,
    n_boot: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap CI of mean(a) - mean(b) over paired samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("bootstrap requires equal-length non-empty samples")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = a.size
    idx = rng.integers(0, n, size=(n_boot, n))
    diffs = a[idx].mean(axis=1) - b[idx].mean(axis=1)
    lo = float(np.quantile(diffs, (1.0 - confidence) / 2.0))
    hi = float(np.quantile(diffs, 1.0 - (1.0 - confidence) / 2.0))
    return lo, hi


# -- config file binding -------------------------------------------------------


def config_from_parsed(parsed: ParsedConfig) -> ExperimentConfig:
    base = ExperimentConfig()
    net = parsed.section("network")
    exc = parsed.optional_section("exec")
    wl = parsed.optional_section("workload")
    run = parsed.section("run")

    settings = []
    for sec in parsed.sections_with_prefix("setting"):
        label = sec.name[len("setting"):].strip() or sec.name
        lam = sec.get_float("lambda")
        fixed = sec.get_int("fixed_count")
        bias = sec.get_float("bias_alpha", 0.0)
        if not 0.0 <= bias <= 1.0:
            raise ConfigError(
                f"{sec.source}: setting {label!r}: bias_alpha must lie in [0, 1]"
            )
        settings.append(SettingSpec(label, lam=lam, fixed_count=fixed, bias_alpha=bias))

    seeds = run.get_int_list("seeds")
    if seeds is None:
        count = run.get_int("seed_count", 30)
        if count < 1:
            raise ConfigError(f"{run.source}: seed_count must be >= 1")
        seeds = list(range(count))

    ppo_sec = parsed.optional_section("ppo")
    config = ExperimentConfig(
        n_nodes=net.get_int("nodes", base.n_nodes),
        qpu_capacity=net.get_int("qpu_capacity", base.qpu_capacity),
        quality_mix=net.get_mapping("quality_mix", base.quality_mix),
        local_gate_ns=(exc.get_int("local_gate_ns", base.local_gate_ns)
                       if exc else base.local_gate_ns),
        epr_serialization=(exc.get_str("epr_serialization", base.epr_serialization)
                           if exc else base.epr_serialization),
        n_slots=wl.get_int("n_slots", base.n_slots) if wl else base.n_slots,
        qubit_sizes=tuple(wl.get_int_list("qubit_sizes", list(base.qubit_sizes)))
        if wl else base.qubit_sizes,
        reps=wl.get_int("reps", base.reps) if wl else base.reps,
        catalog_file=wl.get_str("catalog_file", None) if wl and wl.has("catalog_file") else None,
        settings=tuple(settings),
        schedulers=tuple(run.get_list("schedulers", list(base.schedulers))),
        seeds=tuple(seeds),
        ppo_updates=ppo_sec.get_int("updates", base.ppo_updates) if ppo_sec else base.ppo_updates,
        ppo_variant=ppo_sec.get_str("variant", base.ppo_variant) if ppo_sec else base.ppo_variant,
        ppo_j_max=ppo_sec.get_int("j_max", base.ppo_j_max) if ppo_sec else base.ppo_j_max,
        ppo_seed=ppo_sec.get_int("seed", base.ppo_seed) if ppo_sec else base.ppo_seed,
        ppo_weights=ppo_sec.get_str("weights_file", None)
        if ppo_sec and ppo_sec.has("weights_file") else None,
    )
    try:
        config.exec_params()
        _ = build_network(config.n_nodes, config.qpu_capacity, config.quality_mix, seed=0)
    except ValueError as exc_err:
        raise ConfigError(f"{parsed.source}: {exc_err}") from None
    parsed.reject_unread()
    config.validate()
    return config


def load_config(path: str) -> ExperimentConfig:
    return config_from_parsed(parse_config_file(path))


def default_config_text() -> str:
    """The shipped desk-scale benchmark configuration."""
    cfg = default_benchmark_config()
    mix = ", ".join(f"{k}:{v}" for k, v in cfg.quality_mix.items())
    lines = [
        "# Desk-scale benchmark configuration.",
        "",
        "[network]",
        f"nodes = {cfg.n_nodes}",
        f"qpu_capacity = {cfg.qpu_capacity}",
        f"quality_mix = {mix}",
        "",
        "[exec]",
        f"local_gate_ns = {cfg.local_gate_ns}",
        f"epr_serialization = {cfg.epr_serialization}",
        "",
        "[workload]",
        f"n_slots = {cfg.n_slots}",
        "qubit_sizes = " + ", ".join(str(q) for q in cfg.qubit_sizes),
        f"reps = {cfg.reps}",
        "",
    ]
    for s in cfg.settings:
        lines.append(f"[setting {s.label}]")
        if s.lam is not None:
            lines.append(f"lambda = {s.lam:g}")
        else:
            lines.append(f"fixed_count = {s.fixed_count}")
        lines.append(f"bias_alpha = {s.bias_alpha:g}")
        lines.append("")
    lines += [
        "[run]",
        "schedulers = " + ", ".join(cfg.schedulers),
        f"seed_count = {len(cfg.seeds)}",
        "",
        "[ppo]",
        f"updates = {cfg.ppo_updates}",
        f"variant = {cfg.ppo_variant}",
        f"j_max = {cfg.ppo_j_max}",
        f"seed = {cfg.ppo_seed}",
        "",
    ]
    return "\n".join(lines)
