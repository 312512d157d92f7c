"""Experiment harness: runs slot simulations across schedulers and seeds,
collects per-slot metrics, and emits summary and CDF tables as CSV.

Under one seed, every scheduler receives the identical job stream and the
same network, so per-slot comparisons are paired. All outputs are plain
CSV (comma separator, header row, LF endings, '.' decimals); plotting is
left to external tools.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import islice
from types import MappingProxyType, SimpleNamespace

import numpy as np

from . import metrics as metrics_mod
from . import workload
from .configfile import ConfigError, ParsedConfig, parse_config_file
from .execmodel import ExecModelParams
from .netmodel import Network, build_network, quality_probabilities
from .ppo import REWARD_VARIANTS
from .schedulers import (SCHEDULER_NAMES, Cell, _validate_queue, check_selection_size,
                         get_scheduler, job_table)

PPO_SCHEDULER_NAMES = ("ppo", "ppo-ns")
KNOWN_SCHEDULERS = SCHEDULER_NAMES + PPO_SCHEDULER_NAMES
SLOTS_CSV = "slots.csv"
MAX_SEED_COUNT = 10**6  # each seed is a whole network's run: a million is days of simulation
MAX_LOCAL_GATE_NS = 10**6  # 1 ms a layer keeps the int64 sums of metrics far from overflow
# The most jobs a slot may draw, bounding lambda, fixed_count and [ppo] j_max (each
# training episode draws j_max jobs): 125 times the shipped lambda = 8, and small
# enough that one train-ppo update at j_max = 1 000 peaks near 260 MB.
MAX_SLOT_JOBS = 1000
MAX_N_SLOTS = 10_000  # a run holds every slot's queue of a (setting, seed) at once
MAX_NODES = 256  # a network's link table is O(nodes²) and a run keeps one per seed
MAX_PPO_UPDATES = 10**5  # about an hour of training, and one training-log row an update


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


@dataclass(frozen=True)
class ExperimentConfig:
    n_nodes: int = 6
    qpu_capacity: int = 3
    quality_mix: MappingProxyType = field(  # read-only, as the frozen config around it
        default_factory=lambda: MappingProxyType({"bad": 0.2, "medium": 0.3, "good": 0.5})
    )
    local_gate_ns: int = 1000
    epr_serialization: str = "serial"
    n_slots: int = 200
    catalog_entries: tuple[tuple[str, int, int], ...] = tuple(  # (kind, n_qubits, reps)
        (kind, n, 1) for kind in workload.CIRCUIT_KINDS for n in workload.QUBIT_SIZES)
    settings: tuple[SettingSpec, ...] = ()
    schedulers: tuple[str, ...] = SCHEDULER_NAMES
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
        for name in self.schedulers:
            if name not in KNOWN_SCHEDULERS:
                raise ConfigError(f"unknown scheduler {name!r}")
        labels = [s.label for s in self.settings]
        if len(set(labels)) != len(labels):
            raise ConfigError("setting labels must be unique")


@dataclass(frozen=True)
class SlotTable:
    """Per-slot metrics, one tuple per column: row i is one (setting,
    scheduler, seed, slot), and the metric columns hold None for an empty
    slot. Columns given as other iterables are stored as tuples."""

    setting: tuple[str, ...] = ()
    scheduler: tuple[str, ...] = ()
    seed: tuple[int, ...] = ()
    slot: tuple[int, ...] = ()
    n_jobs: tuple[int, ...] = ()
    makespan_ns: tuple[int | None, ...] = ()
    qpu_utilization: tuple[float | None, ...] = ()
    nonlocal_gate_density: tuple[float | None, ...] = ()
    selp: tuple[float | None, ...] = ()
    fairness: tuple[float | None, ...] = ()

    def __post_init__(self) -> None:
        for name in _SLOT_COLUMNS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len({len(col) for col in self.columns()}) > 1:
            raise ValueError("SlotTable columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.setting)

    def columns(self) -> tuple[tuple, ...]:
        return tuple(getattr(self, name) for name in _SLOT_COLUMNS)


_SLOT_COLUMNS = tuple(f.name for f in fields(SlotTable))
METRIC_FIELDS = _SLOT_COLUMNS[_SLOT_COLUMNS.index("makespan_ns"):]


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
    return workload.sorted_catalog(config.catalog_entries, network, config.exec_params())


def run_experiment(config: ExperimentConfig, ppo_agent=None) -> SlotTable:
    """Run every (setting, seed, scheduler) cell and collect the slot table.

    Per seed one network and one catalog are built and shared by every
    setting and scheduler; per (setting, seed) the job stream is generated
    and checked once and fed to every scheduler, so comparisons are paired;
    ``ppo`` and ``ppo-ns`` share one lockstep rollout's (node-blind) picks.
    Each cell's non-empty queues form one job table, which each scheduler
    places in one call; all schedulers' placements reduce to metric columns
    in one pass, which the table takes as they are, None for an empty slot.
    """
    config.validate()
    exec_params = config.exec_params()
    use_ppo = bool(set(PPO_SCHEDULER_NAMES) & set(config.schedulers))
    if use_ppo and ppo_agent is None:
        raise ConfigError("the ppo schedulers require trained weights (train-ppo first)")
    classical = {name: get_scheduler(name) for name in config.schedulers
                 if name not in PPO_SCHEDULER_NAMES}
    environments = {}
    for seed in config.seeds:
        net = build_network(config.n_nodes, config.qpu_capacity,
                            config.quality_mix, seed=seed)
        environments[seed] = net, build_catalog(config, net)
    columns: dict[str, list] = {name: [] for name in _SLOT_COLUMNS}
    n_slots = config.n_slots
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
            queues = [workload.generate_slot_jobs(wcfg, rng) for _ in range(n_slots)]
            empty = [i for i, queue in enumerate(queues) if not queue]
            jobs = [queue for queue in queues if queue]
            for queue in jobs:
                _validate_queue(queue, net)
            table = job_table(jobs, net, exec_params)
            if use_ppo:  # the picked rows in pick order: queue by queue, one pick a row
                _, _, action, _, _, opened = ppo_agent._rollouts(jobs, net.n_nodes, None)
                picks = (table.counts.cumsum() - table.counts).repeat(table.counts) + action
            metric_lists = metrics_mod.metric_columns(Cell(*(  # every scheduler's cell, joined
                None if f in ("first", "nodes") else np.concatenate(parts)
                for f, parts in zip(Cell._fields, zip(*[  # ppo-ns: with node selection
                    classical[name](table, net, exec_params) if name in classical
                    else ppo_agent.build_schedule(table, picks, opened, table.counts,
                                                  name == "ppo-ns", net, exec_params)
                    for name in config.schedulers])))), config.n_nodes)
            for k, name in enumerate(config.schedulers):
                columns["setting"] += [setting.label] * n_slots
                columns["scheduler"] += [name] * n_slots
                columns["seed"] += [seed] * n_slots
                columns["slot"] += range(n_slots)
                columns["n_jobs"] += map(len, queues)
                for f, values in zip(METRIC_FIELDS, metric_lists):
                    values = values[k * len(jobs):(k + 1) * len(jobs)]
                    for i in empty:  # ascending, so each None lands at its slot
                        values.insert(i, None)
                    columns[f] += values
    return SlotTable(**columns)


# -- CSV I/O -----------------------------------------------------------------

_CHUNK_ROWS = 128  # 512-row chunks of reader rows raised sweep-wide's peak RSS by 1%
_ROW_FORMAT = ",".join(["{}"] * len(_SLOT_COLUMNS)) + "\n"


def _csv_labels(values) -> dict[str, str]:
    """Each distinct label as ``csv.writer`` renders it inside a row: ``writerow``
    returns what ``write`` does, here the line. A lone empty field is written
    as ``""``, so each label goes before an empty field that is cut off."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="")
    return {label: writer.writerow((label, ""))[:-1] for label in dict.fromkeys(values)}


def write_slots_csv(table: SlotTable, path: str) -> None:
    """Write ``table`` with exactly the bytes ``csv.writer`` gives: ``format(x,
    "")`` of a float is its ``repr``, so only None needs replacing, by ""."""
    labels = _csv_labels(table.setting + table.scheduler)
    cells = [map(labels.__getitem__, col) for col in (table.setting, table.scheduler)]
    cells += [table.seed, table.slot, table.n_jobs]
    cells += [["" if v is None else v for v in getattr(table, f)] for f in METRIC_FIELDS]
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(_SLOT_COLUMNS) + "\n")
        fh.writelines(map(_ROW_FORMAT.format, *cells))


def read_slots_csv(path: str) -> SlotTable:
    """Parse a ``slots.csv`` column by column, ``_CHUNK_ROWS`` rows at a time.

    Ints and floats come back exactly as written (``repr`` round-trips),
    empty metric cells as None, and repeated labels as one string. A wrong
    header, a row of the wrong width or an unparsable cell raises
    ValueError naming the file and line (for a cell, its chunk's lines).
    """
    columns: list[list] = [[] for _ in _SLOT_COLUMNS]
    labels: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != list(_SLOT_COLUMNS):
            raise ValueError(f"{path}:1: header {header} does not match the "
                             f"expected columns {','.join(_SLOT_COLUMNS)}")
        line = 1
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {len(columns)}:
                k = next(k for k, row in enumerate(chunk) if len(row) != len(columns))
                raise ValueError(f"{path}:{line + 1 + k}: expected {len(columns)} fields, "
                                 f"got {len(chunk[k])}")
            try:
                for name, col, values in zip(_SLOT_COLUMNS, columns, zip(*chunk)):
                    if name in ("setting", "scheduler"):
                        col += map(labels.setdefault, values, values)
                    elif name not in METRIC_FIELDS:
                        col += map(int, values)
                    else:
                        kind = int if name == "makespan_ns" else float
                        col += [kind(v) if v else None for v in values]
            except ValueError as exc:
                raise ValueError(f"{path}:{line + 1}-{line + len(chunk)}: {exc}") from None
            line += len(chunk)
    return SlotTable(*columns)


# -- aggregation -------------------------------------------------------------


def summarize(table: SlotTable) -> list[tuple]:
    """(setting, scheduler, mean of each metric) per group, empty slots excluded.

    Groups come in first-seen order; each mean is ``np.mean`` over the
    group's values in table order.
    """
    if not len(table):
        raise ValueError("summarize requires at least one record")
    groups: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(table.setting, table.scheduler)):
        groups.setdefault(key, []).append(i)
    metrics = table.columns()[-len(METRIC_FIELDS):]
    rows = []
    for (setting, scheduler), indices in groups.items():
        indices = [i for i in indices if table.makespan_ns[i] is not None]
        if indices:
            rows.append((setting, scheduler, *(
                float(np.mean([col[i] for i in indices])) for col in metrics)))
    return rows


def write_summary_csv(rows: list[tuple], path: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("setting", "scheduler") + METRIC_FIELDS)
        writer.writerows(rows)


def cdf_export(
    table: SlotTable, metric: str, setting: str | None = None
) -> list[tuple[str, float, float]]:
    """Per scheduler, sorted metric values with empirical cumulative k/n."""
    if metric not in METRIC_FIELDS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRIC_FIELDS}")
    if setting is not None and setting not in table.setting:
        raise ValueError(f"setting {setting!r} is not in the table; present: "
                         f"{', '.join(dict.fromkeys(table.setting))}")
    values: dict[str, list[float]] = defaultdict(list)  # keys in first-append order
    for label, name, value in zip(table.setting, table.scheduler, getattr(table, metric)):
        if value is not None and (setting is None or label == setting):
            values[name].append(float(value))
    rows: list[tuple[str, float, float]] = []
    for name, vals in values.items():
        vals.sort()
        n = len(vals)
        rows.extend((name, v, (k + 1) / n) for k, v in enumerate(vals))
    return rows


def write_cdf_csv(rows: list[tuple[str, float, float]], path: str) -> None:
    labels = _csv_labels(name for name, _, _ in rows)
    text = "".join([f"{labels[name]},{float(value)!r},{prob!r}\n"
                    for name, value, prob in rows])
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("scheduler,value,cum_prob\n" + text)


# -- config file binding -------------------------------------------------------


def _check(sec, key: str, check, *args) -> None:
    """Run a ``workload`` check on a config value; a ValueError it raises
    becomes a ConfigError that names ``key``'s file and line."""
    try:
        check(*args)
    except ValueError as exc:
        raise sec.error(key, f"is invalid: {exc}") from None


def _int_at_least(sec, key: str, default: int | None, low: int,
                  high: int | None = None) -> int | None:
    """``sec``'s integer ``key``, ``default`` if absent; a value below
    ``low`` or above ``high`` is a ConfigError that names the key's file and line."""
    value = sec.get_int(key, default)
    if value is not None and value < low:
        raise sec.error(key, f"must be >= {low}, got {value}")
    if value is not None and high is not None and value > high:
        raise sec.error(key, f"must be <= {high}, got {value}")
    return value


def _catalog_entries(wl, net, capacity: int, n_nodes: int) -> tuple[tuple[str, int, int], ...]:
    """The catalog's (kind, n_qubits, reps) entries: the ``catalog_file``'s
    job lines, read once, or every circuit family at each ``qubit_sizes``
    entry. One loop checks each entry's shape and QPU need; an error names
    the catalog file's path and line, or the key that set the entry."""
    path = wl.get_str("catalog_file")
    reps = wl.get_int("reps", 1)
    sizes = wl.get_list("qubit_sizes", list(workload.QUBIT_SIZES), int, "a list of integers")
    if path is None:
        _check(wl, "reps", workload.check_circuit_shape, workload.MIN_QUBITS, reps)
        lines = [(None, kind, size, reps) for kind in workload.CIRCUIT_KINDS for size in sizes]
    else:  # the catalog file sets the sizes and reps
        try:
            lines = workload.read_catalog_file(path)
        except OSError as exc:
            raise wl.error("catalog_file", f"cannot be read: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    for lineno, _, size, reps in lines:
        try:
            workload.check_circuit_shape(size, reps)
        except ValueError as exc:
            if lineno is None:
                raise wl.error("qubit_sizes", f"is invalid: {exc}") from None
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        need = workload.required_qpus(size, capacity)
        if need > n_nodes and lineno is not None:
            raise ConfigError(f"{path}:{lineno}: a {size}-qubit circuit needs {need} QPUs, "
                              f"but the network has {n_nodes} nodes")
        if need > n_nodes:  # blame the first key that set the sizes or the network
            sec, key = ((wl, "qubit_sizes") if "qubit_sizes" in wl.entries else
                        (net, "nodes" if "nodes" in net.entries else "qpu_capacity"))
            raise sec.error(key, f"makes a {size}-qubit circuit need {need} QPUs, "
                            f"but the network has {n_nodes} nodes")
    return tuple((kind, size, reps) for _, kind, size, reps in lines)


def config_from_parsed(parsed: ParsedConfig, schedulers=None, variant=None
                       ) -> ExperimentConfig:
    """The checked config of ``parsed``. ``schedulers`` and ``variant``, the
    CLI's overrides, replace the config's values, if given, before the checks."""
    base = ExperimentConfig()
    net = parsed.section("network")
    exc = parsed.optional_section("exec")
    wl = parsed.optional_section("workload")
    run = parsed.section("run")

    settings = []
    for sec in parsed.sections_with_prefix("setting"):
        label = sec.name[len("setting"):].strip()
        if label in [s.label for s in settings]:
            raise sec.header_error(f"repeats the setting label {label!r}")
        if not sec.name[len("setting"):][:1].isspace():
            raise sec.header_error("is not named [setting <label>]")
        lam = sec.get_float("lambda")
        if lam is not None and not 0.0 <= lam <= MAX_SLOT_JOBS:
            raise sec.error("lambda", f"must lie in [0, {MAX_SLOT_JOBS}], got {lam}")
        fixed = _int_at_least(sec, "fixed_count", None, 1, MAX_SLOT_JOBS)
        bias = sec.get_float("bias_alpha", 0.0)
        if not 0.0 <= bias <= 1.0:
            raise sec.error("bias_alpha", f"must lie in [0, 1], got {bias}")
        if (lam is None) == (fixed is None):
            raise sec.header_error("needs exactly one of lambda / fixed_count")
        settings.append(SettingSpec(label, lam=lam, fixed_count=fixed, bias_alpha=bias))
    if not settings:
        raise ConfigError(f"{parsed.source}: at least one [setting ...] is required")

    seeds = run.get_list("seeds", None, int, "a list of integers")
    if seeds is None:
        seeds = list(range(_int_at_least(run, "seed_count", len(base.seeds), 1, MAX_SEED_COUNT)))
    elif min(seeds) < 0:
        raise run.error("seeds", f"must be >= 0, got {min(seeds)}")

    ppo_sec = parsed.optional_section("ppo")
    listed_variant = ppo_sec.get_str("variant", base.ppo_variant)
    if listed_variant.replace("-", "_") not in REWARD_VARIANTS:
        raise ppo_sec.error("variant", f"must be plain or node-selection, "
                            f"got {listed_variant!r}")
    variant = (variant or listed_variant).replace("-", "_")  # REWARD_VARIANTS' spelling
    n_nodes = _int_at_least(net, "nodes", base.n_nodes, 2, MAX_NODES)
    capacity = net.get_int("qpu_capacity", base.qpu_capacity)
    _check(net, "qpu_capacity", workload.required_qpus, workload.MIN_QUBITS, capacity)
    quality_mix = MappingProxyType(net.get_mapping("quality_mix", base.quality_mix))
    _check(net, "quality_mix", quality_probabilities, quality_mix)
    catalog_entries = _catalog_entries(wl, net, capacity, n_nodes)
    demands = {workload.required_qpus(size, capacity) for _, size, _ in catalog_entries}
    listed = tuple(run.get_list("schedulers", list(base.schedulers)))
    for name in listed:
        if name not in KNOWN_SCHEDULERS:
            raise run.error("schedulers", f"lists unknown scheduler {name!r}")
    schedulers = tuple(schedulers) if schedulers else listed
    if {"epr-ns", "ppo-ns"} & set(schedulers) or variant == "node_selection":
        for k in sorted(demands):  # the whole network is free at each stage's start
            _check(net, "nodes", check_selection_size, n_nodes, k)
    if set(PPO_SCHEDULER_NAMES) & set(schedulers):  # the model input has j_max rows
        for sec in parsed.sections_with_prefix("setting"):
            if "fixed_count" not in sec.entries:
                raise sec.header_error("needs fixed_count for the ppo schedulers")
    local_gate_ns = _int_at_least(exc, "local_gate_ns", base.local_gate_ns, 1, MAX_LOCAL_GATE_NS)
    policy = exc.get_str("epr_serialization", base.epr_serialization)
    _check(exc, "epr_serialization", ExecModelParams, local_gate_ns, policy)
    config = ExperimentConfig(
        n_nodes=n_nodes,
        qpu_capacity=capacity,
        quality_mix=quality_mix,
        local_gate_ns=local_gate_ns,
        epr_serialization=policy,
        n_slots=_int_at_least(wl, "n_slots", base.n_slots, 1, MAX_N_SLOTS),
        catalog_entries=catalog_entries,
        settings=tuple(settings),
        schedulers=schedulers,
        seeds=tuple(seeds),
        ppo_updates=_int_at_least(ppo_sec, "updates", base.ppo_updates, 1, MAX_PPO_UPDATES),
        ppo_variant=variant,
        ppo_j_max=_int_at_least(ppo_sec, "j_max", base.ppo_j_max, 1, MAX_SLOT_JOBS),
        ppo_seed=_int_at_least(ppo_sec, "seed", base.ppo_seed, 0),
        ppo_weights=ppo_sec.get_str("weights_file"),
    )
    parsed.reject_unread()
    return config


def load_config(path: str, schedulers=None, variant=None) -> ExperimentConfig:
    return config_from_parsed(parse_config_file(path), schedulers, variant)


def default_config_text() -> str:
    """The shipped desk-scale benchmark configuration."""
    cfg = default_benchmark_config()
    mix = ", ".join(f"{k}:{v}" for k, v in cfg.quality_mix.items())
    settings = "".join(
        f"[setting {s.label}]\n"
        + (f"lambda = {s.lam:g}\n" if s.lam is not None else f"fixed_count = {s.fixed_count}\n")
        + f"bias_alpha = {s.bias_alpha:g}\n\n"
        for s in cfg.settings
    )
    return f"""# Desk-scale benchmark configuration.

[network]
nodes = {cfg.n_nodes}
qpu_capacity = {cfg.qpu_capacity}
quality_mix = {mix}

[exec]
local_gate_ns = {cfg.local_gate_ns}
epr_serialization = {cfg.epr_serialization}

[workload]
n_slots = {cfg.n_slots}
qubit_sizes = {", ".join(map(str, workload.QUBIT_SIZES))}
reps = 1

{settings}[run]
schedulers = {", ".join(cfg.schedulers)}
seed_count = {len(cfg.seeds)}

[ppo]
updates = {cfg.ppo_updates}
variant = {cfg.ppo_variant}
j_max = {cfg.ppo_j_max}
seed = {cfg.ppo_seed}
"""
