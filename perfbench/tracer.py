"""Outside-in tracing of dqcsched entry points.

Each entry point is wrapped under the name its caller looks it up by (a
module attribute such as ``harness.build_network`` or ``ppo.masked_softmax``,
or a class attribute such as ``Mlp.forward``), so the program itself is
never edited. Spans nest on a stack: a span's self time is its duration
minus the time of the spans it encloses. Per span name the tracer keeps the
call count, the self time and, where a key function is given, the set of
distinct argument keys, all in memory until the run reads them.

An entry point that the program no longer has is recorded in ``absent`` and
reports no metrics; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import time

SCHEDULERS = ("fifo", "list", "resource", "epr", "epr-ns", "asap")


class _Stat:
    __slots__ = ("calls", "self_s", "split", "keys")

    def __init__(self, split: tuple[str, ...], keyed: bool):
        self.calls = 0
        self.self_s = 0.0
        self.split = dict.fromkeys(split, 0)
        self.keys = set() if keyed else None


def _select_nodes_key(tracer, free_nodes, k, network):
    return tracer.network_key(network), frozenset(free_nodes), k


def _execution_time_key(tracer, job, assigned_nodes, network, params):
    p = job.profile
    return (tracer.network_key(network), p.kind, p.n_qubits, p.reps,
            tuple(sorted(assigned_nodes)))


def _forward_split(args) -> str:
    x = args[1]
    return "calls_single" if getattr(x, "ndim", 2) == 1 or len(x) == 1 else "calls_batched"


# (module, attribute the caller looks up, span name, key function, call split)
ENTRY_POINTS = (
    ("dqcsched.cli", "main", "cli.main", None, None),
    ("dqcsched.harness", "load_config", "harness.load_config", None, None),
    ("dqcsched.harness", "run_experiment", "harness.run_experiment", None, None),
    ("dqcsched.harness", "write_slots_csv", "harness.write_slots_csv", None, None),
    ("dqcsched.harness", "write_summary_csv", "harness.write_summary_csv", None, None),
    ("dqcsched.harness", "read_slots_csv", "harness.read_slots_csv", None, None),
    ("dqcsched.harness", "summarize", "harness.summarize", None, None),
    ("dqcsched.harness", "cdf_export", "harness.cdf_export", None, None),
    ("dqcsched.harness", "write_cdf_csv", "harness.write_cdf_csv", None, None),
    ("dqcsched.harness", "build_network", "netmodel.build_network", None, None),
    ("dqcsched.cli", "build_network", "netmodel.build_network", None, None),
    ("dqcsched.harness", "build_catalog", "workload.build_catalog", None, None),
    ("dqcsched.workload", "generate_slot_jobs", "workload.generate_slot_jobs", None, None),
    ("dqcsched.metrics", "compute_report", "metrics.compute_report", None, None),
    ("dqcsched.schedulers", "select_nodes", "schedulers.select_nodes",
     _select_nodes_key, None),
    ("dqcsched.ppo", "select_nodes", "schedulers.select_nodes", _select_nodes_key, None),
    ("dqcsched.execmodel", "estimate_execution_time", "execmodel.estimate_execution_time",
     _execution_time_key, None),
    ("dqcsched.ppo", "PpoAgent.train", "ppo.train", None, None),
    ("dqcsched.ppo", "PpoAgent.schedule", "ppo.schedule", None, None),
    ("dqcsched.ppo", "PpoAgent.rollout", "ppo.rollout", None, None),
    ("dqcsched.ppo", "PpoAgent.select_stage", "ppo.select_stage", None, None),
    ("dqcsched.ppo", "PpoAgent.build_schedule", "ppo.build_schedule", None, None),
    ("dqcsched.ppo", "PpoAgent.episode_reward", "ppo.episode_reward", None, None),
    ("dqcsched.ppo", "compute_gae", "ppo.compute_gae", None, None),
    ("dqcsched.ppo", "ppo_update", "ppo.ppo_update", None, None),
    ("dqcsched.ppo", "policy_loss_parts", "ppo.policy_loss_parts", None, None),
    ("dqcsched.ppo", "masked_softmax", "nn.masked_softmax", None, None),
    ("dqcsched.nn", "Mlp.forward", "nn.Mlp.forward", None, _forward_split),
    ("dqcsched.nn", "Mlp.backward", "nn.Mlp.backward", None, None),
    ("dqcsched.nn", "Adam.step", "nn.Adam.step", None, None),
)


def _resolve(module: str, attribute: str):
    """(owner object, attribute name) of an entry point, or None if absent."""
    try:
        owner = importlib.import_module(module)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    return owner, name


class Tracer:
    """Install wrappers, collect per-span counts and self times, restore."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._networks: dict[int, tuple[object, object]] = {}

    def network_key(self, network):
        """Content key of a network: equal for networks built alike.

        The network object is held, so its id cannot be reused while the key
        is cached.
        """
        hit = self._networks.get(id(network))
        if hit is None:
            links = getattr(network, "links", None)
            if isinstance(links, dict):
                content = (network.n_nodes, network.qpu_capacity, tuple(
                    sorted((pair, lp.state_delay_ns) for pair, lp in links.items())))
            else:
                content = network
            hit = self._networks[id(network)] = (network, content)
        return hit[1]

    def _stat(self, name: str, split=None, keyed=False) -> _Stat:
        if name not in self.stats:
            labels = ("calls_single", "calls_batched") if split else ()
            self.stats[name] = _Stat(labels, keyed)
        return self.stats[name]

    def wrap(self, name: str, fn, key=None, split=None):
        stat = self._stat(name, split, key is not None)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                if split is not None:
                    stat.split[split(args)] += 1
                if key is not None:
                    # The key's cost is kept out of every span's self time.
                    key_start = clock()
                    stat.keys.add(key(self, *args, **kwargs))
                    elapsed += clock() - key_start
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every entry point that exists, with fresh counters; record
        the ones that do not exist."""
        self.stats = {}
        self.absent = []
        for module, attribute, name, key, split in ENTRY_POINTS:
            where = _resolve(module, attribute)
            if where is None:
                self.absent.append(f"{module}.{attribute}")
                continue
            owner, attr = where
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), key, split))
        where = _resolve("dqcsched.harness", "get_scheduler")
        if where is None:
            self.absent.append("dqcsched.harness.get_scheduler")
            return
        owner, attr = where
        lookup = getattr(owner, attr)
        for scheduler in SCHEDULERS:
            self._stat(f"schedulers.{scheduler}")

        def get_scheduler(name):
            return self.wrap(f"schedulers.{name}", lookup(name))

        self._patch(owner, attr, get_scheduler)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._networks.clear()

    def counts(self) -> dict[str, float]:
        """The deterministic part: call counts and distinct-key ratios."""
        out: dict[str, float] = {}
        for name, stat in sorted(self.stats.items()):
            if stat.split:
                for label, count in stat.split.items():
                    out[f"{name}.{label}"] = count
            else:
                out[f"{name}.calls"] = stat.calls
            if stat.keys is not None and stat.calls:
                out[f"{name}.distinct_ratio"] = len(stat.keys) / stat.calls
        return out

    def self_times(self) -> dict[str, float]:
        return {f"{name}.self_s": stat.self_s for name, stat in sorted(self.stats.items())}
