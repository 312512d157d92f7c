"""Analytic execution-time model for distributed jobs.

Replaces a full quantum-network simulation with a closed-form estimate:
local layers cost a fixed duration each, and every cross-partition gate
costs the state delay of the link carrying its entangled pair. Two
flavours exist: the node-aware actual duration (used once a job has been
placed) and the node-blind nominal estimate (what schedulers see before
placement, using the network-wide mean state delay).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .netmodel import Network

EPR_POLICIES = ("serial", "per-link-parallel")


@dataclass(frozen=True)
class ExecModelParams:
    """Knobs of the analytic model.

    ``local_gate_ns`` is the duration of one local circuit layer. Under the
    default ``serial`` policy every entanglement attempt of a job is
    serialized (one communication qubit per node); ``per-link-parallel``
    lets distinct links generate pairs concurrently, so only the busiest
    link counts. ``key``, every field as a plain tuple, keys a network's price
    tables without a call of the generated ``__hash__``; ``__init__`` derives it.
    """

    local_gate_ns: int = 1000
    epr_serialization: str = "serial"
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.local_gate_ns <= 0:
            raise ValueError(f"local_gate_ns must be > 0, got {self.local_gate_ns}")
        if self.epr_serialization not in EPR_POLICIES:
            raise ValueError(f"unknown EPR policy: {self.epr_serialization!r}")
        object.__setattr__(self, "key", (self.local_gate_ns, self.epr_serialization))


def estimate_execution_time(job, assigned_nodes, network: Network, params: ExecModelParams) -> int:
    """Actual duration (ns) of ``job`` on a concrete node assignment.

    Qubit blocks map to nodes in ascending node-id order: block ``i`` runs
    on the i-th smallest assigned node. Each cross-block gate consumes one
    entangled pair over the link joining its two blocks' nodes.
    """
    nodes = sorted(assigned_nodes)
    if len(nodes) != job.required_qpus:
        raise ValueError(
            f"job {job.id} requires {job.required_qpus} nodes, got {len(nodes)}"
        )
    local = job.profile.local_depth * params.local_gate_ns
    if not job.cross_block_pairs:
        return local
    delay = network.delay_ns
    if params.epr_serialization == "serial":
        epr = sum(delay[nodes[a]][nodes[b]] for a, b in job.cross_block_pairs)
    else:
        per_link: Counter = Counter()
        for a, b in job.cross_block_pairs:
            per_link[(nodes[a], nodes[b])] += 1
        epr = max(count * delay[u][v] for (u, v), count in per_link.items())
    return local + int(round(epr))


class PriceClass:
    """The prices of one class of jobs, equal in price key and demand, on one
    network under one set of params, which every call passes. A network keeps
    its classes in ``_price_tables[params.key][price_key, demand]``, so no
    price reaches another network or other params; a class holds no reference
    to its network, so the two form no cycle.
    ``row[first]`` holds the nodes and duration of the span ``first ..
    first + demand - 1``, and ``by_nodes`` the duration on any ascending
    node tuple. Both fill on first use, a span through ``by_nodes``, so each
    node tuple costs one exec-model call. A price reads only the params, the
    price key and the nodes, so the class's first job prices all of it."""

    __slots__ = ("job", "row", "by_nodes")

    def __init__(self, job, n_nodes: int):
        self.job = job
        self.row = [None] * (n_nodes - job.required_qpus + 1)
        self.by_nodes: dict[tuple[int, ...], int] = {}

    def price(self, nodes: tuple[int, ...], network: Network, params: ExecModelParams) -> int:
        duration = self.by_nodes.get(nodes)
        if duration is None:
            duration = self.by_nodes[nodes] = estimate_execution_time(
                self.job, nodes, network, params)
        return duration

    def span(self, first: int, network: Network, params: ExecModelParams
             ) -> tuple[tuple[int, ...], int]:
        """Fill ``row[first]`` and return it."""
        nodes = tuple(range(first, first + self.job.required_qpus))
        hit = self.row[first] = nodes, self.price(nodes, network, params)
        return hit


def estimate_execution_time_nominal(job, network: Network, params: ExecModelParams) -> int:
    """Node-blind duration estimate: every link delay replaced by the mean.

    This is the figure schedulers (and the RL state encoding) see before
    nodes are chosen; it does not depend on any particular assignment.
    """
    local = job.profile.local_depth * params.local_gate_ns
    if not job.cross_block_pairs:
        return local
    mean_delay = network.mean_state_delay_ns
    if params.epr_serialization == "serial":
        epr = len(job.cross_block_pairs) * mean_delay
    else:
        per_link: Counter = Counter()
        for pair in job.cross_block_pairs:
            per_link[pair] += 1
        epr = max(per_link.values()) * mean_delay
    return local + int(round(epr))
