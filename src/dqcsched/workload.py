"""Job generation: circuit gate-count profiles, partitioning, slot arrivals.

Only gate counts and structure matter here; no quantum state is ever
simulated. A circuit profile materializes the ordered gate list of one of
five circuit families, a partitioner maps it onto contiguous qubit blocks
(one block per QPU) and counts the gates that straddle blocks, and the
slot generator draws Poisson-sized batches from a fixed catalog with an
optional bias toward jobs late in the catalog.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import index

import numpy as np

from . import execmodel
from .execmodel import ExecModelParams
from .netmodel import Network

CIRCUIT_KINDS = ("GHZ", "GraphState", "QAOA", "QFT", "VQE")
QUBIT_SIZES = (5, 10, 15)  # the default catalog: every circuit family at each size

MIN_QUBITS = 2
MAX_QUBITS = 64
MAX_REPS = 64  # a circuit's gate list grows with reps; each entry's is built once per process


@dataclass(frozen=True)
class CircuitProfile:
    """Gate-count profile of one circuit: what scheduling needs, nothing more.

    ``two_qubit_gates`` is the ordered list of qubit pairs touched by
    two-qubit gates; ``local_depth`` is the circuit depth counting
    single-qubit layers as well.
    """

    kind: str
    n_qubits: int
    reps: int
    two_qubit_gates: tuple[tuple[int, int], ...]
    local_depth: int


FIVE_QUBIT_GRAPH = ((0, 1), (1, 2), (2, 3), (0, 4))  # the fixed experimental graph


def _ring_edges(n: int) -> list[tuple[int, int]]:
    """The path 0..n-1 closed by (0, n-1); two qubits share one edge."""
    if n == 2:
        return [(0, 1)]
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _depth_of(ops: list[tuple]) -> int:
    # Per-qubit layer counters; a gate lands one layer after its operands' last.
    layers: dict[int, int] = {}
    for op in ops:
        if len(op) == 1:
            (q,) = op
            layers[q] = layers.get(q, 0) + 1
        else:
            a, b = op
            d = max(layers.get(a, 0), layers.get(b, 0)) + 1
            layers[a] = d
            layers[b] = d
    return max(layers.values(), default=0)


def check_circuit_shape(n_qubits: int, reps: int) -> None:
    """Raise ValueError unless a circuit of ``n_qubits`` and ``reps`` can be built."""
    if not MIN_QUBITS <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [{MIN_QUBITS}, {MAX_QUBITS}], got {n_qubits}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if reps > MAX_REPS:
        raise ValueError(f"reps must be <= {MAX_REPS}, got {reps}")


def build_circuit_profile(kind: str, n_qubits: int, reps: int = 1) -> CircuitProfile:
    """Materialize the ordered gate list of one circuit family.

    GHZ: Hadamard on qubit 0, then a CNOT from qubit 0 to every other qubit.
    GraphState: Hadamard everywhere, one CZ per edge of ``FIVE_QUBIT_GRAPH``
    on five qubits, of the closed ring on other sizes.
    QAOA: Hadamard everywhere, then per repetition a CNOT-Rz-CNOT block per
    MaxCut ring edge plus one mixer rotation per qubit.
    QFT: per qubit a Hadamard followed by controlled rotations onto every
    later qubit.
    VQE: per repetition two parameterized rotations per qubit followed by a
    nearest-neighbour CNOT chain.
    """
    if kind not in CIRCUIT_KINDS:
        raise ValueError(f"unknown circuit kind: {kind!r}")
    check_circuit_shape(n_qubits, reps)

    n = n_qubits
    ops: list[tuple] = []
    if kind == "GHZ":
        ops.append((0,))
        for q in range(1, n):
            ops.append((0, q))
    elif kind == "GraphState":
        ops.extend((q,) for q in range(n))
        ops.extend(FIVE_QUBIT_GRAPH if n == 5 else _ring_edges(n))
    elif kind == "QAOA":
        ops.extend((q,) for q in range(n))
        for _ in range(reps):
            for i, j in _ring_edges(n):
                ops.append((i, j))
                ops.append((j,))
                ops.append((i, j))
            ops.extend((q,) for q in range(n))
    elif kind == "QFT":
        for i in range(n):
            ops.append((i,))
            for j in range(i + 1, n):
                ops.append((i, j))
    else:  # VQE
        for _ in range(reps):
            for q in range(n):
                ops.append((q,))
                ops.append((q,))
            for q in range(n - 1):
                ops.append((q, q + 1))

    two_qubit = tuple(op for op in ops if len(op) == 2)
    return CircuitProfile(
        kind=kind,
        n_qubits=n,
        reps=reps if kind in ("QAOA", "VQE") else 1,
        two_qubit_gates=two_qubit,
        local_depth=_depth_of(ops),
    )


@dataclass(frozen=True)
class JobDescriptor:
    """One schedulable job: resource needs plus the scheduler-visible estimate.

    ``cross_block_pairs`` lists, per cross-partition gate, the indices of the
    two qubit blocks it connects; the execution model maps these onto the
    links of an actual node assignment. ``price_key``, derived on every
    ``__init__``, is the ``repr`` of all a price reads besides the nodes,
    (``profile.local_depth``, ``cross_block_pairs``): a hash-caching string.
    """

    id: int
    required_qpus: int
    nonlocal_gates: int
    est_exec_ns: int
    profile: CircuitProfile
    cross_block_pairs: tuple[tuple[int, int], ...] = ()
    price_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "price_key", repr(
            (self.profile.local_depth, self.cross_block_pairs)))


def required_qpus(n_qubits: int, qpu_capacity: int) -> int:
    """The QPUs a circuit of ``n_qubits`` needs: one per block of ``qpu_capacity``."""
    if qpu_capacity < 2:
        raise ValueError(f"qpu_capacity must be >= 2, got {qpu_capacity}")
    return math.ceil(n_qubits / qpu_capacity)


def _cut(profile: CircuitProfile, qpu_capacity: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The QPUs ``profile`` needs in blocks of ``qpu_capacity``, and its cross-block pairs."""
    required = required_qpus(profile.n_qubits, qpu_capacity)
    return required, tuple(
        (min(a // qpu_capacity, b // qpu_capacity), max(a // qpu_capacity, b // qpu_capacity))
        for a, b in profile.two_qubit_gates
        if a // qpu_capacity != b // qpu_capacity
    )


def partition_job(
    profile: CircuitProfile,
    qpu_capacity: int,
    network: Network,
    exec_params: ExecModelParams,
) -> JobDescriptor:
    """Cut a circuit into contiguous qubit blocks of ``qpu_capacity``.

    Block ``i`` holds qubits [i*capacity, (i+1)*capacity). Every two-qubit
    gate whose endpoints land in different blocks becomes a non-local gate
    consuming one entangled pair, so ``nonlocal_gates`` is also the job's
    entangled-pair demand. The nominal execution estimate is
    attached so schedulers can rank the job before placement. The id is -1.
    """
    required, cross = _cut(profile, qpu_capacity)
    est = execmodel.nominal_execution_time(profile.local_depth, cross, network, exec_params)
    return JobDescriptor(-1, required, len(cross), est, profile, cross)


@dataclass(frozen=True)
class WorkloadConfig:
    """Arrival process and job-mix settings for one simulation setting.

    ``catalog`` must be ordered ascending by non-local gate count; with
    ``bias_alpha`` > 0, selection weights grow with catalog position so
    heavier jobs become more likely. ``fixed_count`` overrides the Poisson
    draw with a constant batch size (used for the RL comparison).
    ``cumulative`` is the read-only normalised running sum of the catalog
    selection weights, which ``Generator.choice`` draws on.
    """

    catalog: tuple[JobDescriptor, ...]
    lam: float = 5.0
    bias_alpha: float = 0.0
    fixed_count: int | None = None
    cumulative: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.catalog:
            raise ValueError("catalog must not be empty")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        gates = [j.nonlocal_gates for j in self.catalog]
        if any(a > b for a, b in zip(gates, gates[1:])):
            raise ValueError("catalog must be ordered ascending by nonlocal_gates")
        probs = selection_probabilities(len(self.catalog), self.bias_alpha)
        cumulative = probs.cumsum()
        cumulative /= cumulative[-1]
        cumulative.flags.writeable = False
        object.__setattr__(self, "cumulative", cumulative)


def read_catalog_file(path: str) -> list[tuple[int, str, int, int]]:
    """(line number, kind, n_qubits, reps) per job line of a catalog file,
    one ``kind n_qubits reps`` triple per line, no circuit built.

    Commas and whitespace both separate fields; ``#`` starts a comment. A
    malformed line or an unknown kind raises ValueError naming the path and
    line, and so does a file that lists no jobs (naming the path).
    """
    entries: list[tuple[int, str, int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.replace(",", " ").split()
            if len(fields) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'kind n_qubits reps', got {raw.strip()!r}"
                )
            kind, n_s, reps_s = fields
            if kind not in CIRCUIT_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown circuit kind: {kind!r}")
            try:
                entries.append((lineno, kind, int(n_s), int(reps_s)))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: n_qubits and reps must be integers"
                ) from None
    if not entries:
        raise ValueError(f"{path}: catalog file lists no jobs")
    return entries


@functools.lru_cache(maxsize=1)
def _skeleton(entries: tuple, qpu_capacity: int) -> tuple[JobDescriptor, ...]:
    """A catalog's network-independent half: each entry's job, id -1, estimate 0."""
    jobs = []
    for kind, n, reps in entries:
        profile = build_circuit_profile(kind, n, reps)
        required, cross = _cut(profile, qpu_capacity)
        jobs.append(JobDescriptor(-1, required, len(cross), 0, profile, cross))
    return tuple(jobs)


def sorted_catalog(entries, network: Network, exec_params: ExecModelParams
                   ) -> tuple[JobDescriptor, ...]:
    """One job per (kind, n_qubits, reps) entry, sorted by (non-local gates,
    estimate, kind, size) and numbered 0.. in that order. The entries' jobs
    without their estimates are built once per process; each network adds
    its estimates to one copy of each."""
    # Keyed on exact ints: a float size fails as it always did, not by an equal int's hit.
    skeleton = _skeleton(tuple((kind, index(n), index(reps)) for kind, n, reps in entries),
                         network.qpu_capacity)
    est = [execmodel.nominal_execution_time(job.profile.local_depth, job.cross_block_pairs,
                                            network, exec_params) for job in skeleton]
    order = sorted(range(len(skeleton)), key=lambda i: (
        skeleton[i].nonlocal_gates, est[i], skeleton[i].profile.kind, skeleton[i].profile.n_qubits))
    jobs = [object.__new__(JobDescriptor) for _ in order]
    for k, (job, i) in enumerate(zip(jobs, order)):
        job.__dict__.update(skeleton[i].__dict__, id=k, est_exec_ns=est[i])
    return tuple(jobs)


def selection_probabilities(n: int, bias_alpha: float) -> np.ndarray:
    """Sampling weight of catalog position i is i**alpha, normalized.

    alpha = 0 gives uniform selection; alpha = 1 linear weighting toward
    the end of the catalog.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= bias_alpha <= 1.0:
        raise ValueError(f"bias_alpha must lie in [0, 1], got {bias_alpha}")
    weights = np.arange(1, n + 1, dtype=float) ** bias_alpha
    return weights / weights.sum()


def generate_slot_jobs(config: WorkloadConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one slot's job batch from the catalog: its catalog rows (intp),
    in arrival order, under the slot's ids 0..count-1.

    Batch size is Poisson(lam) unless ``fixed_count`` is set.
    """
    if config.fixed_count is not None:
        count = config.fixed_count
    else:
        count = int(rng.poisson(config.lam))
    if count == 0:
        return np.empty(0, dtype=np.intp)
    # Generator.choice(n, size=count, p=probabilities), without its per-call
    # checks and running sum: the same draws and generator state.
    return config.cumulative.searchsorted(rng.random(count), side="right")
