"""Discrete-slot simulator and schedulers for distributed quantum computing
jobs over a fully connected, heterogeneous QPU network."""

from .execmodel import ExecModelParams, estimate_execution_time, nominal_execution_time
from .metrics import MetricsReport, compute_report, metric_columns
from .netmodel import (
    LINK_PRESETS,
    LinkParams,
    LinkProfile,
    Network,
    build_network,
    entanglement_success_probability,
    state_delay,
)
from .schedulers import (
    Cell,
    SchedulingError,
    asap_schedule,
    epr_schedule,
    fifo_schedule,
    get_scheduler,
    job_table,
    list_schedule,
    resource_prioritize_schedule,
    select_nodes,
)
from .workload import (
    CircuitProfile,
    JobDescriptor,
    WorkloadConfig,
    build_circuit_profile,
    generate_slot_jobs,
    partition_job,
    selection_probabilities,
)

__version__ = "0.1.0"
