"""Differential oracles for the barrier-stage loop ``_place_stages``, for
ASAP's loop and for the price tables they place through.

The references are the stage loops that ``_place_stages`` replaced, copied
verbatim: ``_place_stage`` with ``_in_order_stages`` (FIFO, LIST, EPR and
EPR-NS), the ``resource`` round loop, and ``PpoAgent.build_schedule``; and
ASAP's loop as it was before price tables. All of them price through
``reference_pricer`` (``conftest.py``), a copy of ``Schedule.pricer``, where
they called that method. Two other edits: EPR's sort key read ``epr_pairs``,
a field that always equalled ``nonlocal_gates``, and the ``resource`` loop
took its cap as an argument that no run set, where it now reads
``ENUMERATION_CAP``. Every test compares the library's schedule with the
reference's column for column, or both errors word for word, on
hypothesis-drawn queues and networks.
"""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_job, reference_pricer, unit_exec_params
from dqcsched.execmodel import EPR_POLICIES, ExecModelParams
from dqcsched.netmodel import Network, build_network
from dqcsched.ppo import PpoAgent, PpoConfig
from dqcsched.schedulers import (
    SCHEDULER_NAMES,
    Schedule,
    SchedulingError,
    _max_demand_subset,
    ENUMERATION_CAP,
    _validate_queue,
    epr_schedule,
    get_scheduler,
    resource_prioritize_schedule,
    select_nodes,
)
from dqcsched.workload import default_catalog

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
COLUMNS = ("job_id", "assigned_nodes", "start_ns", "finish_ns", "stage_index")
MIXES = ({"good": 1.0}, {"bad": 0.2, "medium": 0.3, "good": 0.5}, {"bad": 0.5, "good": 0.5})


# -- references: the stage loops as they were before ``_place_stages`` --------


def reference_place_stage(place, jobs, network: Network, barrier: int, stage: int,
                          node_selection: bool = False) -> int:
    """Start ``jobs`` together at ``barrier``, in order, each on the lowest
    free ids or, with ``node_selection``, on the free subset with the best
    internal links. Returns the stage's end: the running max of its
    finishes from ``barrier``, which is its latest finish since durations
    are never negative."""
    free = list(range(network.n_nodes))
    end = barrier
    for job in jobs:
        if job.required_qpus > len(free):
            raise SchedulingError(job.id, "stage exceeds free nodes")
        if node_selection:
            nodes = select_nodes(free, job.required_qpus, network)
            free = [n for n in free if n not in nodes]
        else:
            nodes, free = free[: job.required_qpus], free[job.required_qpus:]
        end = max(end, place(job, nodes, barrier, stage))
    return end


def reference_in_order_stages(queue, network: Network, exec_params: ExecModelParams,
                              node_selection: bool = False,
                              strict_order: bool = True) -> Schedule:
    """Stages filled from ``queue`` in order: each remaining job that fits
    the free nodes joins the stage; under ``strict_order`` the stage closes
    at the first job that does not fit."""
    schedule = Schedule()
    place = reference_pricer(schedule, network, exec_params)
    remaining = list(queue)
    barrier = stage = 0
    while remaining:
        jobs, deferred, n_free = [], [], network.n_nodes
        for idx, job in enumerate(remaining):
            if job.required_qpus <= n_free:
                jobs.append(job)
                n_free -= job.required_qpus
            elif strict_order:
                deferred = remaining[idx:]
                break
            else:
                deferred.append(job)
        barrier = reference_place_stage(place, jobs, network, barrier, stage, node_selection)
        remaining = deferred
        stage += 1
    return schedule


def reference_resource_schedule(queue, network: Network,
                                exec_params: ExecModelParams) -> Schedule:
    _validate_queue(queue, network)
    schedule = Schedule()
    place = reference_pricer(schedule, network, exec_params)
    remaining = list(queue)
    barrier = stage = 0
    while remaining:
        pool = remaining[:ENUMERATION_CAP]
        chosen = _max_demand_subset(pool, network.n_nodes)
        jobs = [job for k, job in enumerate(pool) if chosen >> k & 1]
        barrier = reference_place_stage(place, jobs, network, barrier, stage)
        stage += 1
        remaining = [j for i, j in enumerate(remaining) if not chosen >> i & 1]
    return schedule


def reference_fifo_schedule(queue, network, exec_params) -> Schedule:
    _validate_queue(queue, network)
    return reference_in_order_stages(queue, network, exec_params)


def reference_list_schedule(queue, network, exec_params) -> Schedule:
    _validate_queue(queue, network)
    return reference_in_order_stages(queue, network, exec_params, strict_order=False)


def reference_epr_schedule(queue, network, exec_params, node_selection=False,
                           strict_order=True) -> Schedule:
    _validate_queue(queue, network)
    remaining = sorted(queue, key=lambda j: (j.nonlocal_gates, j.est_exec_ns, j.id))
    return reference_in_order_stages(remaining, network, exec_params, node_selection,
                                     strict_order)


def reference_build_schedule(self, queue, stages: list[list[int]],
                             node_selection: bool,
                             network: Network | None = None,
                             exec_params: ExecModelParams | None = None) -> Schedule:
    """Barrier-synchronized placement of the rolled-out stages."""
    network = network if network is not None else self.network
    exec_params = exec_params if exec_params is not None else self.exec_params
    schedule = Schedule()
    place = reference_pricer(schedule, network, exec_params)
    barrier = 0
    for stage_idx, picks in enumerate(stages):
        barrier = reference_place_stage(place, [queue[row] for row in picks], network,
                                        barrier, stage_idx, node_selection)
    return schedule


def reference_asap_schedule(queue, network: Network, exec_params: ExecModelParams) -> Schedule:
    _validate_queue(queue, network)
    schedule = Schedule()
    place = reference_pricer(schedule, network, exec_params)
    avail = [0] * network.n_nodes
    remaining = list(queue)
    stage = 0
    while remaining:
        t = sorted(avail)[min(job.required_qpus for job in remaining) - 1]
        free = [n for n, release in enumerate(avail) if release <= t]
        deferred: list = []
        for job in remaining:
            if job.required_qpus <= len(free):
                nodes, free = free[: job.required_qpus], free[job.required_qpus:]
                finish = place(job, nodes, t, stage)
                for n in nodes:
                    avail[n] = finish
            else:
                deferred.append(job)
        remaining = deferred
        stage += 1
    return schedule


REFERENCES = {
    "fifo": reference_fifo_schedule,
    "list": reference_list_schedule,
    "resource": reference_resource_schedule,
    "epr": reference_epr_schedule,
    "epr-ns": lambda q, n, p: reference_epr_schedule(q, n, p, node_selection=True),
    "asap": reference_asap_schedule,
}


# -- comparison ---------------------------------------------------------------


def outcome(run):
    """A schedule's five columns, or the scheduling error's message."""
    try:
        schedule = run()
    except SchedulingError as exc:
        return "error", str(exc)
    return "ok", [getattr(schedule, name) for name in COLUMNS]


@st.composite
def environments(draw, max_jobs=12):
    """(network, exec params, queue): a ``build_network`` of 2-8 nodes and a
    queue of up to ``max_jobs`` jobs under distinct ids not in arrival
    order. Half the queues are synthetic jobs whose durations come from four
    values, so stage ends tie; the other half are catalog jobs, whose prices
    depend on the nodes they get. One synthetic queue in ten may hold a job
    wider than the network."""
    n_nodes = draw(st.integers(2, 8))
    network = build_network(n_nodes, 3, draw(st.sampled_from(MIXES)),
                            seed=draw(st.integers(0, 30)))
    n_jobs = draw(st.integers(0, max_jobs))
    ids = draw(st.lists(st.integers(0, 99), min_size=n_jobs, max_size=n_jobs, unique=True))
    if draw(st.booleans()):
        params = ExecModelParams(epr_serialization=draw(
            st.sampled_from(("serial", "per-link-parallel"))))
        catalog = [j for j in default_catalog(network, params) if j.required_qpus <= n_nodes]
        picks = draw(st.lists(st.sampled_from(catalog), min_size=n_jobs, max_size=n_jobs))
        queue = [dataclasses.replace(job, id=i) for job, i in zip(picks, ids)]
        return network, params, queue
    widest = n_nodes + 1 if draw(st.integers(0, 9)) == 0 else n_nodes
    queue = [make_job(i, draw(st.integers(1, widest)), draw(st.sampled_from((5, 10, 20, 35))),
                      epr=draw(st.integers(0, 6)))
             for i in ids]
    return network, unit_exec_params(), queue


@pytest.mark.parametrize("name", sorted(REFERENCES))
@PROPERTY
@given(env=environments())
def test_staged_schedulers_match_reference_loops(name, env):
    network, params, queue = env
    got = outcome(lambda: get_scheduler(name)(queue, network, params))
    assert got == outcome(lambda: REFERENCES[name](queue, network, params))


@PROPERTY
@given(env=environments(max_jobs=20), node_selection=st.booleans())
def test_resource_cap_and_epr_skip_match_reference_loops(env, node_selection):
    """Queues of up to 20 jobs, so ``resource`` pools overflow the cap of 12."""
    network, params, queue = env
    assert outcome(lambda: resource_prioritize_schedule(queue, network, params)) == \
        outcome(lambda: reference_resource_schedule(queue, network, params))
    assert outcome(lambda: epr_schedule(queue, network, params, node_selection, False)) == \
        outcome(lambda: reference_epr_schedule(queue, network, params, node_selection, False))


@PROPERTY
@given(env=environments(), data=st.data(), node_selection=st.booleans())
def test_ppo_build_schedule_matches_reference_loop(env, data, node_selection):
    """Random stage partitions of the queue's rows, in a random order. Cuts
    fall anywhere, so some stages ask for more nodes than the network has,
    and both sides must then raise the same error."""
    network, params, queue = env
    rows = data.draw(st.permutations(range(len(queue))))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(rows) - 1)))) if len(rows) > 1 else []
    stages = [list(rows[a:b]) for a, b in zip([0, *cuts], [*cuts, len(rows)]) if a < b]
    agent = PpoAgent(PpoConfig(j_max=12), network, params, default_catalog(network, params))
    got = outcome(lambda: agent.build_schedule(queue, stages, node_selection))
    assert got == outcome(lambda: reference_build_schedule(
        agent, queue, stages, node_selection))
    other = build_network(network.n_nodes, 3, MIXES[1], seed=99)
    assert outcome(lambda: agent.build_schedule(queue, stages, node_selection, other, params)) \
        == outcome(lambda: reference_build_schedule(agent, queue, stages, node_selection,
                                                    other, params))


@PROPERTY
@given(env=environments())
def test_every_scheduler_prices_as_the_reference_on_shared_tables(env):
    """All six schedulers and an untrained agent's ``build_schedule`` on its
    own rollout, with and without node selection, one after another on one
    network under both EPR policies. Each run meets price tables that the
    runs before it filled, so a price served from the wrong row, class or
    params would differ from the reference pricer's."""
    network, params, queue = env
    for policy in EPR_POLICIES:
        params = dataclasses.replace(params, epr_serialization=policy)
        for name in SCHEDULER_NAMES:
            assert outcome(lambda: get_scheduler(name)(queue, network, params)) == \
                outcome(lambda: REFERENCES[name](queue, network, params))
        agent = PpoAgent(PpoConfig(j_max=12), network, params, default_catalog(network, params))
        if any(job.required_qpus > network.n_nodes for job in queue):
            continue  # the rollout rejects the queue, as every scheduler did above
        stages, _ = agent.rollout(queue)
        for node_selection in (False, True):
            assert outcome(lambda: agent.build_schedule(queue, stages, node_selection)) == \
                outcome(lambda: reference_build_schedule(agent, queue, stages, node_selection))
