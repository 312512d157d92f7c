"""Heterogeneous entanglement-link model and fully connected QPU networks.

A link between two QPUs is described by its physical parameters
(:class:`LinkParams`), from which the per-attempt entanglement success
probability and the expected time to produce one entangled pair (the
"state delay") are derived. Networks are fully connected: every unordered
node pair carries one :class:`LinkProfile`.

Derived probabilities and delays are floating point; schedule timestamps
elsewhere in the package are integer nanoseconds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

QUALITY_CLASSES = ("bad", "medium", "good")


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of one QPU-to-QPU entanglement link.

    Efficiencies are unitless in [0, 1]; ``alpha_db_per_km`` is the fiber
    attenuation factor, ``distance_km`` the link length and ``cycle_time_ns``
    the duration of a single entanglement generation attempt.
    """

    eta_ion: float
    eta_fc: float
    eta_det: float
    eta_penalty: float
    alpha_db_per_km: float
    distance_km: float
    cycle_time_ns: int

    def __post_init__(self) -> None:
        for name in ("eta_ion", "eta_fc", "eta_det", "eta_penalty"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.distance_km < 0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if self.cycle_time_ns <= 0:
            raise ValueError(f"cycle_time_ns must be > 0, got {self.cycle_time_ns}")


# Trapped-ion link presets at 0.1 km, one per quality class.
LINK_PRESETS: dict[str, LinkParams] = {
    "bad": LinkParams(
        eta_ion=0.87, eta_fc=0.5, eta_det=0.75, eta_penalty=0.12,
        alpha_db_per_km=0.2, distance_km=0.1, cycle_time_ns=1_800_000,
    ),
    "medium": LinkParams(
        eta_ion=0.87, eta_fc=0.5, eta_det=0.75, eta_penalty=0.20,
        alpha_db_per_km=0.2, distance_km=0.1, cycle_time_ns=1_000_000,
    ),
    "good": LinkParams(
        eta_ion=0.87, eta_fc=0.7, eta_det=0.90, eta_penalty=0.20,
        alpha_db_per_km=0.2, distance_km=0.1, cycle_time_ns=200_000,
    ),
}


def entanglement_success_probability(params: LinkParams) -> float:
    """Probability that a single entanglement generation attempt succeeds.

    Combines photon emission/collection, frequency conversion and detection
    efficiencies (squared: both halves of the pair), a detection-window
    penalty, and fiber attenuation to the midpoint station. The result lies
    in (0, 0.5].
    """
    efficiency = params.eta_ion * params.eta_fc * params.eta_det
    attenuation = 10.0 ** (-(params.alpha_db_per_km / 10.0) * (params.distance_km / 2.0))
    return 0.5 * params.eta_penalty * efficiency * efficiency * attenuation


def state_delay(cycle_time_ns: float, success_prob: float) -> float:
    """Expected time (ns) to successfully generate one entangled state.

    Deterministic model: one attempt per cycle, so the expected delay is
    ``cycle_time_ns / success_prob``.
    """
    if cycle_time_ns <= 0:
        raise ValueError(f"cycle_time_ns must be > 0, got {cycle_time_ns}")
    if success_prob <= 0.0:
        raise ValueError(f"success_prob must be > 0, got {success_prob}")
    return cycle_time_ns / success_prob


@dataclass(frozen=True)
class LinkProfile:
    """One link's parameters plus its derived success probability and delay."""

    params: LinkParams
    success_prob: float
    state_delay_ns: float

    @classmethod
    def from_params(cls, params: LinkParams) -> "LinkProfile":
        p_s = entanglement_success_probability(params)
        return cls(
            params=params,
            success_prob=p_s,
            state_delay_ns=state_delay(params.cycle_time_ns, p_s),
        )


@dataclass(frozen=True)
class Network:
    """Immutable, fully connected QPU network with per-pair link profiles.

    ``delay_ns`` is the n x n matrix of link state delays (zero diagonal),
    read by the execution model and by node selection. A scheduler picks and
    prices through three tables, each filled on first use. The pick tables,
    ``_selection_memo`` for node selection and ``_lowest_picks`` for ASAP's
    lowest free ids, map (free-node bit mask, k) to the k picked nodes and
    the mask of the nodes left free. ``_price_tables`` holds one dict per
    ``ExecModelParams.key``, mapping (job price key, node tuple) to the
    duration. All live and die with the instance, so a cached answer can
    never be served to another network. Span prices are built with each
    ``schedulers.Catalog``, not filled on first use.
    """

    n_nodes: int
    qpu_capacity: int
    links: dict[tuple[int, int], LinkProfile] = field(hash=False)
    mean_state_delay_ns: float = field(init=False)
    delay_ns: tuple[tuple[float, ...], ...] = field(init=False, repr=False)
    _selection_memo: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _lowest_picks: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _price_tables: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        expected = {p for p in itertools.combinations(range(self.n_nodes), 2)}
        if set(self.links) != expected:
            raise ValueError("links must cover exactly all unordered node pairs")
        delay = [[0.0] * self.n_nodes for _ in range(self.n_nodes)]
        for (a, b), profile in self.links.items():
            delay[a][b] = delay[b][a] = profile.state_delay_ns
        mean = (float(np.mean([lp.state_delay_ns for lp in self.links.values()]))
                if self.links else 0.0)
        object.__setattr__(self, "delay_ns", tuple(map(tuple, delay)))
        object.__setattr__(self, "mean_state_delay_ns", mean)


def quality_probabilities(quality_mix: dict[str, float]) -> tuple[list[str], np.ndarray]:
    """The classes of ``quality_mix`` in ``QUALITY_CLASSES`` order and their
    proportions, normalised. A ValueError unless every name is a preset and
    every proportion is finite and >= 0, the proportions summing to 1."""
    if not quality_mix:
        raise ValueError("quality_mix must not be empty")
    for name in quality_mix:
        if name not in LINK_PRESETS:
            raise ValueError(f"unknown link quality class: {name!r}")
    for name, share in quality_mix.items():
        if not 0.0 <= share < math.inf:  # NaN fails too
            raise ValueError(f"quality_mix proportion of {name!r} must be finite and "
                             f">= 0, got {share}")
    classes = [c for c in QUALITY_CLASSES if c in quality_mix]
    probs = np.array([quality_mix[c] for c in classes], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"quality_mix proportions must sum to 1, got {probs.sum()}")
    return classes, probs / probs.sum()


def build_network(
    n_nodes: int,
    qpu_capacity: int,
    quality_mix: dict[str, float],
    seed: int,
) -> Network:
    """Build a fully connected network with seeded per-pair quality sampling.

    ``quality_mix`` maps preset names (``bad``/``medium``/``good``) to
    proportions summing to 1 (see :func:`quality_probabilities`). Each
    unordered pair draws its class independently; the same seed always
    yields the same network.
    """
    if n_nodes < 2:
        raise ValueError(f"build_network requires n_nodes >= 2, got {n_nodes}")
    classes, probs = quality_probabilities(quality_mix)
    profiles = [LinkProfile.from_params(LINK_PRESETS[c]) for c in classes]
    pairs = list(itertools.combinations(range(n_nodes), 2))
    # Generator.choice(len(classes), p=probs) once per pair, in one call: its
    # cdf, one rng.random() per pair and searchsorted, so the same draws.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    picks = cdf.searchsorted(rng.random(len(pairs)), side="right")
    links = dict(zip(pairs, map(profiles.__getitem__, picks.tolist())))
    return Network(n_nodes=n_nodes, qpu_capacity=qpu_capacity, links=links)

