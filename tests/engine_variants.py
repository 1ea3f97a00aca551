"""Engine variants: every path by which the two backends reach an answer.

The engine serves two backends, but each answers through more than one code
path, chosen by an :class:`~repro.engine.EngineConfig` field or by how the
fleet arrived.  A variant names one such path:

* ``cinct`` — the paper's index with a sampled suffix array;
* ``cinct-unsampled`` — ``sa_sample_rate=None``: locate reads the retained
  full suffix array instead of walking LF-steps to a sample;
* ``cinct-unigram`` / ``cinct-random`` — the other two RML labelling
  strategies (Fig. 14), which change the labels the wavelet tree stores;
* ``partitioned-cinct`` — the growable backend, one partition;
* ``partitioned-cinct-tail`` — ``compaction="off"``: every trajectory stays
  in the mutable tail and the linear scanner answers;
* ``partitioned-cinct-grown`` — the fleet arrives in three batches, so three
  partitions answer with trajectory-id offsets;
* ``partitioned-cinct-tiered`` — four batches under ``max_partitions=2``, so
  tiered merges decode and rebuild partitions;
* ``partitioned-cinct-mixed`` — all but the last trajectory seal into a
  partition (``tail_max_trajectories=2``) and the last waits in the tail.

The engine suites parametrize over :data:`NAMES` and check each variant
against :mod:`brute_force`.  A growth variant's batches arrive in fleet
order, so global trajectory ids match a one-shot build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import EngineConfig, backend_spec, build_engine


@dataclass(frozen=True)
class Variant:
    """One engine variant: a backend, its config fields and its arrival."""

    backend: str
    #: :class:`EngineConfig` fields that override the suite's own.
    overrides: tuple[tuple[str, object], ...] = ()
    #: The fleet arrives in this many consecutive batches: the first builds
    #: the engine, the rest are ``add_batch`` calls.
    batches: int = 1
    #: The last trajectory arrives alone, after the rest.
    last_alone: bool = False

    def arrival(self, fleet: list) -> list[list]:
        """The consecutive, non-empty batches in which ``fleet`` arrives."""
        if self.last_alone and len(fleet) > 1:
            return [fleet[:-1], fleet[-1:]]
        cuts = np.array_split(np.arange(len(fleet)), self.batches)
        batches = [fleet[int(c[0]) : int(c[-1]) + 1] for c in cuts if c.size]
        return batches or [fleet]


VARIANTS: dict[str, Variant] = {
    "cinct": Variant("cinct"),
    "cinct-unsampled": Variant("cinct", (("sa_sample_rate", None),)),
    "cinct-unigram": Variant("cinct", (("labeling_strategy", "unigram"),)),
    "cinct-random": Variant("cinct", (("labeling_strategy", "random"),)),
    "partitioned-cinct": Variant("partitioned-cinct"),
    "partitioned-cinct-tail": Variant("partitioned-cinct", (("compaction", "off"),)),
    "partitioned-cinct-grown": Variant("partitioned-cinct", batches=3),
    "partitioned-cinct-tiered": Variant(
        "partitioned-cinct", (("max_partitions", 2),), batches=4
    ),
    "partitioned-cinct-mixed": Variant(
        "partitioned-cinct", (("tail_max_trajectories", 2),), last_alone=True
    ),
}

NAMES = list(VARIANTS)


def spec(name: str):
    """The :class:`~repro.engine.registry.BackendSpec` of a variant's backend."""
    return backend_spec(VARIANTS[name].backend)


def config(name: str, **fields) -> EngineConfig:
    """The variant's config: the suite's ``fields`` under its overrides."""
    variant = VARIANTS[name]
    return EngineConfig(**{**fields, "backend": variant.backend, **dict(variant.overrides)})


def build(name: str, trajectories, **fields):
    """Build the variant's engine over ``trajectories`` (a dataset or a list).

    ``fields`` are the suite's :class:`EngineConfig` fields (``num_shards``
    among them); the variant's own overrides win.
    """
    fleet = list(getattr(trajectories, "trajectories", trajectories))
    first, *rest = VARIANTS[name].arrival(fleet)
    engine = build_engine(first, config(name, **fields))
    for batch in rest:
        engine.add_batch(batch)
    return engine
