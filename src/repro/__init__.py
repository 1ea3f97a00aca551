"""CiNCT reproduction: compressed indexing and retrieval for NCT trajectories.

This package reimplements, in pure Python, the system described in

    Koide, Tadokoro, Xiao, Ishikawa.
    "CiNCT: Compression and retrieval for massive vehicular trajectories via
    relative movement labeling", ICDE 2018.

The public API is re-exported here; the repository's top-level ``README.md``
has a quickstart and the full backend inventory.

The recommended entry point is the engine facade, which speaks raw edge
sequences and works identically for every registered index backend::

    from repro.engine import TrajectoryEngine, EngineConfig

    trajectories = [["e1", "e2", "e3"], ["e2", "e3", "e4"]]
    engine = TrajectoryEngine.build(trajectories, EngineConfig(backend="cinct"))
    engine.count(["e2", "e3"])  # -> 2
    engine.save("my-index")     # reload with TrajectoryEngine.load("my-index")

The per-structure entry points (:meth:`CiNCT.from_trajectories`,
:func:`build_baseline`, :class:`StrictPathIndex`, ...) remain available for
code that needs a specific structure directly::

    from repro import CiNCT

    index, trajectory_string = CiNCT.from_trajectories(trajectories)
    pattern = trajectory_string.encode_pattern(["e2", "e3"])
    index.count(pattern)        # -> 2
"""

from .engine import (
    EngineConfig,
    TrajectoryEngine,
    available_backends,
    register_backend,
)
from .core import (
    CiNCT,
    ConstructionBreakdown,
    CorrectionTerms,
    ETGraph,
    Partition,
    PartitionedCiNCT,
    RMLFunction,
    build_rml,
    compute_correction_terms,
    label_bwt,
    labelled_entropy,
    pseudo_rank,
)
from .exceptions import (
    AlphabetError,
    ConstructionError,
    DatasetError,
    DeadlineExceededError,
    IndexCorruptionError,
    NetworkError,
    QueryError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    ShardExecutionError,
)
from .fmindex import (
    AlphabetPartitionedFMIndex,
    FixedBlockFMIndex,
    FMIndexBase,
    GMRFMIndex,
    ICBHuffmanFMIndex,
    ICBWaveletMatrixFMIndex,
    LinearScanIndex,
    UncompressedFMIndex,
    available_baselines,
    build_baseline,
)
from .io import (
    load_dataset_csv,
    load_dataset_jsonl,
    load_index,
    save_dataset_csv,
    save_dataset_jsonl,
    save_index,
)
from .network import RoadNetwork, grid_network, poisson_out_degree_graph
from .queries import (
    BoundedErrorTimestampCodec,
    CompressedTimestampStore,
    DeltaTimestampCodec,
    StrictPathIndex,
    StrictPathMatch,
    TemporalIndex,
)
from .strings import (
    Alphabet,
    BWTResult,
    TrajectoryString,
    build_trajectory_string,
    burrows_wheeler_transform,
    suffix_array,
)
from .temporal import TimestampStore
from .trajectories import Trajectory, TrajectoryDataset

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engine facade
    "TrajectoryEngine",
    "EngineConfig",
    "available_backends",
    "register_backend",
    # core
    "CiNCT",
    "ConstructionBreakdown",
    "PartitionedCiNCT",
    "Partition",
    "ETGraph",
    "RMLFunction",
    "build_rml",
    "label_bwt",
    "labelled_entropy",
    "CorrectionTerms",
    "compute_correction_terms",
    "pseudo_rank",
    # strings
    "Alphabet",
    "TrajectoryString",
    "build_trajectory_string",
    "BWTResult",
    "burrows_wheeler_transform",
    "suffix_array",
    # fm-index baselines
    "FMIndexBase",
    "UncompressedFMIndex",
    "ICBWaveletMatrixFMIndex",
    "ICBHuffmanFMIndex",
    "GMRFMIndex",
    "AlphabetPartitionedFMIndex",
    "FixedBlockFMIndex",
    "LinearScanIndex",
    "build_baseline",
    "available_baselines",
    # persistence
    "save_index",
    "load_index",
    "save_dataset_jsonl",
    "load_dataset_jsonl",
    "save_dataset_csv",
    "load_dataset_csv",
    # network & trajectories
    "RoadNetwork",
    "grid_network",
    "poisson_out_degree_graph",
    "Trajectory",
    "TrajectoryDataset",
    # queries
    "StrictPathIndex",
    "StrictPathMatch",
    "TemporalIndex",
    "DeltaTimestampCodec",
    "BoundedErrorTimestampCodec",
    "CompressedTimestampStore",
    "TimestampStore",
    # exceptions
    "ReproError",
    "ConstructionError",
    "QueryError",
    "AlphabetError",
    "DatasetError",
    "NetworkError",
    "IndexCorruptionError",
    "ShardExecutionError",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceededError",
]
