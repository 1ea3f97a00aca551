"""Dataset and index persistence.

* :mod:`repro.io.dataset_io` — read/write trajectory datasets as JSON Lines or
  CSV so real NCT exports can be fed to the library;
* :mod:`repro.io.index_io` — persist index state so it can be reloaded without
  recomputing the suffix array (the only super-linear construction step):
  :func:`save_index`/:func:`load_index` round-trip a whole
  :class:`~repro.engine.TrajectoryEngine` for any registered backend; a
  CiNCT index is saved as the compressed index itself and loads without a
  rebuild.
"""

from .dataset_io import (
    load_dataset_csv,
    load_dataset_jsonl,
    save_dataset_csv,
    save_dataset_jsonl,
)
from .index_io import load_bwt_result, load_index, save_bwt_result, save_index

__all__ = [
    "save_dataset_jsonl",
    "load_dataset_jsonl",
    "save_dataset_csv",
    "load_dataset_csv",
    "save_bwt_result",
    "load_bwt_result",
    "save_index",
    "load_index",
]
