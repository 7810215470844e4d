"""Native classifier suite for the "retrieval needed" prediction task.

Import from the defining modules (``tabular.protocol``, ``tabular.grids``,
``tabular.neighbors``, ...). The package keeps the five names that the
benchmark scripts and README's Python API import from it.
"""

from .base import TabularDataset
from .grids import load_grids
from .protocol import end_to_end_train, load_gate, save_gate
