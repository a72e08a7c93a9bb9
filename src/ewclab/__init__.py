"""Desk-scale continual-learning laboratory.

Sequentially trains a small patch-based segmentation network on a pair of
synthetic tasks and compares fine-tuning, an L2 anchor penalty, elastic
weight consolidation and joint multi-task training, with fully seeded,
reproducible numerics.

Importing the package sets numpy's BLAS to one thread: OpenBLAS splits
some of the network's GEMMs by thread, and the parts round differently,
so a second thread changes output bits under the same run ids.
"""

import ctypes
import glob
import importlib.util
import os

__version__ = "0.1.0"

_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Call the setter of the OpenBLAS bundled with numpy (loaded or not)
    with 1; without one, set ``OPENBLAS_NUM_THREADS=1``, which an OpenBLAS
    that numpy has not loaded yet reads when it loads."""
    numpy_dir = os.path.dirname(importlib.util.find_spec("numpy").origin)
    for path in glob.glob(os.path.join(os.path.dirname(numpy_dir), "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in _SET_THREADS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


_one_blas_thread()
