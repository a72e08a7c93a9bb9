"""Test-session set-up shared by every suite under this directory.

numpy's OpenBLAS starts one thread per core, and on this project's small
matrices the extra threads only spin-wait, doubling CPU time for the same
wall time and the same bytes.  The setting must be made before numpy
loads; a value already in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
