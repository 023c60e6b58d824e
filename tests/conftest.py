"""Pin BLAS to one thread before numpy loads.

The pulse optimizer's small batched products and eigendecompositions pay
thread hand-off on every call; on one thread they run about twice as fast.
Values already set in the environment win.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
