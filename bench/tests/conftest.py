"""Make ``repro`` importable for the harness tests (``python -m pytest bench/tests``)."""

import os
import sys

from bench import BLAS_ENV, SRC

# before anything loads numpy: served answers depend on the BLAS thread count
os.environ.update(BLAS_ENV)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
