"""Self-tests of the benchmark; run them by path, they are not tier-1:

    python -m pytest benchmarks/rac_bench/tests -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
