"""Make the benchmark helpers, and the test oracle in
``tests.reference_kernels``, importable when pytest runs from the
repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))
