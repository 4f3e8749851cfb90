"""Make the program's sources and the benchmark modules importable when
the benchmark's own tests run: ``python3 -m pytest e2ebench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
