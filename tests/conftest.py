"""Let child processes import the package from ``src/`` as the tests do.

``pythonpath`` in pyproject.toml puts ``src/`` on the test process's own
path; tests that run ``python -m boxcert`` in a subprocess need it in the
environment as well, since the package is not installed.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
