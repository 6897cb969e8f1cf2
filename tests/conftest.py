import os
import sys

import treeclust

sys.path.insert(0, os.path.dirname(__file__))

# The CLI tests run `python -m treeclust` in child processes; let them import
# the package this session imported, installed or found through the pytest
# `pythonpath` setting.
_package_root = os.path.dirname(os.path.dirname(treeclust.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_package_root, os.environ.get("PYTHONPATH")])
)
