"""Session settings for the test suite.

On CI (``CI`` set) hypothesis runs under the ``print-blob`` profile: the
settings in force, plus ``print_blob=True``, so that a failing property
prints the ``@reproduce_failure`` line that replays it locally.
"""

import os

from hypothesis import settings

settings.register_profile("print-blob", settings.default, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("print-blob")
