"""Suite-wide test marks.

Every test that uses the module-scoped ``protocol`` fixture (acceptance 06,
07 and 12) is marked ``slow``: the fixture trains forty desk-scale runs and
is almost all of the suite's time. ``pytest -m "not slow"`` runs the rest.
"""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "protocol" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
