import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import helpers

# every property test draws the same examples on every run and every
# machine; a test's own settings still choose its number of examples
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.line(line)
