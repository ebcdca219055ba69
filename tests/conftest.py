import pytest
from hypothesis import settings

from coarsekit import compat

# two profiles for every property test, each with no deadline (a draw may
# build a D = 96 scenario) and no stored draws to replay unasked.
# "derandomized", the default, draws the same examples on every run, so a red
# run replays as it is; "randomized" draws afresh on every run, and a failing
# run prints the blob that reproduces it with @reproduce_failure.
settings.register_profile("randomized", deadline=None, database=None, print_blob=True)
settings.register_profile("derandomized", settings.get_profile("randomized"), derandomize=True)


def pytest_configure(config):
    # a profile chosen with --hypothesis-profile wins over the default
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("derandomized")


@pytest.fixture
def compat_calls(monkeypatch):
    """``compat_calls(name)`` wraps ``compat.<name>`` for the test and
    returns the list that the arguments of each call are appended to."""

    def install(name):
        calls, real = [], getattr(compat, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(compat, name, spy)
        return calls

    return install
