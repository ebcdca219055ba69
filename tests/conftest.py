import pytest
from hypothesis import settings

from coarsekit import compat

# one profile for every property test: no deadline (a draw may build a
# D = 96 scenario), no stored draws to replay unasked, and a failing run
# prints the blob that reproduces it with @reproduce_failure
settings.register_profile("coarsekit", deadline=None, database=None, print_blob=True)
settings.load_profile("coarsekit")


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
