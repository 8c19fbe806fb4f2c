"""Shared fixtures: the call counter of the count guards."""

import sys
from collections import Counter

import pytest

from ssgamma import matrices


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) wraps each named function of ssgamma.matrices at
    every name the package binds it to, and returns the Counter the
    wrappers fill: calls[name] counts the calls and calls[name + ".found"]
    those that returned something other than None.  The wrappers are
    undone when the test ends."""

    def install(*names):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                out = fn(*args)
                calls[name] += 1
                calls[name + ".found"] += out is not None
                return out

            return wrapper

        package = [m for key, m in sys.modules.items() if key == "ssgamma" or key.startswith("ssgamma.")]
        for name in names:
            orig, wrapper = getattr(matrices, name), counted(name, getattr(matrices, name))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, key, wrapper)
        return calls

    return install
