"""Every entry point the benchmark times still exists.

``perfbench`` wraps each :data:`perfbench.spans.TARGETS` entry by dotted
name and, when a name no longer resolves, skips it: the renamed
function's time then folds silently into whichever wrapped layer calls
it. These tests resolve every target the same way — import, attribute
lookup, and for a method the class in the MRO that defines it — without
installing any wrapper.
"""

import importlib
import inspect

import pytest

from perfbench.spans import TARGETS

TARGET_NAMES = sorted({target for _, _, target, _, _ in TARGETS})


@pytest.mark.parametrize("target", TARGET_NAMES)
def test_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if inspect.isclass(owner):
        definer = next((c for c in owner.__mro__ if attr in vars(c)), None)
        assert definer is not None, f"{target}: no class in the MRO defines it"
        assert callable(getattr(owner, attr))
    else:
        assert callable(vars(owner).get(attr)), f"{target}: not a module function"

