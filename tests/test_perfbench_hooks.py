"""The traced benchmark wraps sortlab attributes by name, and some of them by
the position of their ``counters`` parameter. This guard reads its hook table
(without installing anything) so a change that renames or reorders what the
tracer depends on fails here first.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
HOOKS = spans._hooks()


@pytest.mark.parametrize("hook", HOOKS, ids=[f"{h.owner}.{h.attr}" for h in HOOKS])
def test_hook_target_resolves_with_counters_slot(hook):
    owner = spans._owner(hook.owner)
    fn = owner.__dict__.get(hook.attr) if isinstance(owner, type) else getattr(owner, hook.attr, None)
    assert callable(fn), f"{hook.owner}.{hook.attr} is gone"
    if hook.counters_at is not None:
        params = list(inspect.signature(fn).parameters)
        assert hook.counters_at < len(params) and params[hook.counters_at] == "counters", params
