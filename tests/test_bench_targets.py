"""The benchmark's span wrappers must keep finding the functions they time.

``perfbench/tracing.py`` wraps package functions by name; a rename in
``src/mfrl`` would silently drop the matching per-layer metrics, so every
wrap target, and the argument names its counters read, is checked here.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from mfrl.meanfield import fokker_planck_flow_batch

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()


@pytest.mark.parametrize("target", [t for t, _, _ in TRACING_MODULE.WRAPS])
def test_wrap_target_resolves(target):
    assert TRACING_MODULE._resolve(target) is not None, target


def test_flow_counter_arguments_bind():
    # the meanfield.flow counter reads rho0 and n_t from the bound call
    bound = inspect.signature(fokker_planck_flow_batch).bind(
        None, np.zeros((8, 3)), 0.0, 5
    )
    assert TRACING_MODULE._column_steps(bound.arguments) == {"column_steps": 15}
