"""The names the protocol benchmark hooks must exist where it hooks them.

perfbench/tracer.py replaces attributes from outside the package, and the
benchmark's sample clocks patch engine globals.  A refactor that moves or
renames one of them would silently drop a span or a clock, so check here.
"""

import importlib.util
from pathlib import Path

import pytest

import segadapt.engine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets():
    return _load_tracer().TARGETS


def test_every_trace_target_is_its_owners_own_attribute(targets):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing


@pytest.mark.parametrize("name", ["supervised_loss", "compute_iou", "restore"])
def test_sample_boundary_clocks_are_engine_globals(name):
    assert callable(vars(segadapt.engine)[name])
