"""`values.without_collection`, which pauses the cyclic collector for the
bulk builds `bounds.candidate_ratios`, `models.load_model` and
`family.load_family`: the collector's prior state comes back on return
and on raise, and no collection starts inside a build."""

import gc
import inspect
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from seshadri.bounds import candidate_ratios
from seshadri.family import load_family
from seshadri.models import load_model
from seshadri.values import without_collection

from strategies import blown_up_plane_documents

@pytest.fixture
def collector_on():
    """The collector on, as it starts, and on again after the test."""
    gc.enable()
    yield
    gc.enable()


@without_collection
def _state():
    return gc.isenabled()


@without_collection
def _raises():
    raise ValueError("inside the build")


@without_collection
def _nested():
    """The collector's state inside a nested build, and after it returns."""
    return _state(), gc.isenabled()


def test_the_collector_is_off_inside_and_on_after_a_return(collector_on):
    assert _state() is False
    assert gc.isenabled()


def test_the_collector_is_on_after_a_raise(collector_on):
    with pytest.raises(ValueError, match="inside the build"):
        _raises()
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off(collector_on):
    gc.disable()
    assert _state() is False
    assert not gc.isenabled()
    with pytest.raises(ValueError):
        _raises()
    assert not gc.isenabled()


def test_a_nested_build_leaves_the_outer_pause(collector_on):
    assert _nested() == (False, False)
    assert gc.isenabled()


@pytest.mark.parametrize(
    "build, parameters",
    [
        (candidate_ratios, ["B", "alpha"]),
        (load_model, ["text"]),
        (load_family, ["text", "base_dir"]),
    ],
    ids=["candidate_ratios", "load_model", "load_family"],
)
def test_a_paused_builder_keeps_its_name_doc_and_signature(build, parameters):
    wrapped = build.__wrapped__
    assert (build.__name__, build.__qualname__) == (wrapped.__name__, wrapped.__qualname__)
    assert (build.__module__, build.__doc__) == (wrapped.__module__, wrapped.__doc__)
    assert build.__doc__
    assert list(inspect.signature(build).parameters) == parameters


def _collections_during(build, *args):
    """build(*args) and the generations of the collections that start in
    it.  For the call the young generation's threshold is 100, so that
    without the pause any build here would start one; `gc.collect()`
    first leaves no pass due from the caller's allocations, which Python
    3.12 and later would run at the call's first instruction."""
    started = []

    def probe(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(100, *threshold[1:])
    gc.callbacks.append(probe)
    try:
        gc.collect()
        del started[:]
        built = build(*args)
        # read first: the next allocation may start the pass the build put off
        during = len(started)
    finally:
        gc.callbacks.remove(probe)
        gc.set_threshold(*threshold)
    return built, started[:during]


def test_no_collection_starts_while_the_ratio_list_builds(collector_on):
    alpha = Fraction(2828, 1000)
    ratios, started = _collections_during(candidate_ratios, 600, alpha)
    assert started == []
    assert gc.isenabled()
    assert len(ratios) == 70779
    assert ratios == candidate_ratios.__wrapped__(600, alpha)


@given(blown_up_plane_documents(max_strata=3))
@settings(max_examples=10, deadline=None)
def test_no_collection_starts_while_a_model_or_a_family_loads(doc):
    gc.enable()
    text = json.dumps(doc)
    family_text = json.dumps(
        {
            "degree": doc["rr"]["d"],
            "members": [{"param_label": label, "model": doc} for label in ("a", "b")],
        }
    )
    for build, source in ((load_model, text), (load_family, family_text)):
        built, started = _collections_during(build, source)
        assert started == []
        assert gc.isenabled()
        assert built == build.__wrapped__(source)
