"""Ranking pins: the first 20 rows after re-ranking, recall and MRR, exactly,
and a digest of the per-query results records without their timings.

The pins come from tests/make_golden.py. On the default world every
re-ranker reaches 100% R@1, so a summary alone would survive a broken order
among the other 19 candidates; these pins do not. Each case runs at 1 and 3
threads against the same pin.
"""

import json

import pytest

from scanrank.synthgen import generate_world

from make_golden import CASES, PINS, WORLDS, pinned_ranking


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def worlds():
    return {name: generate_world(cfg) for name, cfg in WORLDS.items()}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("world, strategy", CASES, ids=[f"{w}-{s}" for w, s in CASES])
def test_rankings_match_pins(pins, worlds, world, strategy, threads):
    got = pinned_ranking(worlds[world], strategy, threads)
    want = pins[f"{world}/{strategy}"]
    moved = [q for q, top in want["top"].items() if got["top"].get(q) != top]
    assert not moved, f"{len(moved)} queries changed order, first {moved[0]}"
    assert got == want
