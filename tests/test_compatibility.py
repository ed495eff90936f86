"""Pinned outputs of the bundled models: each model's spec_hash, and the
sha256 of one seeded run per model (its times and marks as JSON), forced
where the model fails validation.  Saved sidecars carry the hash and a seed
must always give the same events, so a change to the spec layer or to the
thinning loop must move neither.  The same runs' loop counters, proposed and
squeezed, are pinned too: a change to the loop's bookkeeping must not move
them."""

import hashlib
import json

import pytest

from carma_hawkes import load_spec, simulate, spec_hash, validate
from util import MODELS

HORIZON = 2000.0
SEED = 20261018

# model: (spec_hash, sha256 of json.dumps([times, marks]))
PINS = {
    "hawkes": (
        "d0968039b301a4cabbc629fbc2eeeb8ab48a9b615f28405edcd4bb101c4a89e0",
        "69a59ec4cb1782d23e97e09f2d4e42b2d71a77258a927bb02be5aab42b4c4cef",
    ),
    "carma21": (
        "793f5f0fd1d899bec55dcfea02695b91db0d0e8cdff07ee47d23ccc9d2be3293",
        "f0295fe24bbba4458cc857488cc7b0c1fff0b9ac7ae0b5897b7bcd4c6e8a96d9",
    ),
    "carma31": (
        "3b08794e7158cd6f425ed67556cc1623fba8681b268bbcbc0e05d861b052de42",
        "39e89432a0a1ae1a230f62df5f23a716b5f69f4f9513a527f00ace14807ae56d",
    ),
    "bivariate_independent": (
        "60161f818589e0fe033992ab6f02e2623c93e74969cc8af41f8c59be098cd4b1",
        "89229defe58d2482750eab9d5062c493fc4afd07a13e3834c30940cfdd8a5a4a",
    ),
    "bivariate_cross": (
        "b15bd526c84a5323c477502bcd33f77ce58244edb2ebb1d7f217c44f0bf38f07",
        "5a68a23c448980463834400b14e566af5508ada53cac827ee423b2778a3ffa1c",
    ),
    "bivariate_lagged": (
        "bd4348ace0a607b3583fffe63ea0c65e7e2721711482e6a9a719d03d41b9773b",
        "8f37319b2e818a3b564fef459f272bb4fe8c0eeac5876bd3c1111dd747875b9e",
    ),
    "trivariate_cyclic": (
        "84dfe22b32450f0506817e67bc50e72a831dcdd582a845eaa4616af2f0aee082",
        "b5e4f1472b3d0b4453f0ae205af4d9646e754e9636ee3874cd3bac9e233aaa37",
    ),
}

# model: (meta.proposed, meta.squeezed) of the same seeded run
COUNTERS = {
    "hawkes": (1553, 634),
    "carma21": (2855, 916),
    "carma31": (8253, 5550),
    "bivariate_independent": (3590, 1528),
    "bivariate_cross": (11928, 5940),
    "bivariate_lagged": (19042, 15375),
    "trivariate_cyclic": (21034, 12029),
}


def test_every_bundled_model_is_pinned():
    assert {path.stem for path in MODELS.glob("*.json")} == set(PINS) == set(COUNTERS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_bundled_model_hash_and_seeded_run(name):
    spec = load_spec(MODELS / f"{name}.json")
    want_hash, want_run = PINS[name]
    assert spec_hash(spec) == want_hash
    forced = not validate(spec).admissible
    log = simulate(spec, HORIZON, rng=SEED, override_validation=forced)
    payload = json.dumps([log.times, log.marks]).encode()
    assert hashlib.sha256(payload).hexdigest() == want_run


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_bundled_model_seeded_counters(name):
    spec = load_spec(MODELS / f"{name}.json")
    forced = not validate(spec).admissible
    meta = simulate(spec, HORIZON, rng=SEED, override_validation=forced).meta
    assert (meta.proposed, meta.squeezed) == COUNTERS[name]
