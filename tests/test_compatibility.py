"""Pinned outputs of the bundled models: each model's spec_hash, and the
sha256 of one seeded run per model (its times and marks as JSON), forced
where the model fails validation.  Saved sidecars carry the hash and a seed
must always give the same events, so a change to the spec layer or to the
thinning loop must move neither.  The same runs' loop counters, proposed and
squeezed, are pinned too: a change to the loop's bookkeeping must not move
them.  So is the residual path of each run, bit for bit: the sha256 of each
component's residuals as little-endian float64 bytes, and its KS statistic
and p-value as float.hex, so a change to the modal scan or to the KS test
must move none of them."""

import hashlib
import json

import pytest

from carma_hawkes import load_spec, simulate, spec_hash, summarize, validate
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

# model: per component, (sha256 of the residuals' bytes, KS D hex, KS p hex)
RESIDUALS = {
    "hawkes": (
        (
            "48a5ee7cc9f2a9db4ceb1666a40f4fbe086604529eda4a90203b318fef5a7310",
            "0x1.9fc3bb52b6300p-6", "0x1.30e8d194e9ea3p-1",
        ),
    ),
    "carma21": (
        (
            "16a59d4112180af1ade217e1df3ee05716a6fd98c0935d8f89aada73e819d280",
            "0x1.7459ccc71d6b0p-5", "0x1.397bead2269a0p-7",
        ),
    ),
    "carma31": (
        (
            "a4b651bdfb58901dc23e2143ea0436a4e17dbee91d360fe588855741c4a3d630",
            "0x1.b70e127378920p-6", "0x1.1e5bb062d480fp-4",
        ),
    ),
    "bivariate_independent": (
        (
            "496e33be9be26a3bdbdee0eb25692e72011185471f3a5a60f7c9387a302a933d",
            "0x1.b9a4e691808a0p-6", "0x1.226feece5b400p-1",
        ),
        (
            "453ae74d5b790afca1719c9e3238c59594212820931c1b45c10ccd651a243322",
            "0x1.49f5a31dde2c0p-6", "0x1.840999b741ddbp-1",
        ),
    ),
    "bivariate_cross": (
        (
            "48641201ccfe367714aa735d6706d253e4077aa73c02912d1e00af580299b968",
            "0x1.98d70be65bd80p-7", "0x1.c90af0d29bfdap-1",
        ),
        (
            "8a4227c394a270f64da30674de338c640b00b41498431352358df3defdbc4fb8",
            "0x1.a32d30acc4c40p-7", "0x1.dc907ca5c2313p-1",
        ),
    ),
    "bivariate_lagged": (
        (
            "cb4e1957373909ac41503aaec15257d031bc729e09de9f67e394839b75d3465e",
            "0x1.5e704fc2fc290p-6", "0x1.37de06ff8bbf3p-1",
        ),
        (
            "4a307cdf145f227312a4575a1b57f6af8dbc2b565c881673c751135a82595f42",
            "0x1.0f7abf569e430p-6", "0x1.fddb523d9cd82p-1",
        ),
    ),
    "trivariate_cyclic": (
        (
            "27716f6de7a393b9262d40326979e552f48ca42c6d1522ec0e1ec34b9ee0ce42",
            "0x1.7e57be0747e80p-6", "0x1.8a631470e4f57p-3",
        ),
        (
            "b0ac1899f71c07014161e8f0c3718d2b401b0247c070d6405698f1ec2407aa00",
            "0x1.2cca8176a3240p-6", "0x1.285b8219fbc8fp-1",
        ),
        (
            "8a72b2a56433d479a79c57d14238ce67ded22893fd1a50acf4119f0052edacc5",
            "0x1.13dfee6b577e0p-5", "0x1.4cbc8aad72d81p-5",
        ),
    ),
}


def _seeded_run(name):
    spec = load_spec(MODELS / f"{name}.json")
    forced = not validate(spec).admissible
    return spec, simulate(spec, HORIZON, rng=SEED, override_validation=forced)


def test_every_bundled_model_is_pinned():
    assert {path.stem for path in MODELS.glob("*.json")} == set(PINS) == set(COUNTERS) == set(RESIDUALS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_bundled_model_hash_and_seeded_run(name):
    spec, log = _seeded_run(name)
    want_hash, want_run = PINS[name]
    assert spec_hash(spec) == want_hash
    payload = json.dumps([log.times, log.marks]).encode()
    assert hashlib.sha256(payload).hexdigest() == want_run


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_bundled_model_seeded_counters(name):
    meta = _seeded_run(name)[1].meta
    assert (meta.proposed, meta.squeezed) == COUNTERS[name]


@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_bundled_model_seeded_residuals(name):
    report = summarize(*_seeded_run(name))
    got = tuple(
        (
            hashlib.sha256(series.taus.astype("<f8").tobytes()).hexdigest(),
            comp.ks.statistic.hex(),
            comp.ks.p_value.hex(),
        )
        for series, comp in zip(report.residuals, report.components)
    )
    assert got == RESIDUALS[name]
