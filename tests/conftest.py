import pytest

import util


@pytest.fixture(autouse=True)
def cache_home(tmp_path, monkeypatch):
    # the CLI's constants cache of each test lives in its own temporary
    # directory, which the subprocesses it starts inherit: no test writes
    # outside its directories or reads an entry another test wrote
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


@pytest.fixture
def hawkes():
    return util.hawkes_spec()


@pytest.fixture
def carma21():
    return util.carma21_spec()


@pytest.fixture
def carma31():
    return util.carma31_spec()


@pytest.fixture
def biv_independent():
    return util.biv_independent()


@pytest.fixture
def biv_cross():
    return util.biv_cross()


@pytest.fixture
def biv_lagged():
    return util.biv_lagged()
