import numpy as np
import pytest

from sonicauth.channel import ChannelConfig
from sonicauth import signal as sg


@pytest.fixture
def long_signal_length(monkeypatch):
    """16 times the signal length, set as ``SIGNAL_LENGTH`` for one test: there
    the synthesizer's block product runs a coarse phase 16 times larger than
    at the session length. The candidates' block phasors and their bin
    spectra are rebuilt for it and dropped afterwards, so no other test sees
    a long table."""
    length = 16 * sg.SIGNAL_LENGTH
    long_tables = (sg._block_phasors, sg._grid_bin_spectra)
    for table in long_tables:
        table.cache_clear()
    monkeypatch.setattr(sg, "SIGNAL_LENGTH", length)
    yield length
    for table in long_tables:
        table.cache_clear()


@pytest.fixture
def office_cfg():
    return ChannelConfig()


@pytest.fixture
def silent_cfg():
    return ChannelConfig(environment="silent")


@pytest.fixture
def rng():
    return np.random.default_rng(20_240_817)
