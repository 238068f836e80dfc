import numpy as np
import pytest

from sonicauth.channel import ChannelConfig, environment
from sonicauth.signal import DEFAULT_GRID


@pytest.fixture
def grid():
    return DEFAULT_GRID


@pytest.fixture
def office_cfg():
    return ChannelConfig()


@pytest.fixture
def silent_cfg():
    from dataclasses import replace

    return replace(ChannelConfig(), noise=environment("silent"))


@pytest.fixture
def rng():
    return np.random.default_rng(20_240_817)
