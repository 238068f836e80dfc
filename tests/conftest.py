import numpy as np
import pytest

from sonicauth.channel import ChannelConfig


@pytest.fixture
def office_cfg():
    return ChannelConfig()


@pytest.fixture
def silent_cfg():
    return ChannelConfig(environment="silent")


@pytest.fixture
def rng():
    return np.random.default_rng(20_240_817)
