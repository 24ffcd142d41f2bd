"""Every float field of every config is checked so that NaN is refused,
with a message that names the field."""

import math
from dataclasses import fields, replace
from typing import get_type_hints

import pytest

from jam.embed_io import SynthConfig
from jam.errors import InvalidInput
from jam.losses import LossConfig, SimilarityConfig
from jam.metrics import MetricConfig
from jam.nnet import AutoencoderConfig
from jam.trainer import TrainConfig

CONFIGS = [
    TrainConfig(AutoencoderConfig(4, [4], 2), AutoencoderConfig(4, [4], 2)),
    AutoencoderConfig(4, [4], 2),
    LossConfig(),
    SimilarityConfig(),
    MetricConfig(),
    SynthConfig(),
]

FLOAT_FIELDS = [
    pytest.param(cfg, f.name, id=f"{type(cfg).__name__}.{f.name}")
    for cfg in CONFIGS
    for f in fields(cfg)
    if get_type_hints(type(cfg))[f.name] in (float, float | None)
]


@pytest.mark.parametrize("cfg, name", FLOAT_FIELDS)
def test_nan_is_refused_naming_the_field(cfg, name):
    with pytest.raises(InvalidInput, match=f"^{name} must be .*, got nan$"):
        replace(cfg, **{name: math.nan})
