"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import BatchConfig, ModelConfig, SchedulerConfig
from repro.model.seq2seq import Seq2SeqModel
from repro.types import Request


@pytest.fixture(scope="session")
def tiny_config() -> ModelConfig:
    return ModelConfig.tiny()


@pytest.fixture(scope="session")
def tiny_model(tiny_config) -> Seq2SeqModel:
    """One shared tiny model — weight init is the slow part."""
    return Seq2SeqModel(tiny_config, seed=7)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_tokenized_requests(lengths, cfg: ModelConfig, seed: int = 0, start_id: int = 0):
    """Requests with synthetic token ids drawn from the model vocab."""
    rng = np.random.default_rng(seed)
    out = []
    for i, l in enumerate(lengths):
        tokens = tuple(int(t) for t in rng.integers(4, cfg.vocab_size, size=l))
        out.append(Request(request_id=start_id + i, length=l, tokens=tokens))
    return out


@pytest.fixture()
def tokenized_requests(tiny_config):
    def factory(lengths, seed: int = 0, start_id: int = 0):
        return make_tokenized_requests(lengths, tiny_config, seed, start_id)

    return factory


def with_eos_bias(model: Seq2SeqModel, bias: float) -> Seq2SeqModel:
    """The same model, its EOS logit shifted by ``bias``."""
    out_bias = model.params.out_bias.copy()
    out_bias[model.config.eos_token] += bias
    params = dataclasses.replace(model.params, out_bias=out_bias)
    return Seq2SeqModel(model.config, params=params)


# Three lengths repeat, so the decode loop's length groups hold 2-3
# requests each.
REPEATED = [4, 4, 4, 6, 6, 2, 2, 5]


def grouped_eos_model() -> Seq2SeqModel:
    """A tiny model that, on REPEATED, ends members of the 4-, 6- and
    2-token groups at different steps (found by scanning seeds)."""
    return with_eos_bias(Seq2SeqModel(ModelConfig.tiny(), seed=4), 2.0)
