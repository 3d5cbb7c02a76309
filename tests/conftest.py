"""Spies on the two calls the CLI tests count: runs and forward passes."""

import pytest

import srslab.cli
import srslab.training


@pytest.fixture
def train_results(monkeypatch):
    """Each `srslab.cli.train` call's result, in call order."""
    results, real = [], srslab.cli.train

    def spy(config):
        results.append(real(config))
        return results[-1]

    monkeypatch.setattr(srslab.cli, "train", spy)
    return results


@pytest.fixture
def forward_calls(monkeypatch):
    """One entry per forward pass `srslab.training.train` takes."""
    calls, real = [], srslab.training.forward_loss

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(srslab.training, "forward_loss", spy)
    return calls
