"""Tests for the package surface (lazy exports, version, dir)."""

import importlib

import pytest

import repro


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", sorted(repro._LAZY))
    def test_lazy_exports_resolve(self, name):
        obj = getattr(repro, name)
        assert obj is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist

    def test_dir_includes_lazy_names(self):
        names = dir(repro)
        assert "ConcatEngine" in names
        assert "Request" in names

    def test_eager_exports(self):
        assert repro.Request is not None
        assert repro.BatchConfig is not None
        assert callable(repro.total_utility)

    @pytest.mark.parametrize(
        "module",
        [
            # Replaced by bench/, repro.obs and att_cb_s respectively.
            "repro.bench",
            "repro.serving.trace",
            "repro.engine.executor",
            # Not part of the paper's greedy Seq2Seq system; nothing but
            # their own tests or one example reached them.
            "repro.core.validation",
            "repro.model.beam",
            "repro.model.bpe",
            "repro.model.classifier",
            "repro.model.sampling",
            "repro.model.serialization",
            "repro.workload.corpus",
        ],
    )
    def test_superseded_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
