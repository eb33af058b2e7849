"""Registry registration, lookup and error behavior."""

import dataclasses
import subprocess
import sys

import pytest

from repro.gpu.config import A100
from repro.gpu.platform import GPUPlatform
from repro.platforms import (
    DatasetArtifacts,
    Platform,
    PlatformContext,
    create_platform,
    get_platform_class,
    platform_names,
    register_platform,
    unregister_platform,
)


class TestBuiltins:
    def test_paper_platforms_registered_in_order(self):
        names = platform_names()
        assert names[:4] == ("t4", "a100", "hihgnn", "hihgnn+gdr")

    @pytest.mark.parametrize(
        "first",
        ["repro.frontend.platform", "repro.accelerator.platform"],
    )
    def test_builtin_order_independent_of_import_order(self, first):
        # A fresh interpreter, so no earlier lookup has loaded the
        # builtins: the adapter imported first registers first.
        script = (
            f"import {first}\n"
            "from repro.platforms import platform_names\n"
            "print(','.join(platform_names()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "t4,a100,hihgnn,hihgnn+gdr"

    def test_lookup_is_case_insensitive(self):
        assert get_platform_class("T4") is get_platform_class("t4")

    def test_unknown_platform(self):
        with pytest.raises(ValueError, match="unknown platform"):
            get_platform_class("h100")
        with pytest.raises(ValueError, match="unknown platform 'h100'"):
            create_platform("h100")

    def test_create_uses_context(self):
        context = PlatformContext()
        platform = create_platform("hihgnn", context)
        assert platform.context is context
        assert platform.name == "hihgnn"

    def test_default_context(self):
        platform = create_platform("t4")
        assert platform.context.model_config.hidden_dim == 512


class TestRegistration:
    def test_register_and_unregister(self):
        @register_platform("a100-2x-bw")
        class DoubledBandwidthA100(GPUPlatform):
            gpu_config = dataclasses.replace(A100, mem_bw_gbps=3110.0)

        try:
            assert "a100-2x-bw" in platform_names()
            platform = create_platform("A100-2X-BW")
            assert isinstance(platform, DoubledBandwidthA100)
            assert platform.gpu_config.mem_bw_gbps == 3110.0
        finally:
            unregister_platform("a100-2x-bw")
        assert "a100-2x-bw" not in platform_names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_platform("t4")
            class ShadowT4(GPUPlatform):
                gpu_config = A100

        # The collision surfaced at the decorator; the registry is
        # intact afterwards.
        assert get_platform_class("t4").__name__ == "T4Platform"
        assert platform_names()[:4] == ("t4", "a100", "hihgnn", "hihgnn+gdr")

    def test_non_platform_rejected(self):
        with pytest.raises(TypeError, match="Platform subclass"):
            register_platform("not-a-platform")(dict)

    def test_unregister_unknown_is_noop(self):
        unregister_platform("never-registered")


class TestPlatformProtocol:
    def test_registered_variant_runs_end_to_end(self, tiny_imdb):
        """A one-decorator platform joins the grid machinery."""

        @register_platform("a100-tiny-l2")
        class TinyL2A100(GPUPlatform):
            gpu_config = dataclasses.replace(A100, l2_bytes=1 << 20)

        try:
            report = create_platform("a100-tiny-l2").run(tiny_imdb, "rgcn")
            baseline = create_platform("a100").run(tiny_imdb, "rgcn")
            assert report.dram_accesses > baseline.dram_accesses
            # Reports carry the registry name, not the wrapped base
            # simulator's label.
            assert report.platform == "a100-tiny-l2"
            assert baseline.platform == "a100"
        finally:
            unregister_platform("a100-tiny-l2")

    def test_prepare_warms_topology(self, tiny_imdb):
        platform = create_platform("hihgnn")
        artifacts = platform.prepare(tiny_imdb)
        assert isinstance(artifacts, DatasetArtifacts)
        for sg in artifacts.semantic_graphs:
            assert sg._na_trace is not None
            assert sg._na_artifact is not None
            assert sg._active_src is not None

    def test_prepare_accepts_prebuilt_artifacts(self, tiny_imdb):
        artifacts = DatasetArtifacts.build(tiny_imdb)
        again = create_platform("t4").prepare(tiny_imdb, artifacts)
        assert again is artifacts

    def test_simulate_reports_platform_name(self, tiny_imdb):
        artifacts = DatasetArtifacts.build(tiny_imdb)
        for name in ("t4", "a100", "hihgnn", "hihgnn+gdr"):
            report = create_platform(name).simulate("rgcn", artifacts)
            assert report.platform == name
            assert report.time_ms > 0

    def test_digest_sources_differ_across_platforms(self):
        digests = set()
        for name in ("t4", "a100", "hihgnn", "hihgnn+gdr"):
            digests.add(tuple(map(repr, create_platform(name).digest_sources())))
        assert len(digests) == 4

    def test_platform_is_abstract(self):
        with pytest.raises(TypeError):
            Platform()
