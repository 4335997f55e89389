"""Fixture snippets for the contract rules R003 and R004.

These rules are cross-file: fixtures are small synthetic trees handed to
``lint_sources`` under the path suffixes the rules key on
(``experiments/config.py``, ``experiments/engine/request.py``,
``samplers/``), plus an on-disk ``tests/property`` parity file for R004's
coverage check.
"""

import textwrap

import pytest

from repro.analysis import lint_sources

CONFIG_PATH = "src/repro/experiments/config.py"
REQUEST_PATH = "src/repro/experiments/engine/request.py"

CLEAN_CONFIG = textwrap.dedent(
    """
    from dataclasses import dataclass
    from typing import ClassVar

    @dataclass(frozen=True)
    class RunSpec:
        marker: ClassVar[str] = "not a field"
        dataset: str = "tiny"
        seed: int = 0
    """
)

CLEAN_REQUEST = textwrap.dedent(
    """
    from dataclasses import asdict, dataclass

    KEYED_SPEC_FIELDS = ("dataset", "seed")
    KEYED_REQUEST_FIELDS = ("spec", "evaluate")

    @dataclass(frozen=True)
    class EngineRequest:
        spec: object
        evaluate: bool = True

    def canonical_payload(request):
        return {"spec": asdict(request.spec), "evaluate": request.evaluate}
    """
)


def r003(sources):
    return lint_sources(sources, rules=["R003"])


class TestR003RunKeyCoverage:
    def test_clean_pair_passes(self):
        findings = r003(
            {CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: CLEAN_REQUEST}
        )
        assert findings == []

    def test_partial_scan_skips_silently(self):
        assert r003({CONFIG_PATH: CLEAN_CONFIG}) == []

    def test_new_spec_field_without_manifest_entry_flagged(self):
        config = CLEAN_CONFIG.replace(
            'seed: int = 0', 'seed: int = 0\n    cdf: str = "exact"'
        )
        findings = r003({CONFIG_PATH: config, REQUEST_PATH: CLEAN_REQUEST})
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == CONFIG_PATH
        assert "'cdf'" in finding.message
        assert "KEYED_SPEC_FIELDS" in finding.message

    def test_new_request_field_without_manifest_entry_flagged(self):
        request = CLEAN_REQUEST.replace(
            "evaluate: bool = True",
            "evaluate: bool = True\n    workers: int = 1",
        )
        findings = r003({CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: request})
        assert [d.path for d in findings] == [REQUEST_PATH]
        assert "'workers'" in findings[0].message

    def test_stale_manifest_entry_flagged(self):
        request = CLEAN_REQUEST.replace(
            'KEYED_SPEC_FIELDS = ("dataset", "seed")',
            'KEYED_SPEC_FIELDS = ("dataset", "seed", "ghost")',
        )
        findings = r003({CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: request})
        assert len(findings) == 1
        assert "'ghost'" in findings[0].message
        assert "stale" in findings[0].message

    def test_manifest_entry_missing_from_payload_flagged(self):
        request = CLEAN_REQUEST.replace(
            'return {"spec": asdict(request.spec), "evaluate": request.evaluate}',
            'return {"spec": asdict(request.spec)}',
        )
        findings = r003({CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: request})
        assert len(findings) == 1
        assert "'evaluate'" in findings[0].message
        assert "serializer" in findings[0].message

    def test_serializer_without_asdict_flagged(self):
        request = CLEAN_REQUEST.replace(
            '"spec": asdict(request.spec)', '"spec": str(request.spec)'
        )
        findings = r003({CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: request})
        assert any("asdict" in d.message for d in findings)

    def test_serializer_iterating_spec_manifest_passes(self):
        request = CLEAN_REQUEST.replace(
            '"spec": asdict(request.spec)',
            '"spec": {name: getattr(request.spec, name) '
            "for name in KEYED_SPEC_FIELDS}",
        )
        assert r003({CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: request}) == []

    def test_serializer_naming_manifest_without_iterating_flagged(self):
        request = CLEAN_REQUEST.replace(
            '"spec": asdict(request.spec)', '"spec": len(KEYED_SPEC_FIELDS)'
        )
        findings = r003({CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: request})
        assert any("asdict" in d.message for d in findings)

    def test_missing_manifest_flagged(self):
        request = CLEAN_REQUEST.replace(
            'KEYED_SPEC_FIELDS = ("dataset", "seed")\n', ""
        )
        findings = r003({CONFIG_PATH: CLEAN_CONFIG, REQUEST_PATH: request})
        assert any("KEYED_SPEC_FIELDS" in d.message for d in findings)


SAMPLER_BASE = textwrap.dedent(
    """
    class NegativeSampler:
        score_request = None

        def sample_for_user(self, user, pos_items, scores):
            raise NotImplementedError

        def sample_batch(self, users, pos_items, scores=None, *, groups=None):
            return None
    """
)

GOOD_SAMPLER = textwrap.dedent(
    """
    from repro.samplers.base import NegativeSampler

    class GoodSampler(NegativeSampler):
        score_request = "none"
        name = "good"

        def sample_for_user(self, user, pos_items, scores):
            return pos_items

        def sample_batch(self, users, pos_items, scores=None, *, groups=None):
            return pos_items
    """
)


def sampler_tree(extra):
    sources = {
        "src/repro/samplers/base.py": SAMPLER_BASE,
        "src/repro/samplers/good.py": GOOD_SAMPLER,
    }
    sources.update(extra)
    return sources


def r004(sources, root):
    return lint_sources(sources, rules=["R004"], root=root)


class TestR004SamplerContract:
    def test_compliant_tree_passes(self, tmp_path):
        assert r004(sampler_tree({}), tmp_path) == []

    def test_missing_sample_batch_flagged(self, tmp_path):
        bad = textwrap.dedent(
            """
            from repro.samplers.base import NegativeSampler

            class LazySampler(NegativeSampler):
                score_request = "none"

                def sample_for_user(self, user, pos_items, scores):
                    return pos_items
            """
        )
        findings = r004(
            sampler_tree({"src/repro/samplers/lazy.py": bad}), tmp_path
        )
        assert len(findings) == 1
        assert "LazySampler" in findings[0].message
        assert "sample_batch" in findings[0].message

    def test_missing_score_request_flagged(self, tmp_path):
        bad = textwrap.dedent(
            """
            from repro.samplers.base import NegativeSampler

            class MuteSampler(NegativeSampler):
                def sample_for_user(self, user, pos_items, scores):
                    return pos_items

                def sample_batch(self, users, pos_items, scores=None, *, groups=None):
                    return pos_items
            """
        )
        findings = r004(
            sampler_tree({"src/repro/samplers/mute.py": bad}), tmp_path
        )
        assert len(findings) == 1
        assert "score_request" in findings[0].message

    def test_inherited_definitions_count(self, tmp_path):
        child = textwrap.dedent(
            """
            from repro.samplers.good import GoodSampler

            class ChildSampler(GoodSampler):
                name = "child"
            """
        )
        assert (
            r004(sampler_tree({"src/repro/samplers/child.py": child}), tmp_path)
            == []
        )

    def test_abstract_intermediate_skipped(self, tmp_path):
        mixin = textwrap.dedent(
            """
            from repro.samplers.base import NegativeSampler

            class ScheduledSampler(NegativeSampler):
                def on_epoch_start(self, epoch):
                    pass
            """
        )
        assert (
            r004(sampler_tree({"src/repro/samplers/mixin.py": mixin}), tmp_path)
            == []
        )

    def test_justified_noqa_suppresses(self, tmp_path):
        bad = textwrap.dedent(
            """
            from repro.samplers.base import NegativeSampler

            class ScalarOnlySampler(NegativeSampler):  # repro: noqa[R004] -- no profitable vectorization
                score_request = "none"

                def sample_for_user(self, user, pos_items, scores):
                    return pos_items
            """
        )
        assert (
            r004(sampler_tree({"src/repro/samplers/scalar.py": bad}), tmp_path)
            == []
        )

    def _write_parity_file(self, root, names):
        parity = root / "tests" / "property"
        parity.mkdir(parents=True)
        registry = ", ".join(f'"{name}"' for name in names)
        (parity / "test_property_sampler_batch.py").write_text(
            f"REGISTRY = [{registry}]\n"
        )

    def _variants(self, entries):
        body = ", ".join(f'"{name}": GoodSampler' for name in entries)
        return (
            "from repro.samplers.good import GoodSampler\n"
            f"_FACTORIES = {{{body}}}\n"
        )

    def test_registered_sampler_without_parity_coverage_flagged(self, tmp_path):
        self._write_parity_file(tmp_path, ["good"])
        sources = sampler_tree(
            {"src/repro/samplers/variants.py": self._variants(["good", "new"])}
        )
        findings = r004(sources, tmp_path)
        assert len(findings) == 1
        assert "'new'" in findings[0].message
        assert "RNG-parity" in findings[0].message

    def test_covered_registry_passes(self, tmp_path):
        self._write_parity_file(tmp_path, ["good", "new"])
        sources = sampler_tree(
            {"src/repro/samplers/variants.py": self._variants(["good", "new"])}
        )
        assert r004(sources, tmp_path) == []

    def test_missing_parity_file_skips_coverage_check(self, tmp_path):
        sources = sampler_tree(
            {"src/repro/samplers/variants.py": self._variants(["good"])}
        )
        assert r004(sources, tmp_path) == []


class TestRuntimeCoverageGuard:
    """The import-time twin of R003 in ``request.py`` itself."""

    def test_in_sync_at_head(self):
        from repro.experiments.engine import request as request_module

        request_module._COVERAGE_CHECKED = False
        try:
            request_module._check_key_coverage()
        finally:
            request_module._COVERAGE_CHECKED = False

    def test_drifted_manifest_fails_fast(self, monkeypatch):
        from repro.experiments.engine import request as request_module

        monkeypatch.setattr(
            request_module,
            "KEYED_SPEC_FIELDS",
            request_module.KEYED_SPEC_FIELDS[:-1],
        )
        monkeypatch.setattr(request_module, "_COVERAGE_CHECKED", False)
        with pytest.raises(RuntimeError, match="out of sync"):
            request_module._check_key_coverage()
