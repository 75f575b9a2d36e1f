"""Tests for the declarative artifact registry."""

import gc
import weakref

import pytest

from repro.api.registry import (
    ArtifactRegistry,
    builtin_registry,
    default_seed,
)


class FakeResult:
    def __init__(self, tag):
        self.tag = tag

    def as_table(self):
        return f"table:{self.tag}"

    def as_csv(self):
        return f"csv:{self.tag}"


class TextOnlyResult:
    def as_text(self):
        return "evolution"


class TestRegistration:
    def test_round_trip(self):
        reg = ArtifactRegistry()

        @reg.artifact("demo", csv=True, description="a demo")
        def produce(seed=None):
            return FakeResult(seed)

        assert reg.names() == ["demo"]
        assert "demo" in reg
        assert reg.get("demo").description == "a demo"
        assert reg.render("demo", seed=4) == "table:4"
        assert reg.render_csv("demo", seed=4) == "csv:4"

    def test_registration_order_is_listing_order(self):
        reg = ArtifactRegistry()
        for name in ("c", "a", "b"):
            reg.artifact(name)(lambda seed=None: FakeResult(seed))
        assert reg.names() == ["c", "a", "b"]

    def test_duplicate_name_rejected(self):
        reg = ArtifactRegistry()
        reg.artifact("x")(lambda seed=None: FakeResult(seed))
        with pytest.raises(ValueError, match="already registered"):
            reg.artifact("x")(lambda seed=None: FakeResult(seed))

    def test_unknown_artifact_raises(self):
        reg = ArtifactRegistry()
        with pytest.raises(KeyError, match="unknown artifact"):
            reg.get("nope")

    def test_text_fallback_to_as_text(self):
        reg = ArtifactRegistry()
        reg.artifact("evo")(lambda seed=None: TextOnlyResult())
        assert reg.render("evo") == "evolution"

    def test_text_renderer_by_attribute_name(self):
        reg = ArtifactRegistry()
        reg.artifact("named", text="as_csv")(lambda seed=None: FakeResult(1))
        assert reg.render("named") == "csv:1"

    def test_text_renderer_by_callable(self):
        reg = ArtifactRegistry()
        reg.artifact("call", text=lambda r: r.tag.upper())(
            lambda seed=None: FakeResult("hi")
        )
        assert reg.render("call") == "HI"

    def test_unrenderable_result_is_a_type_error(self):
        reg = ArtifactRegistry()
        reg.artifact("bad")(lambda seed=None: object())
        with pytest.raises(TypeError, match="neither as_table"):
            reg.render("bad")

    def test_csv_unsupported_raises(self):
        reg = ArtifactRegistry()
        reg.artifact("textonly")(lambda seed=None: FakeResult(0))
        assert not reg.get("textonly").supports_csv
        with pytest.raises(KeyError, match="no CSV form"):
            reg.render_csv("textonly")


class TestResultCache:
    def test_producer_runs_once_per_seed(self):
        reg = ArtifactRegistry()
        calls = []

        @reg.artifact("cached", csv=True)
        def produce(seed=None):
            calls.append(seed)
            return FakeResult(seed)

        reg.render("cached", seed=1)
        reg.render_csv("cached", seed=1)
        reg.render("cached", seed=1)
        assert calls == [1]
        reg.render("cached", seed=2)
        assert calls == [1, 2]

    def test_only_the_last_seed_result_stays_alive(self):
        """A process that renders many seeds holds one result, not one
        per seed."""
        reg = ArtifactRegistry()
        produced = []

        @reg.artifact("seeded", csv=True)
        def produce(seed=None):
            result = FakeResult(seed)
            produced.append(weakref.ref(result))
            return result

        for seed in range(8):
            reg.render("seeded", seed=seed)
            reg.render_csv("seeded", seed=seed)
        gc.collect()
        assert len(produced) == 8  # a seed's text and CSV share one run
        assert [ref() is not None for ref in produced] == [False] * 7 + [True]

    def test_clear_cache(self):
        reg = ArtifactRegistry()
        calls = []
        reg.artifact("c")(lambda seed=None: calls.append(seed) or FakeResult(seed))
        reg.render("c")
        reg.clear_cache()
        reg.render("c")
        assert len(calls) == 2


class TestStoreDelegation:
    """The rendered-artifact cache delegates to the on-disk store."""

    def _registry(self):
        reg = ArtifactRegistry()
        calls = []

        @reg.artifact("demo", csv=True)
        def produce(seed=None):
            calls.append(seed)
            return FakeResult(seed)

        reg.calls = calls
        return reg

    def test_second_process_equivalent_render_skips_the_producer(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        first = self._registry()
        first.attach_store(store)
        assert first.render("demo", seed=4) == "table:4"

        # A fresh registry models a fresh process: empty in-memory cache.
        second = self._registry()
        second.attach_store(store)
        assert second.render("demo", seed=4) == "table:4"
        assert second.calls == []  # served from disk, no simulation

    def test_text_and_csv_are_distinct_records(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        reg = self._registry()
        reg.attach_store(store)
        reg.render("demo", seed=1)
        reg.render_csv("demo", seed=1)
        assert len(store.entries()) == 2

    def test_default_seed_and_explicit_default_share_a_record(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        reg = self._registry()
        reg.attach_store(store)
        reg.render("demo")
        fresh = self._registry()
        fresh.attach_store(store)
        assert fresh.render("demo", seed=2017) == "table:None"
        assert fresh.calls == []

    def test_detach_store_restores_direct_rendering(self, tmp_path):
        from repro.store import ResultStore

        reg = self._registry()
        reg.attach_store(ResultStore(tmp_path))
        reg.detach_store()
        reg.render("demo", seed=1)
        assert reg.calls == [1]


class TestWorkerCacheIsolation:
    def test_fresh_registry_has_an_empty_result_cache(self):
        """Sweep workers rely on this: a new process builds a new
        registry whose in-memory cache cannot leak across cells."""
        reg = ArtifactRegistry()
        calls = []
        reg.artifact("w")(lambda seed=None: calls.append(seed) or FakeResult(seed))
        reg.result_for("w", seed=1)
        assert calls == [1]
        reg.clear_cache()
        reg.result_for("w", seed=1)
        assert calls == [1, 1]


class TestDefaultSeed:
    def test_default_is_the_papers_year(self):
        assert default_seed(None) == 2017
        assert default_seed(5) == 5
        assert default_seed(0) == 0


class TestBuiltinRegistry:
    EXPECTED = {f"fig{i}" for i in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)} | {
        "table2",
        "scalability",
        "resilience",
    }

    def test_covers_every_eval_artifact(self):
        assert set(builtin_registry().names()) == self.EXPECTED

    def test_csv_support_set(self):
        reg = builtin_registry()
        with_csv = {n for n in reg.names() if reg.get(n).supports_csv}
        assert with_csv == {
            "fig1", "fig3", "fig7", "fig8", "fig9", "table2", "resilience",
        }

    def test_every_artifact_is_described(self):
        reg = builtin_registry()
        assert all(reg.get(n).description for n in reg.names())

    def test_realapps_artifacts_share_one_run(self, monkeypatch):
        """fig10-12 and table2 resolve to the same lru-cached execution."""
        import repro.experiments.fig10_12_realapps as mod

        calls = []
        monkeypatch.setattr(
            mod, "run_realapps", lambda seed=2017: calls.append(seed) or object()
        )
        sentinel_seed = 987_654  # avoid polluting the real 2017 cache entry
        a = mod.realapps_result(sentinel_seed)
        b = mod.realapps_result(sentinel_seed)
        assert a is b
        assert calls == [sentinel_seed]
