"""ArtifactStore: addressing, hit/miss/invalidations, robustness."""

import numpy as np

from repro.graph.hetero import HeteroGraph, Relation
from repro.api import ExperimentSpec, Session
from repro.platforms import ArtifactStore, config_digest
from repro.platforms.store import code_version
from repro.scenarios import ScenarioParam, register_scenario, unregister_scenario


class TestAddressing:
    def test_key_distinct_per_axis(self, tmp_path):
        store = ArtifactStore(tmp_path)
        base = store.key_for("t4", "rgcn", "acm", "d0")
        assert store.key_for("t4", "rgcn", "acm", "d0") == base
        assert store.key_for("a100", "rgcn", "acm", "d0") != base
        assert store.key_for("t4", "rgat", "acm", "d0") != base
        assert store.key_for("t4", "rgcn", "imdb", "d0") != base
        assert store.key_for("t4", "rgcn", "acm", "d1") != base

    def test_config_digest_tracks_repr(self):
        assert config_digest(1, 0.3, "x") == config_digest(1, 0.3, "x")
        assert config_digest(1, 0.3, "x") != config_digest(2, 0.3, "x")

    def test_code_version_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestStorage:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        assert store.load(key) is None
        store.save(key, {"time_ms": 1.5})
        assert store.load(key) == {"time_ms": 1.5}
        assert (store.stats.hits, store.stats.misses, store.stats.puts) == (
            1,
            1,
            1,
        )

    def test_persists_across_instances(self, tmp_path):
        first = ArtifactStore(tmp_path)
        key = first.key_for("t4", "rgcn", "acm", "d0")
        first.save(key, [1, 2, 3])
        second = ArtifactStore(tmp_path)
        assert second.load(key) == [1, 2, 3]

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, "payload")
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.load(key) is None
        assert not path.exists()
        assert store.load(key) is None  # stays a clean miss

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, list(range(1000)))
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:20])  # cut mid-pickle
        assert store.load(key) is None
        assert not path.exists()

    def test_pre_envelope_entry_is_a_miss_and_removed(self, tmp_path):
        import pickle

        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # What a pre-schema-envelope library version wrote: the bare
        # payload pickle. It unpickles fine but must read as a miss.
        path.write_bytes(pickle.dumps({"time_ms": 1.5}))
        assert store.load(key) is None
        assert not path.exists()

    def test_schema_tag_mismatch_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, {"x": 1}, schema=("cell-result", 1))
        assert store.load(key, schema=("cell-result", 2)) is None
        assert not store._path(key).exists()
        # Matching schema after the wipe: clean miss, then refill works.
        store.save(key, {"x": 2}, schema=("cell-result", 2))
        assert store.load(key, schema=("cell-result", 2)) == {"x": 2}

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        assert store.delete(key) is False
        store.save(key, "payload")
        assert store.delete(key) is True
        assert store.load(key) is None

    def test_len_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for model in ("rgcn", "rgat", "simple_hgn"):
            store.save(store.key_for("t4", model, "acm", "d0"), model)
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0

    def test_env_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "env-store"))
        store = ArtifactStore()
        assert store.root == tmp_path / "env-store"
        assert store.root.is_dir()


class TestScenarioInvalidation:
    """A changed scenario parameter (scale/skew/seed) must be a miss.

    The cell digest embeds :func:`repro.scenarios.workload_digest` —
    a digest of the *resolved* generation recipe — so invalidation
    holds even when the textual dataset name is unchanged (most
    dangerously: when a family's parameter *default* changes). The
    store address and :meth:`Session.cell_content_key` share that
    digest, so checking the content key covers both.
    """

    def _key(self, dataset, *, seed=1, scale=1.0):
        spec = ExperimentSpec(seed=seed, scale=scale)
        return Session(spec).cell_content_key(("t4", "rgcn", dataset))

    def test_changed_sweep_parameter_is_a_new_key(self):
        base = self._key("skew:exponent=1.0")
        assert self._key("skew:exponent=1.5") != base
        assert self._key("skew:exponent=1.0,num_src=4096") != base

    def test_changed_seed_and_scale_are_new_keys(self):
        base = self._key("skew:exponent=1.0")
        assert self._key("skew:exponent=1.0", seed=2) != base
        assert self._key("skew:exponent=1.0", scale=0.5) != base

    def test_same_sweep_point_is_the_same_key(self):
        assert self._key("skew:exponent=1.0") == self._key(
            "skew:exponent=1.0"
        )

    def test_catalog_datasets_keep_distinct_keys(self):
        assert self._key("acm") != self._key("imdb")
        assert self._key("acm") == self._key("acm")
        assert self._key("acm", seed=2) != self._key("acm")

    def test_changed_family_default_is_a_miss(self):
        """Same name, silently changed default: the dangerous case."""

        def make(default):
            @register_scenario(
                "tmp-inval",
                params=(ScenarioParam("n", default, "size"),),
                doc="store invalidation test family",
            )
            def build(*, seed, scale, n):  # pragma: no cover - never built
                rel = Relation("a", "r", "b")
                ids = np.arange(n, dtype=np.int64)
                return HeteroGraph({"a": n, "b": n}, {"a": 4}, {rel: (ids, ids)})

        make(8)
        try:
            old_key = self._key("tmp-inval")
        finally:
            unregister_scenario("tmp-inval")
        make(16)
        try:
            new_key = self._key("tmp-inval")
        finally:
            unregister_scenario("tmp-inval")
        assert old_key != new_key
