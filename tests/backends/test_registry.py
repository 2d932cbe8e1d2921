"""The backend registry and the redesigned construction surface."""


import pytest

from repro.api import make_cache
from repro.backends import (
    DEFAULT_BACKEND,
    BackendError,
    CacheBackend,
    backend_names,
    backends,
    make_backend,
)
from repro.core.cntcache import CNTCache
from repro.core.config import CNTCacheConfig


class TestRegistry:
    def test_scalar_is_the_default_and_always_listed(self):
        assert DEFAULT_BACKEND == "scalar"
        assert backend_names()[0] == "scalar"
        assert set(backend_names()) == set(backends())

    def test_registry_rows_describe_requirements(self):
        rows = backends()
        assert rows["scalar"].requires == ()
        assert rows["array"].requires == ("numpy",)

    def test_registry_is_a_copy(self):
        backends().clear()
        assert "scalar" in backends()

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown backend"):
            make_backend("gpu", CNTCacheConfig())

    def test_make_cache_rejects_unknown_backend(self):
        with pytest.raises(BackendError, match="unknown backend"):
            make_cache(backend="gpu")


class TestConstruction:
    def test_make_cache_default_is_the_scalar_reference(self):
        sim = make_cache(scheme="cnt")
        assert isinstance(sim, CNTCache)
        assert isinstance(sim, CacheBackend)
        assert sim.config.scheme == "cnt"

    def test_make_cache_array_satisfies_the_protocol(self):
        pytest.importorskip("numpy")
        sim = make_cache(scheme="cnt", backend="array")
        assert not isinstance(sim, CNTCache)
        assert isinstance(sim, CacheBackend)
        assert sim.backend_name == "array"

    def test_array_backend_rejects_shared_memory(self):
        pytest.importorskip("numpy")
        from repro.cache.memory import MainMemory

        with pytest.raises(BackendError, match="MainMemory"):
            make_backend("array", CNTCacheConfig(), MainMemory())

    def test_scalar_backend_accepts_shared_memory(self):
        from repro.cache.memory import MainMemory

        memory = MainMemory()
        sim = make_backend("scalar", CNTCacheConfig(), memory)
        assert sim.memory is memory
