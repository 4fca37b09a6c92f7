"""Registry behaviour: registration, lookup, creation, errors."""

from __future__ import annotations

import pytest

from repro.backends import (
    MemoryBackend,
    SQLiteBackend,
    available_backends,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.errors import BackendError
from repro.store.storage import ObjectStore, StoreConfig


class TestBuiltins:
    def test_at_least_three_backends(self):
        assert len(available_backends()) >= 3

    def test_builtin_names(self):
        names = backend_names()
        for expected in ("simulated", "memory", "sqlite"):
            assert expected in names

    def test_create_each_builtin(self):
        assert isinstance(create_backend("simulated"), ObjectStore)
        assert isinstance(create_backend("memory"), MemoryBackend)
        sqlite = create_backend("sqlite")
        assert isinstance(sqlite, SQLiteBackend)
        sqlite.close()

    def test_names_are_case_insensitive(self):
        assert isinstance(create_backend("  Memory "), MemoryBackend)

    def test_descriptions_present(self):
        for info in available_backends():
            assert info.description

    def test_only_simulated_has_cost_model(self):
        for info in available_backends():
            if info.name in ("memory", "sqlite"):
                assert info.wall_clock_only
            if info.name == "simulated":
                assert not info.wall_clock_only


class TestStoreConfigForwarding:
    def test_simulated_honours_config(self):
        config = StoreConfig(page_size=1024, buffer_pages=7)
        backend = create_backend("simulated", config)
        assert backend.page_size == 1024
        assert backend.buffer.capacity == 7

    def test_sqlite_honours_config(self):
        config = StoreConfig(page_size=1024, buffer_pages=7)
        backend = create_backend("sqlite", config)
        try:
            assert backend.stats()["page_size"] == 1024
            assert backend.cache_pages == 7
        finally:
            backend.close()


class TestErrors:
    def test_unknown_backend(self):
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend("does-not-exist")

    @pytest.mark.parametrize("name, option", [("sqlite", "shards"),
                                              ("sharded-sqlite", "ref_index")])
    def test_unknown_engine_option(self, name, option):
        with pytest.raises(BackendError, match=f"no option '{option}'"):
            create_backend(name, **{option: 2})

    @pytest.mark.parametrize("name", ["memory", "simulated"])
    def test_optionless_engine_rejects_every_option(self, name):
        with pytest.raises(BackendError,
                           match=f"backend '{name}' takes no option "
                                 f"'path'; accepted: none"):
            create_backend(name, path="/nonexistent/x")

    def test_duplicate_registration_rejected(self):
        register_backend("registry-test", lambda config, **kw: MemoryBackend(),
                         "temporary")
        try:
            with pytest.raises(BackendError, match="already registered"):
                register_backend("registry-test",
                                 lambda config, **kw: MemoryBackend(),
                                 "duplicate")
        finally:
            unregister_backend("registry-test")

    def test_overwrite_allowed(self):
        register_backend("registry-test", lambda config, **kw: MemoryBackend(),
                         "first")
        try:
            info = register_backend("registry-test",
                                    lambda config, **kw: MemoryBackend(),
                                    "second", overwrite=True)
            assert info.description == "second"
        finally:
            unregister_backend("registry-test")

    def test_empty_name_rejected(self):
        with pytest.raises(BackendError):
            register_backend("  ", lambda config, **kw: MemoryBackend(), "x")

    def test_unregister_is_idempotent(self):
        unregister_backend("never-registered")


class TestResolve:
    def test_none_means_simulated(self):
        assert isinstance(resolve_backend(None), ObjectStore)

    def test_instance_passes_through(self):
        instance = MemoryBackend()
        assert resolve_backend(instance) is instance

    def test_name_resolves(self):
        assert isinstance(resolve_backend("memory"), MemoryBackend)

    def test_sqlite_options_forwarded(self, tmp_path):
        path = str(tmp_path / "ocb.db")
        backend = resolve_backend("sqlite", path=path)
        try:
            assert backend.path == path
        finally:
            backend.close()
