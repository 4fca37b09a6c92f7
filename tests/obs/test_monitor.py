"""Run context: system info."""

from __future__ import annotations

from repro.obs import system_info


class TestSystemInfo:
    def test_keys_and_types(self):
        info = system_info()
        assert set(info) >= {"git_rev", "platform", "python",
                             "implementation", "cpu_count", "hostname"}
        assert isinstance(info["cpu_count"], int) and info["cpu_count"] >= 1
        assert info["platform"]
        assert info["python"].count(".") == 2

    def test_git_rev_shape(self):
        rev = system_info()["git_rev"]
        # None outside a checkout; a short hex revision inside one.
        assert rev is None or (isinstance(rev, str) and len(rev) >= 6
                               and all(c in "0123456789abcdef" for c in rev))
