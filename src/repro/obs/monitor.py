"""Run context for a recorded benchmark result.

:func:`system_info` collects what a result needs to be comparable
later: git revision, platform, Python version, CPU count, hostname.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
from typing import Dict, Optional

__all__ = ["system_info"]


def _git_revision() -> Optional[str]:
    """The working tree's git revision, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def system_info() -> Dict[str, object]:
    """The context a recorded benchmark result needs to be comparable."""
    try:
        hostname = socket.gethostname()
    except OSError:  # pragma: no cover - degenerate environments
        hostname = "unknown"
    return {
        "git_rev": _git_revision(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
        "hostname": hostname,
    }
