"""Facts that identify the code, the interpreter and the host of a result."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import re
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git(root, *args):
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src):
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "alphapatch", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def collect(root, seed):
    src = os.path.join(root, "src")
    commit = _git(root, "rev-parse", "HEAD") if os.path.isdir(os.path.join(root, ".git")) else None
    dirty = None
    if commit is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no", "--", "src"))
    with open(os.path.join(src, "alphapatch", "__init__.py")) as fh:
        version = re.search(r'__version__ = "([^"]+)"', fh.read())
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "git_commit": commit,
        "git_dirty_src": dirty,
        "source_sha256": source_digest(src),
        "alphapatch": version.group(1) if version else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "loadavg_before": os.getloadavg(),
    }
