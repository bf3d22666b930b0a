"""Facts about the machine and the code that go with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

import numpy as np


def _commit(root: Path) -> str | None:
    """HEAD of the git repository rooted at ``root``; None for a plain copy
    (or one nested inside some other repository)."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _src_sha256(root: Path) -> str:
    """Digest of the package sources; identifies the code when the checkout
    is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mdsat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _ram_bytes() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _caches() -> dict[str, dict]:
    """Per cache level: size of one instance and the number of instances."""
    out: dict[str, dict] = {}
    seen = set()
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = "L" + (index / "level").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if (level, shared) in seen:
            continue
        seen.add((level, shared))
        entry = out.setdefault(level, {"size": size, "instances": 0})
        entry["instances"] += 1
    return out


def _blas() -> dict:
    """BLAS name and version from numpy's build, and the thread count that the
    loaded OpenBLAS reports (None when it cannot be asked)."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_facts(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(root),
        "src_sha256": _src_sha256(root),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": _ram_bytes(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": _blas(),
    }
