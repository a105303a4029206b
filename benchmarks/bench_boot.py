"""Benchmark B1 — boot-to-ready time of ``repro serve --listen``, cold vs warm.

Times a real server subprocess from spawn to its ``--port-file`` (the moment
clients can connect), the way an operator or a CI job experiences a boot:

* ``cold`` — an empty base-model cache (a fresh ``XDG_CACHE_HOME``), so the
  boot pre-trains the base model and writes the cache entry;
* ``warm`` — the same cache directory again, so the boot loads the
  pre-trained weights instead of pre-training them.

Every boot then serves the frontend benchmark's chat-only load over TCP and
drains; the transcript digests of all boots must be byte-identical, which is
what makes the warm path a pure speedup rather than a different model.

Writes ``BENCH_boot.json`` next to this file (consumed by
``scripts/perf_check.py --boot``, which gates warm ≥5× faster than cold —
a ratio of two in-run measurements, so it holds on any machine).  Run
directly (``python benchmarks/bench_boot.py``) or through pytest.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.serve.client import drive_load, fetch_metrics, request_shutdown
from repro.serve.loadgen import LoadConfig

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_boot.json"
REPO_ROOT = Path(__file__).resolve().parent.parent

COLD_BOOTS = 2
WARM_BOOTS = 3
REQUIRED_BOOT_SPEEDUP = 5.0
BOOT_TIMEOUT = 300.0
LOAD = LoadConfig(num_users=4, num_requests=32, chat_only=True, seed=0)


def boot_once(run_dir: Path, cache_home: Path) -> Tuple[float, str]:
    """One spawn → port file → drive → drain cycle; returns (boot s, digest)."""
    run_dir.mkdir(parents=True)
    port_file = run_dir / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["XDG_CACHE_HOME"] = str(cache_home)
    command = [
        sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
        "--port-file", str(port_file), "--out", str(run_dir / "out"),
        "--scale", "smoke", "--seed", str(LOAD.seed), "--max-batch", "8", "--quiet",
    ]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        while not (port_file.is_file() and port_file.read_text().endswith("\n")):
            if process.poll() is not None:
                raise RuntimeError(f"server exited {process.returncode} before it was ready")
            if time.perf_counter() - started > BOOT_TIMEOUT:
                raise TimeoutError("server did not write its port file")
            time.sleep(0.002)
        boot_seconds = time.perf_counter() - started
        port = int(port_file.read_text())
        drive_load("127.0.0.1", port, LOAD)
        digest = fetch_metrics("127.0.0.1", port)["transcript_digest"]
        request_shutdown("127.0.0.1", port)
        if process.wait(timeout=BOOT_TIMEOUT) != 0:
            raise RuntimeError(f"server exited {process.returncode}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return boot_seconds, digest


def _summary(seconds: List[float]) -> Dict[str, object]:
    return {
        "median": round(statistics.median(seconds), 4),
        "runs": [round(value, 4) for value in seconds],
    }


def run_benchmark(cold_boots: int = COLD_BOOTS, warm_boots: int = WARM_BOOTS) -> Dict[str, object]:
    """Measure cold and warm boot-to-ready of the smoke-scale server."""
    cold: List[float] = []
    warm: List[float] = []
    digests = set()
    with tempfile.TemporaryDirectory(prefix="bench-boot-") as scratch:
        root = Path(scratch)
        for index in range(cold_boots):
            # A fresh cache per cold boot; the last one stays warm for the rest.
            cache_home = root / f"cache{index}"
            seconds, digest = boot_once(root / f"cold{index}", cache_home)
            cold.append(seconds)
            digests.add(digest)
        for index in range(warm_boots):
            seconds, digest = boot_once(root / f"warm{index}", cache_home)
            warm.append(seconds)
            digests.add(digest)
    summary = {
        "benchmark": "boot_to_ready",
        "scale": "smoke",
        "cpu_count": os.cpu_count(),
        "boot_s": {"cold": _summary(cold), "warm": _summary(warm)},
        "warm_speedup": round(statistics.median(cold) / statistics.median(warm), 2),
        "digests_match": len(digests) == 1,
        "transcript_digest": sorted(digests)[0],
    }
    RESULT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def test_boot_to_ready():
    """Warm boots must serve the cold boot's exact transcript."""
    summary = run_benchmark()
    print(
        f"\n[Boot] cold {summary['boot_s']['cold']['median']} s, warm "
        f"{summary['boot_s']['warm']['median']} s ({summary['warm_speedup']}x); "
        f"digests match: {summary['digests_match']}"
    )
    assert summary["digests_match"], "a warm boot served a different transcript"


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
