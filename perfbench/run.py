#!/usr/bin/env python3
"""End-to-end serving benchmark: boot ``repro serve --listen``, drive it over TCP.

Usage, from the repository root::

    python3 perfbench/run.py --workload chat_flood --seed 0 --seconds 30 --trace 0

Every run boots the real server as a subprocess (``--scale smoke``, fixed
model seed, one BLAS thread), drives it from this single-threaded asyncio
process over at most ``nproc`` (max 2) connections, drains it with the
``shutdown`` op and checks its outputs: the server's ``transcript_digest``
must equal the digest recomputed from the frames the client received, and
for the seed and length in ``perfbench/digests.json`` also the recorded one.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
Set-up time is the median of ``SETUP_BOOTS`` boots; the last boot is the
one that serves the load.  ``--trace 1`` runs the load twice, untraced and
then under ``perfbench/launcher.py``, and reports the per-layer metrics of
the traced run plus ``trace.overhead.<metric>`` (traced minus untraced).
The workloads, and what each layer metric should move on which workload,
are described in ``perfbench/PLAN.md``.

Human-readable lines (settings, traffic shape, output checks, each metric
with its unit) come first; the last line of standard output is the
JSON result.  Run artifacts, the Chrome trace-event span file of a traced
run included, are kept under ``.perfbench/<workload>-trace<0|1>/``.
Exit status: 0 after a completed run (``"correct"`` says whether the
output checks passed), 1 when a run could not be completed, 2 when the
repository's sources are missing or an argument is invalid.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: BLAS threads of both processes: the server must not contend with the
#: client for the two cores, and the setting must be the same on every run.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"

SETUP_BOOTS = 3
#: Latency percentiles are taken per block of consecutive requests and
#: reported as the median over at most ``BLOCKS`` blocks of at least
#: ``MIN_BLOCK`` requests each (see :func:`percentile`).
BLOCKS = 24
MIN_BLOCK = 48
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: With two or more CPUs the server is pinned to the first and this client
#: to the second, so the two processes never preempt each other.
PIN = hasattr(os, "sched_setaffinity") and (os.cpu_count() or 1) >= 2
SERVER_CPUS = {0}
CLIENT_CPUS = {1}
HOST = "127.0.0.1"
#: Time limits (seconds) that keep a stuck run well inside the 180 s a run
#: may take; a boot takes about 5 s.  The window, its probe parts
#: included, may take twice ``--seconds`` plus ``PHASE_TIMEOUT``; the
#: warm-up, the probe parts together and the drain ``PHASE_TIMEOUT`` each.
BOOT_TIMEOUT = 30.0
PHASE_TIMEOUT = 15.0


class BenchError(RuntimeError):
    """The run could not be completed."""


# ---------------------------------------------------------------------- #
# the server process
# ---------------------------------------------------------------------- #
def server_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


class Server:
    """One ``repro serve --listen`` subprocess and its run directory."""

    def __init__(self, run_dir: Path, workload, traced: bool) -> None:
        from workloads import MAX_BATCH, MAX_INFLIGHT, MAX_QUEUE_DEPTH, SERVER_SEED

        run_dir.mkdir(parents=True)
        self.run_dir = run_dir
        self.out = run_dir / "out"
        self.state = run_dir / "state" if workload.durable else None
        self.port_file = run_dir / "port"
        self.summary = run_dir / "trace_summary.json"
        argv = [
            "serve", "--listen", f"{HOST}:0", "--port-file", str(self.port_file),
            "--out", str(self.out), "--scale", "smoke", "--seed", str(SERVER_SEED),
            "--quiet", "--cache-capacity", str(workload.cache_capacity),
            "--max-batch", str(MAX_BATCH), "--max-inflight", str(MAX_INFLIGHT),
            "--max-queue-depth", str(MAX_QUEUE_DEPTH),
        ]
        if self.state is not None:
            argv += ["--state-dir", str(self.state)]
        if traced:
            command = [sys.executable, str(HERE / "launcher.py"),
                       "--spans", str(run_dir / "spans.json"),
                       "--summary", str(self.summary), *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        self.log = (run_dir / "server.log").open("wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=server_env(), stdout=self.log, stderr=subprocess.STDOUT,
            preexec_fn=(lambda: os.sched_setaffinity(0, SERVER_CPUS)) if PIN else None,
        )
        self.setup_s: Optional[float] = None

    def wait_ready(self) -> int:
        """Block until the port file is written; records ``setup_s``."""
        deadline = self.started + BOOT_TIMEOUT
        while True:
            if self.port_file.is_file():
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    self.setup_s = time.perf_counter() - self.started
                    return int(text)
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited with {self.process.returncode} during boot "
                    f"(log: {self.run_dir / 'server.log'})"
                )
            if time.perf_counter() > deadline:
                raise BenchError(f"server not ready after {BOOT_TIMEOUT:.0f}s")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def finish(self) -> int:
        """Wait for the drained server to exit; returns its exit code."""
        try:
            return self.process.wait(PHASE_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"server did not exit within {PHASE_TIMEOUT:.0f}s") from None

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.log.close()

    def result(self) -> dict:
        path = self.out / "serve_result.json"
        if not path.is_file():
            raise BenchError(f"server wrote no {path}")
        return json.loads(path.read_text())

    def metrics_snapshot(self) -> dict:
        path = self.out / "metrics.json"
        return json.loads(path.read_text()) if path.is_file() else {}

    def state_bytes(self) -> int:
        roots = [self.out / "adapters"] + ([self.state] if self.state is not None else [])
        return sum(
            path.stat().st_size
            for root in roots if root.is_dir()
            for path in root.rglob("*") if path.is_file()
        )


# ---------------------------------------------------------------------- #
# one pass: boot, drive, drain, check
# ---------------------------------------------------------------------- #
@dataclass
class Pass:
    setup_s: List[float]
    warmup: list
    window: list
    probe: list
    window_s: float
    peak_rss_mb: float
    state_bytes: int
    exit_code: int
    server_result: dict
    server_metrics: dict
    summary_path: Optional[Path] = None
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def records(self) -> list:
        """Every request of the pass, warm-up and probe included."""
        return self.warmup + self.window + self.probe


async def _shutdown(port: int) -> None:
    from loadclient import LoadClient

    client = LoadClient(HOST, port, 1)
    await client.open()
    await client.request({"op": "shutdown"}, PHASE_TIMEOUT)
    await client.close()


async def _drive(plan, port: int, peak_rss: Callable[[], float]):
    from loadclient import LoadClient

    client = LoadClient(HOST, port, CONNECTIONS)
    await client.open()
    warmup = await client.run_sequential(plan.warmup_ops, PHASE_TIMEOUT)
    deadline = time.perf_counter() + PHASE_TIMEOUT + 2 * plan.seconds
    probe_budget = PHASE_TIMEOUT
    window: list = []
    probe: list = []
    window_s = 0.0
    for chats, jobs in plan.rounds():
        started = time.perf_counter()
        records = await client.run_closed(
            chats, plan.workload.window, max(0.0, deadline - started)
        )
        finished = [record.finished for record in records if record.finished is not None]
        window_s += (max(finished) if finished else time.perf_counter()) - started
        window += records
        started = time.perf_counter()
        probe += await client.run_sequential(jobs, probe_budget)
        probe_budget -= time.perf_counter() - started
    rss = peak_rss()
    await client.request({"op": "shutdown"}, PHASE_TIMEOUT)
    await client.close()
    return warmup, window, probe, window_s, rss


def run_pass(plan, run_dir: Path, traced: bool, boots: int) -> Pass:
    """Boot ``boots`` servers (the last one serves ``plan``) and check the run."""
    setup: List[float] = []
    for index in range(boots - 1):
        server = Server(run_dir / f"boot{index}", plan.workload, traced)
        try:
            port = server.wait_ready()
            setup.append(server.setup_s)
            asyncio.run(_shutdown(port))
            server.finish()
        finally:
            server.stop()
    server = Server(run_dir / "serve", plan.workload, traced)
    try:
        port = server.wait_ready()
        setup.append(server.setup_s)
        warmup, window, probe, window_s, rss = asyncio.run(
            _drive(plan, port, server.peak_rss_mb)
        )
        exit_code = server.finish()
    finally:
        server.stop()
    result = server.result()
    outcome = Pass(
        setup_s=setup, warmup=warmup, window=window, probe=probe, window_s=window_s,
        peak_rss_mb=rss, state_bytes=server.state_bytes(), exit_code=exit_code,
        server_result=result,
        server_metrics=server.metrics_snapshot(),
        summary_path=server.summary if traced else None,
    )
    outcome.checks = check_outputs(plan, outcome)
    return outcome


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def client_digest(records: list) -> Optional[str]:
    """The normalized transcript digest rebuilt from the client's frames.

    Mirrors the server's: entries keyed by ``(user_id, per-user seq)``,
    where the sequence counts the user's *admitted* requests in send order
    (``busy`` and ``error`` refusals never reach the scheduler).  Returns
    None when some sent request was never answered.
    """
    seqs: Dict[str, int] = {}
    entries = []
    sent = sorted((r for r in records if r.sent is not None), key=lambda r: r.sent)
    for record in sent:
        if record.outcome is None:
            return None
        if record.outcome in ("busy", "error"):
            continue
        user = record.op.user
        seq = seqs.get(user, 0)
        seqs[user] = seq + 1
        frame = record.frame
        entry = {"user_id": user, "kind": record.op.kind, "user_seq": seq}
        if record.outcome == "dead_letter":
            entry.update(dead_letter=True, error=frame.get("error"), reason=frame.get("reason"))
        elif record.op.kind == "chat":
            entry.update(question=record.op.payload["question"], response=frame["response"])
            if frame.get("degraded"):
                entry["degraded"] = True
        else:
            for key in ("offered", "accepted", "finetuned", "final_loss"):
                entry[key] = frame.get(key)
        entries.append(entry)
    entries.sort(key=lambda entry: (entry["user_id"], entry["user_seq"]))
    encoded = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def recorded_digest(plan) -> Optional[str]:
    """The digest recorded for this workload, seed and length, if any."""
    recorded = json.loads((HERE / "digests.json").read_text())
    if plan.seed != recorded["seed"] or plan.seconds != recorded["seconds"]:
        return None
    return recorded["digests"].get(plan.workload.name)


def check_outputs(plan, run: Pass) -> Dict[str, bool]:
    records = run.records
    server_digest = run.server_result.get("transcript_digest")
    checks = {
        "server_exit_0": run.exit_code == 0,
        "digest_client_vs_server": client_digest(records) == server_digest,
        "request_count": run.server_result.get("total_requests")
        == sum(1 for r in records if r.outcome in ("done", "dead_letter")),
    }
    expected = recorded_digest(plan)
    if expected is not None:
        checks["digest_recorded"] = server_digest == expected
    return checks


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (in send order), block by block.

    The values are cut into consecutive blocks (at most ``BLOCKS``, each of
    at least ``MIN_BLOCK`` values) and the median of the blocks' ``q``-th
    percentiles is returned.  A host stall that covers a small part of the
    run moves one block's tail, not the result; a slowdown of the program
    that recurs throughout the run moves every block, and so the result.
    """
    import numpy as np

    blocks = max(1, min(BLOCKS, len(values) // MIN_BLOCK))
    return float(np.median([np.percentile(block, q)
                            for block in np.array_split(np.asarray(values), blocks)]))


def failures(records: list) -> int:
    return sum(1 for record in records if record.sent is not None and not record.ok)


def e2e_metrics(plan, run: Pass) -> Dict[str, float]:
    """The end-to-end metrics of one pass (see PLAN.md for definitions)."""
    # A failed request counts as missing every latency limit: it takes the
    # longest latency a run can observe, its whole window.
    miss_ms = 1e3 * max(run.window_s, plan.seconds)

    def latency(record) -> float:
        return 1e3 * (record.finished - record.sent) if record.ok else miss_ms

    def ttft(record) -> float:
        if not record.ok:
            return miss_ms
        return 1e3 * ((record.first_token or record.finished) - record.sent)

    def sent(records: list, kind: str) -> list:
        chosen = [r for r in records if r.op.kind == kind and r.sent is not None]
        return sorted(chosen, key=lambda r: r.sent)

    chats = sent(run.window, "chat")
    personalize = sent(run.window + run.probe, "personalize")
    if not chats or not personalize:
        raise BenchError("run sent no chat or no personalize request")
    chat_latency = [latency(r) for r in chats]
    chat_ttft = [ttft(r) for r in chats]
    finetune = [latency(r) for r in personalize]
    completed = [r for r in chats if r.ok]
    tokens = sum(len(r.frame.get("response", "").split()) for r in completed)
    return {
        "setup_s": statistics.median(run.setup_s),
        "ttft_p50_ms": percentile(chat_ttft, 50),
        "ttft_p99_ms": percentile(chat_ttft, 99),
        "latency_p50_ms": percentile(chat_latency, 50),
        "latency_p90_ms": percentile(chat_latency, 90),
        "latency_p99_ms": percentile(chat_latency, 99),
        "finetune_p50_ms": percentile(finetune, 50),
        "finetune_p90_ms": percentile(finetune, 90),
        "requests_per_s": len(completed) / run.window_s,
        "tokens_per_s": tokens / run.window_s,
        "peak_rss_mb": run.peak_rss_mb,
        "state_mb": run.state_bytes / 1e6,
    }


def traffic_shape(run: Pass) -> dict:
    """Measured input properties of the window (what the layers saw)."""
    counters = run.server_metrics.get("counters", {})
    hits = counters.get("store_hits_total", 0)
    misses = counters.get("store_misses_total", 0)
    occupancy = run.server_metrics.get("histograms", {}).get("batch_occupancy", {})
    window = [r for r in run.window if r.sent is not None]
    chats = [r for r in window if r.op.kind == "chat" and r.ok]
    return {
        "requests": len(window),
        "personalize_share": sum(1 for r in window if r.op.kind == "personalize")
        / max(1, len(window)),
        "tokens_per_response": sum(len(r.frame["response"].split()) for r in chats)
        / max(1, len(chats)),
        "adapter_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "rows_per_batch": occupancy.get("sum", 0.0) / occupancy["count"]
        if occupancy.get("count") else 0.0,
    }


def host_record(plan) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    workload = plan.workload
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "connections": CONNECTIONS,
        "workload": workload.name,
        "in_flight_per_user": workload.window,
        "nominal_rate_per_s": workload.nominal_rate,
        "users": workload.users,
        "cache_capacity": workload.cache_capacity,
        "durable": workload.durable,
        "seed": plan.seed,
        "seconds": plan.seconds,
    }


def write_requests(path: Path, run: Pass) -> None:
    """One line per request of the pass: timings relative to the first send."""
    sent = [r for r in run.records if r.sent is not None]
    origin = min((r.sent for r in sent), default=0.0)

    def offset(stamp: Optional[float]) -> Optional[float]:
        return None if stamp is None else round(stamp - origin, 6)

    with path.open("w") as handle:
        for r in sent:
            handle.write(json.dumps({
                "index": r.op.index, "user": r.op.user, "kind": r.op.kind,
                "phase": r.op.phase, "outcome": r.outcome,
                "sent": offset(r.sent), "first_token": offset(r.first_token),
                "finished": offset(r.finished), "tokens": r.tokens,
            }) + "\n")


# ---------------------------------------------------------------------- #
# the command
# ---------------------------------------------------------------------- #
def declared_metrics(section: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def report(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metric set differs from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="load seed")
    parser.add_argument("--seconds", type=int, default=30, help="measured window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: repository sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS, build_plan

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    plan = build_plan(WORKLOADS[args.workload], args.seed, args.seconds)
    if PIN:
        os.sched_setaffinity(0, CLIENT_CPUS)
    run_dir = RUNS / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    record: Dict[str, object] = {"settings": host_record(plan)}
    if args.trace == 0:
        passes = [run_pass(plan, run_dir, traced=False, boots=SETUP_BOOTS)]
        values = e2e_metrics(plan, passes[0])
        metrics = report(values, declared_metrics("end_to_end"))
    else:
        from launcher import layer_metrics

        untraced = run_pass(plan, run_dir / "untraced", traced=False, boots=1)
        traced = run_pass(plan, run_dir / "traced", traced=True, boots=1)
        passes = [untraced, traced]
        summary = json.loads(traced.summary_path.read_text())
        values = layer_metrics(summary)
        baseline = e2e_metrics(plan, untraced)
        for name, value in e2e_metrics(plan, traced).items():
            values[f"trace.overhead.{name}"] = value - baseline[name]
        metrics = report(values, declared_metrics("per_layer"))
        record["spans"] = str(traced.summary_path.parent / "spans.json")

    records = [r for run in passes for r in run.records if r.sent is not None]
    checks = {f"pass{index}.{name}": ok
              for index, run in enumerate(passes) for name, ok in run.checks.items()}
    record.update(
        shape=traffic_shape(passes[-1]),
        checks=checks,
        error_rate=failures(records) / len(records),
    )
    result = {
        "correct": all(checks.values()),
        "attempted": len(records),
        "failed": failures(records),
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps({**record, **result}, indent=2) + "\n")
    write_requests(run_dir / "requests.jsonl", passes[-1])
    for key in ("settings", "shape", "checks"):
        print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    print(f"error_rate: {record['error_rate']:.6f} fraction")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
