"""Service-tier overhead: supervised daemon vs. direct in-process run.

The supervised service buys durability (journal fsync per trial,
durable cache publishes, lease heartbeats, queue/stream appends) and
crash recovery on top of the same deterministic trials.  This bench
measures what that costs end-to-end — same grid through (a) the serial
in-process runner, (b) the service with full durability, (c) the
service with journal fsync off — and asserts the results are
bit-identical across all three paths.

No wall-clock floor is asserted (CI runners are noisy, and an 8-trial
grid is too small to time reliably); the acceptance assertion is the
bit-identity, the numbers are the report.  ``BENCH_service_overhead.json``
carries the trial count, the per-trial milliseconds of each path, and
whether the three results are identical.
"""

import tempfile
import time

import pytest

from repro.runner import SerialSweepRunner
from repro.runner.spec import expand_grid
from repro.service import ServiceClient, SweepSupervisor
from repro.service.codec import result_signature

from _common import emit_report

VICTIMS = ["gdnpeu", "gdmshr"]
SCHEMES = ["dom-nontso", "fence-spectre"]


def _service_run(specs, *, journal_fsync):
    with tempfile.TemporaryDirectory(prefix="repro-svc-bench-") as service_dir:
        client = ServiceClient(service_dir)
        job_id = client.submit(specs)
        supervisor = SweepSupervisor(
            service_dir,
            workers=2,
            chunksize=4,
            poll_interval=0.005,
            journal_fsync=journal_fsync,
        )
        start = time.perf_counter()
        try:
            supervisor.run_until_idle(timeout=300.0)
        finally:
            supervisor.shutdown()  # no worker outlives the directory
        elapsed = time.perf_counter() - start
        return client.result(job_id), elapsed


def service_overhead():
    specs = expand_grid(VICTIMS, SCHEMES)
    start = time.perf_counter()
    direct = SerialSweepRunner().run(specs)
    direct_s = time.perf_counter() - start
    durable, durable_s = _service_run(specs, journal_fsync=True)
    fast, fast_s = _service_run(specs, journal_fsync=False)
    return specs, (direct, direct_s), (durable, durable_s), (fast, fast_s)


@pytest.mark.benchmark(group="service")
def test_bench_service_overhead(benchmark):
    specs, direct, durable, fast = benchmark.pedantic(
        service_overhead, rounds=1, iterations=1
    )
    (direct_res, direct_s) = direct
    (durable_res, durable_s) = durable
    (fast_res, fast_s) = fast
    n = len(specs)

    def per_trial(seconds):
        return f"{seconds / n * 1e3:7.1f} ms/trial"

    lines = [
        "Service-tier overhead (same grid, three execution paths)",
        f"  grid:                {n} trials "
        f"({len(VICTIMS)} victims x {len(SCHEMES)} schemes x 2 secrets)",
        f"  direct serial:       {direct_s:6.2f} s  {per_trial(direct_s)}",
        f"  service (fsync on):  {durable_s:6.2f} s  {per_trial(durable_s)}"
        f"  ({durable_s / direct_s:4.1f}x direct)",
        f"  service (fsync off): {fast_s:6.2f} s  {per_trial(fast_s)}"
        f"  ({fast_s / direct_s:4.1f}x direct)",
        "",
        "The service path spawns real worker processes and pays a journal",
        "fsync per trial when durability is on; the overhead amortizes as",
        "trials grow and is the price of SIGKILL-anywhere recovery.",
    ]
    reference = result_signature(direct_res.outcomes)
    durable_sig = result_signature(durable_res.outcomes)
    fast_sig = result_signature(fast_res.outcomes)
    emit_report(
        "service_overhead",
        "\n".join(lines),
        data={
            "trials": n,
            "ms_per_trial": {
                "direct": round(direct_s / n * 1e3, 1),
                "fsync_on": round(durable_s / n * 1e3, 1),
                "fsync_off": round(fast_s / n * 1e3, 1),
            },
            "identical": durable_sig == reference and fast_sig == reference,
        },
    )

    # Acceptance: all three paths produce the same result, bit-identical.
    assert durable_sig == reference
    assert fast_sig == reference
    assert not direct_res.failures


if __name__ == "__main__":
    specs, direct, durable, fast = service_overhead()
    print(
        f"direct={direct[1]:.2f}s durable={durable[1]:.2f}s "
        f"fast={fast[1]:.2f}s over {len(specs)} trials"
    )
