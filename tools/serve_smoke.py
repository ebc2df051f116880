#!/usr/bin/env python3
"""End-to-end smoke gate for cavenet-serve (docs/SERVING.md).

Boots the daemon on an ephemeral port with a fresh state dir, submits
examples/specs/fig8_aodv.json twice, and checks the whole serving story:

  1. the first submission simulates (cold cache) and completes;
  2. the second submission is a 100% cache hit (zero units executed);
  3. both jobs' artifacts are byte-identical to a direct
     `cavenet-run --output-dir` of the same spec;
  4. the daemon restarts on the same state dir and replays both jobs
     as done without re-running anything;
  5. every SIGTERM stop is a clean exit (code 0).

Usage: serve_smoke.py <cavenet-serve> <cavenet-run> <fig8_spec.json>

Exit code 0 on success; any failure prints the offending check and
exits 1. Stdlib only (urllib, subprocess, tempfile).
"""

import json
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def http(port, method, target, body=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{target}", data=body, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read()


class Daemon:
    """cavenet-serve child process; scrapes the bound port from stdout."""

    def __init__(self, binary, state_dir):
        self.process = subprocess.Popen(
            [binary, "--state-dir", str(state_dir), "--workers", "2",
             "--heartbeat", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.port = None
        self.output = []
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            self.output.append(line)
            if "listening on 127.0.0.1:" in line:
                self.port = int(line.rsplit(":", 1)[1])
                return
        fail("daemon did not report a listening port")

    def stop(self):
        """SIGTERM, then require a clean exit (code 0) within 20 s."""
        self.process.terminate()
        try:
            rest, _ = self.process.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            fail("daemon did not stop on SIGTERM")
        if self.process.returncode != 0:
            output = "".join(self.output) + rest
            fail(f"daemon exited with code {self.process.returncode} on "
                 f"SIGTERM; its output:\n{output}")


def wait_done(port, job_id):
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        _, body = http(port, "GET", f"/v1/jobs/{job_id}")
        status = json.loads(body)
        if status["state"] == "done":
            return status
        if status["state"] in ("failed", "cancelled"):
            fail(f"job {job_id} reached state {status['state']}: "
                 f"{status.get('error', '')}")
        time.sleep(0.1)
    fail(f"job {job_id} did not finish in time")


def check_artifacts(port, job_id, status, direct_dir):
    if not status["files"]:
        fail(f"job {job_id} reported no artifacts")
    for name in status["files"]:
        code, served = http(port, "GET", f"/v1/jobs/{job_id}/results/{name}")
        if code != 200:
            fail(f"GET results/{name} for {job_id} returned {code}")
        direct = (direct_dir / name).read_bytes()
        if served != direct:
            fail(f"job {job_id} artifact {name} differs from direct "
                 f"cavenet-run bytes ({len(served)} vs {len(direct)})")


def main():
    if len(sys.argv) != 4:
        fail(f"usage: {sys.argv[0]} <cavenet-serve> <cavenet-run> <spec.json>")
    serve_bin, run_bin, spec_path = sys.argv[1:]
    spec_bytes = Path(spec_path).read_bytes()

    with tempfile.TemporaryDirectory(prefix="cavenet-serve-smoke-") as tmp:
        tmp = Path(tmp)
        # The ground truth: a direct run of the same spec.
        direct_dir = tmp / "direct"
        direct_dir.mkdir()
        result = subprocess.run(
            [run_bin, spec_path, "--output-dir", str(direct_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if result.returncode != 0:
            fail(f"direct cavenet-run failed: {result.stderr}")

        daemon = Daemon(serve_bin, tmp / "state")

        # Cold submission: simulates, then serves bytes == direct run.
        code, body = http(daemon.port, "POST", "/v1/jobs", spec_bytes)
        if code != 201:
            fail(f"first submit returned {code}")
        first = json.loads(body)["job"]
        first_status = wait_done(daemon.port, first)
        if first_status["cache_hits"] != 0:
            fail("first submission hit the cache in a fresh state dir")
        check_artifacts(daemon.port, first, first_status, direct_dir)

        # Warm submission: must be a 100% cache hit, still byte-identical.
        _, before = http(daemon.port, "GET", "/v1/stats")
        executed_before = json.loads(before)["counters"].get(
            "serve.units.executed", 0)
        code, body = http(daemon.port, "POST", "/v1/jobs", spec_bytes)
        if code != 201:
            fail(f"second submit returned {code}")
        second = json.loads(body)["job"]
        second_status = wait_done(daemon.port, second)
        if second_status["cache_hits"] != second_status["units"]:
            fail(f"second submission was not a full cache hit: "
                 f"{second_status['cache_hits']}/{second_status['units']}")
        check_artifacts(daemon.port, second, second_status, direct_dir)
        _, after = http(daemon.port, "GET", "/v1/stats")
        executed_after = json.loads(after)["counters"].get(
            "serve.units.executed", 0)
        if executed_after != executed_before:
            fail("second submission executed units despite a warm cache")

        daemon.stop()

        # Restart on the same state dir: the journal replays both jobs as
        # done, artifacts still served, nothing re-simulated.
        daemon = Daemon(serve_bin, tmp / "state")
        _, body = http(daemon.port, "GET", "/v1/jobs")
        replayed = json.loads(body)["jobs"]
        if [job["job"] for job in replayed] != [first, second]:
            fail(f"replay lost jobs: {[job['job'] for job in replayed]}")
        if any(job["state"] != "done" for job in replayed):
            fail("replay did not restore jobs as done")
        check_artifacts(daemon.port, first, replayed[0], direct_dir)
        daemon.stop()

    print("serve_smoke: OK")


if __name__ == "__main__":
    main()
