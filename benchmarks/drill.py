"""Shared harness for the serve drills: start a real server, drain it.

Each drill runs as ``python benchmarks/<drill>.py``, which puts this
directory on ``sys.path``, so the drills import it as a sibling module.
"""

import signal
import subprocess
import sys
from pathlib import Path

from repro.serve import read_port_file, wait_for_server


def start_server(out, *extra, workers=2):
    """Spawn ``python -m repro serve`` writing under ``out``; ``extra``
    passes per-drill flags through.  Returns ``(proc, port)`` once the
    server answers."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    port_file = out / "port.txt"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--cache-dir", str(out / "cache"),
            "--out", str(out),
            "--port-file", str(port_file),
            "--workers", str(workers),
            *map(str, extra),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        port = read_port_file(port_file, timeout_s=60.0)
        wait_for_server("127.0.0.1", port, timeout_s=60.0)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, port


def drain(proc):
    """SIGTERM the server; it must exit 0 with its "drained" summary.
    Returns the server's output.  A server that already exited fails the
    drill with whatever it printed."""
    if proc.poll() is not None:
        output, _ = proc.communicate()
        raise AssertionError(f"server died early:\n{output}")
    proc.send_signal(signal.SIGTERM)
    output, _ = proc.communicate(timeout=120.0)
    assert proc.returncode == 0, f"server exited {proc.returncode}:\n{output}"
    assert "drained" in output, f"clean-shutdown summary missing:\n{output}"
    return output
