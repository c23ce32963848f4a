"""Stopping the compile service, the cache peer and the gateway.

A stop must not wait on a client that keeps an idle keep-alive
connection open: not the in-process thread harnesses, and not the
``repro serve`` / ``cache-serve`` / ``gateway`` processes on SIGTERM.
On Python 3.12 ``asyncio.Server.wait_closed()`` waits for every open
connection, so a handler parked on an idle read would hold the stop.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.gateway import Gateway, GatewayClient, GatewayCluster, GatewayThread
from repro.service import (
    CachePeerThread,
    Client,
    RemoteCache,
    ServiceThread,
)
from repro.sweep import CompileCache

# -- the CLIs on SIGTERM --------------------------------------------------------

#: command -> (extra argv, announce-line pattern, idle client factory)
CLI_CASES = {
    "serve": (
        ["--no-cache"],
        r"compile service on ([\d.]+):(\d+)",
        lambda host, port: Client(host, port, timeout=10.0),
    ),
    "cache-serve": (
        ["--cache-dir", "{tmp}"],
        r"cache peer on ([\d.]+):(\d+)",
        lambda host, port: RemoteCache(host, port, timeout=10.0),
    ),
    "gateway": (
        ["--shards", "1", "--cache-dir", "{tmp}"],
        r"listening on http://([\d.]+):(\d+)",
        lambda host, port: GatewayClient(host, port, timeout=10.0),
    ),
}


def _announced_address(log: Path, pattern: str, proc, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        match = re.search(pattern, log.read_text())
        if match:
            return match.group(1), int(match.group(2))
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    raise AssertionError(f"no announce line; output so far:\n{log.read_text()}")


@pytest.mark.parametrize("command", sorted(CLI_CASES))
def test_sigterm_with_idle_client_exits_zero(command, tmp_path):
    extra, pattern, make_client = CLI_CASES[command]
    argv = [arg.replace("{tmp}", str(tmp_path / "state")) for arg in extra]
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    log = tmp_path / "out.log"
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", command, "--port", "0", *argv],
            stdout=out,
            stderr=subprocess.STDOUT,
            env=env,
        )
    try:
        host, port = _announced_address(log, pattern, proc)
        with make_client(host, port) as client:
            assert client.ping()  # the connection now idles in keep-alive
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5.0) == 0, log.read_text()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if command == "gateway":
        assert "shutting down" in log.read_text()


# -- the thread harnesses -------------------------------------------------------


def _service(stack, tmp_path):
    thread = stack(ServiceThread(jobs=1, allow_shutdown=False))
    return thread, Client(*thread.address, timeout=10.0)


def _peer(stack, tmp_path):
    thread = stack(CachePeerThread(cache=CompileCache(tmp_path / "peer")))
    return thread, RemoteCache(*thread.address, timeout=10.0)


def _gateway(stack, tmp_path):
    backend = stack(ServiceThread(jobs=1, allow_shutdown=False))
    thread = stack(GatewayThread(backends=[backend.address]))
    return thread, GatewayClient(*thread.address, timeout=10.0)


@pytest.mark.parametrize("boot", [_service, _peer, _gateway], ids=lambda f: f.__name__[1:])
def test_stop_returns_with_an_idle_client_connected(boot, tmp_path):
    started = []

    def stack(harness):
        started.append(harness.start())
        return harness

    try:
        thread, client = boot(stack, tmp_path)
        with client:
            assert client.ping()
            began = time.monotonic()
            thread.stop()
            elapsed = time.monotonic() - began
        assert not thread._thread.is_alive()
        assert elapsed < 2.0, f"stop took {elapsed:.1f}s"
    finally:
        for harness in reversed(started):
            harness.stop()


_UNSTARTED = {
    "service": lambda tmp: ServiceThread(),
    "peer": lambda tmp: CachePeerThread(),
    "gateway": lambda tmp: GatewayThread(backends=[]),
    "cluster": lambda tmp: GatewayCluster(shards=1, cache_dir=str(tmp)),
}


@pytest.mark.parametrize("name", sorted(_UNSTARTED))
def test_address_before_start_raises(name, tmp_path):
    with pytest.raises(RuntimeError, match="not started"):
        _UNSTARTED[name](tmp_path).address


@pytest.mark.parametrize("name", ["cluster", "gateway"])
@pytest.mark.parametrize("action", ["kill_shard", "revive_shard"])
def test_shard_controls_before_start_raise(name, action, tmp_path):
    with pytest.raises(RuntimeError, match="not started"):
        getattr(_UNSTARTED[name](tmp_path), action)(0)


def test_unstarted_gateway_address_raises():
    gateway = Gateway(backends=[("127.0.0.1", 9)])
    try:
        with pytest.raises(RuntimeError, match="gateway is not started"):
            gateway.address
    finally:
        gateway.store.close()
