"""Shared helpers for the analysis-server tests: an in-process daemon
behind a real TCP socket (loopback, ephemeral port), so the tests cover
the actual wire path without subprocess plumbing.

Every test here fails on an unclosed socket: the harness closes the
clients it hands out, so a socket the daemon or the client library
leaks stands out.  (Python reports an unclosed socket from its
finalizer, where the warning cannot propagate; pytest re-issues it as
an unraisable-exception warning, which fails the test too.)"""

import threading
from pathlib import Path

import pytest

from repro.server.client import ServerClient
from repro.server.daemon import AnalysisDaemon, create_server


_HERE = Path(__file__).parent

#: turn an unclosed-socket ResourceWarning into a test failure
_NO_SOCKET_LEAKS = (
    pytest.mark.filterwarnings("error:unclosed <socket:ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in Path(item.fspath).parents:
            for mark in _NO_SOCKET_LEAKS:
                item.add_marker(mark)


class DaemonHarness:
    def __init__(self, project_root, **daemon_kwargs):
        self.daemon = AnalysisDaemon(project_root, **daemon_kwargs)
        self.server = create_server(self.daemon, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        self.port = self.server.server_address[1]
        self.clients: list[ServerClient] = []

    def client(self, **kwargs) -> ServerClient:
        client = ServerClient(port=self.port, **kwargs).connect()
        self.clients.append(client)
        return client

    def stop(self):
        for client in self.clients:
            client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


@pytest.fixture
def start_daemon():
    harnesses = []

    def _start(project_root, **daemon_kwargs) -> DaemonHarness:
        harness = DaemonHarness(project_root, **daemon_kwargs)
        harnesses.append(harness)
        return harness

    yield _start
    for harness in harnesses:
        harness.stop()
