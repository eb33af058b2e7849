"""REP009 direct-call fire fixture: blocking calls on the event loop.

Every async function here stalls the loop in a different way; the
checker must flag all six call sites.
"""

import socket
import subprocess
import time
from pathlib import Path

import requests


async def naps_on_the_loop():
    time.sleep(0.5)  # 1: blocks every client for half a second


async def reads_a_file(path):
    with open(path) as handle:  # 2: disk I/O on the loop
        return handle.read()


async def reads_a_path(path: Path):
    return path.read_text()  # 3: pathlib convenience I/O


async def shells_out():
    return subprocess.run(["true"], check=True)  # 4: waits on a child


async def fetches():
    return requests.get("http://localhost/health")  # 5: network round-trip


async def dials_out(host, port):
    return socket.create_connection((host, port))  # 6: blocking connect


def sync_helper_is_fine(path: Path):
    # Not async: the caller decides which thread runs this.
    return path.read_text()
