"""REP009 direct-call silent fixture: the executor idiom and compliant shapes."""

import asyncio
import json
from pathlib import Path


def _read_blocking(path: Path) -> str:
    # Blocking work lives in a sync helper; only the executor runs it.
    return path.read_text()


async def reads_via_executor(path: Path) -> str:
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, _read_blocking, path)


async def pure_coroutine(payload: bytes) -> dict:
    # Parsing and awaitable sleeps never touch the blocking set.
    await asyncio.sleep(0)
    return json.loads(payload)


async def awaited_open(aio_files, path):
    # An awaited call is an async API, whatever its name.
    return await aio_files.open(path)
