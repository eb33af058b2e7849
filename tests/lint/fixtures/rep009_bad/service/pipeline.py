"""REP009 fire fixture: blocking work laundered through sync helpers.

Expected REP009 findings (3):
* the direct ``time.sleep`` (the case that needs no call edges, so a
  single-file, graph-cold run still sees it);
* the call into ``_load_manifest`` (same file), whose body opens a
  file;
* the call into ``rep009_bad.helpers.slow_transform`` (cross-module),
  whose body sleeps.
"""

import json
import time

from rep009_bad.helpers import slow_transform


def _load_manifest(path):
    with open(path) as fh:
        return json.load(fh)


class Pipeline:
    async def handle(self, path, rows):
        time.sleep(0.05)
        manifest = _load_manifest(path)
        rows = slow_transform(rows)
        return manifest, rows
