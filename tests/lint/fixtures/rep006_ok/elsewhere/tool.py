"""REP009 scope fixture: async code outside repro/service/ is not
this rule's business (there is no event loop contract to protect)."""

import time


async def out_of_scope_sleep():
    time.sleep(0.01)
