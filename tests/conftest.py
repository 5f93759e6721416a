import sys

import pytest


def clear_memos():
    """Empty every functools cache in the namespaces of the loaded symgraph modules.

    A module not yet imported holds no memo, so the loaded ones are all of
    them.  Returns the caches it emptied, each once.
    """
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "symgraph" or name.startswith("symgraph."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    for cache in caches.values():
        cache.cache_clear()
    return list(caches.values())


@pytest.fixture(autouse=True)
def _empty_memos():
    # every test starts from empty memos, so no test reads what an earlier one stored
    clear_memos()
