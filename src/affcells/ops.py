"""Call counts of the library operations that verification must exercise:
``@op`` counts a function's calls in CALLS under ``"<module>.<qualname>"``."""

from functools import wraps

CALLS: dict[str, int] = {}


def op(fn):
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
    CALLS[name] = 0

    @wraps(fn)
    def counted(*args, **kwargs):
        CALLS[name] += 1
        return fn(*args, **kwargs)

    return counted
