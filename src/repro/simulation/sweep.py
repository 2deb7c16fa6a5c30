"""Independent runs across cores: an ordered process-pool map.

A single simulation is one event loop on one core.  What parallelises
cleanly is a *sweep* -- a seed grid, a scenario matrix -- where every run
is independent and needs no merge.  :func:`map_ordered` spreads such runs
over spawned worker processes and hands the results back in input order,
so a sweep returns exactly what the serial loop ``[fn(item) for item in
items]`` returns.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, TypeVar

__all__ = ["map_ordered", "usable_cores"]

T = TypeVar("T")
R = TypeVar("R")


def usable_cores() -> int:
    """CPU cores this process may run on (its affinity mask where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
    """``[fn(item) for item in items]``, one worker process per usable core.

    ``fn`` and every item must pickle (a module-level function, plain
    data).  With one item or one usable core the map runs inline and spawns
    nothing.  An exception raised for an item propagates with a note naming
    that item's index and value; items not yet started are cancelled.
    """
    items = list(items)
    workers = min(len(items), usable_cores())
    if workers <= 1:
        return [_annotated(fn, index, item) for index, item in enumerate(items)]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(fn, item) for item in items]
        results = []
        for index, (item, future) in enumerate(zip(items, futures)):
            try:
                results.append(future.result())
            except Exception as error:
                for pending in futures:
                    pending.cancel()
                error.add_note(f"raised by sweep item {index}: {item!r:.200}")
                raise
        return results


def _annotated(fn: Callable[[T], R], index: int, item: T) -> R:
    try:
        return fn(item)
    except Exception as error:
        error.add_note(f"raised by sweep item {index}: {item!r:.200}")
        raise
