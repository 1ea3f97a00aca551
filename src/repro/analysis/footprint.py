"""What an index holds: the numpy buffers reachable from it.

``size_in_bits`` follows the paper's accounting of the succinct encoding;
:func:`held_bytes` measures the arrays a structure keeps in the process, as
sdsl reports what a structure stores (Gog et al., "From theory to practice:
plug and play with succinct data structures", SEA 2014).
"""

from __future__ import annotations

import mmap
from types import FunctionType, MethodType, ModuleType

import numpy as np

#: Objects that hold no array and are not walked into.
_LEAVES = (str, bytes, int, float, bool, type(None), type, ModuleType, FunctionType, MethodType)


def held_bytes(*roots: object) -> tuple[int, int]:
    """``(private, mapped)`` bytes of the distinct numpy buffers reachable from ``roots``.

    The walk follows containers and instance attributes.  An array is
    charged by its base buffer, so views count once; buffers mapped from a
    file are the second number, since every process mapping the file shares
    their pages.
    """
    seen: set[int] = set()
    buffers: dict[int, tuple[int, bool]] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = (obj.nbytes, isinstance(obj.base, mmap.mmap))
        elif isinstance(obj, (list, tuple, set, frozenset, dict)):
            stack.extend(obj.values() if isinstance(obj, dict) else obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, name, None) for name in getattr(type(obj), "__slots__", ()))
    private = sum(size for size, mapped in buffers.values() if not mapped)
    return private, sum(size for size, mapped in buffers.values() if mapped)
