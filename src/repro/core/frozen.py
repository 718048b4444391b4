"""Frozen row containers: a stored row is shared, so it cannot change.

A committed row version never changes (paper §4.5: that is what makes
the multi-version cache safe), so the store, the cache node, the
replica log and every read view hold one object per row version instead
of a copy each. :func:`freeze` builds that object once, when the write
is built; :class:`FrozenRow` and :class:`FrozenList` are a ``dict`` and
a ``list`` whose mutators raise ``TypeError``, so a caller that tries to
change a shared row gets an error, not a silent change to the store.

A writer copies a row before changing it: ``dict(row)`` (or
``list(items)``) is a plain, mutable shallow copy. ``copy.deepcopy`` and
a ``pickle`` round trip give plain containers all the way down. JSON
encodes a frozen row byte for byte like the plain one.
"""

from __future__ import annotations

from typing import Any, Callable


def _refuse(self, *args, **kwargs):
    raise TypeError(
        f"{type(self).__name__} is a shared, immutable row: "
        "copy it with dict(row) / list(items) before changing it"
    )


class FrozenRow(dict):
    """An immutable ``dict``: one stored row version, shared by every reader.

    The ``memo`` slot holds the one value the layer above derives from
    the row: the :class:`~repro.core.model.entity.Entity` of an entity
    row, the plain rendering of an entity's ``spec``. It is unset until
    first use. The row never changes, so the memo is never invalidated;
    two threads racing to fill it compute equal values, and either may
    win.
    """

    __slots__ = ("memo",)

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce_ex__(self, protocol):
        # pickles (and copy.copy) as a plain dict
        return dict, (dict(self),)

    def __deepcopy__(self, memo) -> dict:
        return thaw(self)


class FrozenList(list):
    """An immutable ``list``: a list value inside a stored row."""

    __slots__ = ()

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce_ex__(self, protocol):
        return list, (list(self),)

    def __deepcopy__(self, memo) -> list:
        return thaw(self)


def memoized(row: FrozenRow, derive: Callable[[FrozenRow], Any]) -> Any:
    """``derive(row)``, computed on the first call and kept in ``row.memo``
    (see :class:`FrozenRow`)."""
    try:
        return row.memo
    except AttributeError:
        pass
    value = row.memo = derive(row)
    return value


#: leaf types returned as they are, without a call per value
_ATOMS = frozenset({str, int, float, bool, type(None)})


def freeze(value: Any) -> Any:
    """``value`` with every ``dict`` and ``list`` in it frozen.

    An already frozen container is returned as is, at no cost: a frozen
    container only ever holds frozen values. Scalars (and anything else
    that is not a dict, list or tuple) are returned unchanged.
    """
    kind = type(value)
    if kind in _ATOMS or kind is FrozenRow or kind is FrozenList:
        return value
    if isinstance(value, dict):
        return FrozenRow({
            key: item if type(item) in _ATOMS else freeze(item)
            for key, item in value.items()
        })
    if isinstance(value, list):
        return FrozenList([
            item if type(item) in _ATOMS else freeze(item) for item in value
        ])
    if kind is tuple:
        return tuple(freeze(item) for item in value)
    return value


def thaw(value: Any) -> Any:
    """A plain, mutable deep copy of a (possibly frozen) row value."""
    if isinstance(value, dict):
        # copy at C speed, then replace the few values that are containers
        out = dict(value)
        for key, item in out.items():
            if type(item) not in _ATOMS:
                out[key] = thaw(item)
        return out
    if isinstance(value, list):
        return [item if type(item) in _ATOMS else thaw(item) for item in value]
    if type(value) is tuple:
        return tuple(thaw(item) for item in value)
    return value
