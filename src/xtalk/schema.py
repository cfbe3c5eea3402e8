"""Strict typing of JSON documents: scenario configs and preset files.

A schema table maps each key of one section to ``(kind, default, lower
bound)``.  A kind is int, float (finite), bool, str, dict, list (a non-empty
list of ints) or a tuple of choices.  An absent key takes its default
unchecked; a default of None means no value unless given, and null then
stands for it, except that a choice without a default must be given.  The
bound is a string such as ``"> 0"`` or ``">= 1"``.
"""

from __future__ import annotations

import sys

from .errors import ConfigError

_KIND_TEXT = {int: "an integer", float: "a finite number", bool: "true or false",
              str: "a string", dict: "an object", list: "a non-empty list of integers"}


def _typed(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:  # the bound also rejects NaN, inf and ints too large for a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and bool(value) and all(type(n) is int for n in value)
    return isinstance(value, kind)


def resolve(section, table: dict, what: str, top: bool = False) -> dict:
    """``section`` checked against its schema ``table``, defaults filled in.

    ``what`` names the section in messages; a key is named ``what.key``, or
    ``what key`` if the section is the ``top`` level of its document.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = section.keys() - table.keys()
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    out = {}
    for key, (kind, default, bound) in table.items():
        value = section.get(key, default)
        if value is default and (default is not None or not isinstance(kind, tuple)):
            out[key] = value
            continue
        ok = _typed(value, kind)
        if ok and bound:
            op, lo = bound.split()
            ok = all(v > float(lo) if op == ">" else v >= float(lo)
                     for v in (value if kind is list else (value,)))
        if not ok:
            name = f"{what} {key}" if top else f"{what}.{key}"
            text = f"one of {kind}" if isinstance(kind, tuple) else _KIND_TEXT[kind]
            raise ConfigError(f"{name} must be {text}{' ' + bound if bound else ''}, "
                              f"got {value!r}")
        out[key] = float(value) if kind is float else value
    return out
