"""Readers for input values.  Each checks one value and converts it
once; anything else is refused with a `ReadError` worded `<key>:
expected <what>, got <value>`, where the key is the value's dotted path
(`ReadError.within` puts a nested document's keys under its own)."""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .rational import mat, vec

show = reprlib.repr  # the value a refusal quotes, cut short when long


class ReadError(ValueError):
    """A refused input value: `<key>: expected <want>, got <got>`."""

    def __init__(self, key: str, want: str, got: str):
        super().__init__(f"{key}: expected {want}, got {got}".removeprefix(": "))
        self.key, self.want, self.got = key, want, got

    def within(self, where: str) -> ReadError:
        return ReadError(_path(where, self.key), self.want, self.got)


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where and key else where or key


def need(obj, key: str, where: str = ""):
    """`obj[key]`, where `obj` is the object at `where`."""
    if not isinstance(obj, dict):
        raise ReadError(where, "an object", show(obj))
    if key not in obj:
        raise ReadError(_path(where, key), "a value", "nothing")
    return obj[key]


def flag(obj: dict, key: str, where: str = "") -> bool:
    """`obj[key]` as a JSON boolean, False when absent: a string such as
    "false" would read as True."""
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise ReadError(_path(where, key), "true or false", show(value))
    return value


def integer(value, key: str, least: int | None = None, most: int | None = None) -> int:
    """`value` as an int: a Python or numpy integer, not a boolean, at
    least `least` when that is given, and at most `most`, which is given
    with `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ReadError(key, "an integer", show(value))
    if most is not None and not least <= value <= most:
        raise ReadError(key, f"an integer from {least} to {most}", show(value))
    if least is not None and value < least:
        raise ReadError(key, {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}"), show(value))
    return int(value)


def number(value, key: str, want: str = "a finite number", ok=math.isfinite) -> float:
    """`value` as a float: a Python or numpy integer or float, not a
    boolean, whose float `ok` accepts.  An integer beyond float range is
    refused, not left to raise OverflowError in later arithmetic."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ReadError(key, want, show(value))
    try:
        x = float(value)
    except OverflowError:
        raise ReadError(key, want, "an integer beyond float range") from None
    if not ok(x):
        raise ReadError(key, want, show(x))
    return x


def matrix(rows, key: str, vector: bool = False) -> tuple:
    """`rows` as an exact matrix with at least one row and one column,
    read by `rational.mat`; with `vector`, as a vector read by `vec`."""
    try:
        m = vec(rows) if vector else mat(rows)
    except (TypeError, ValueError) as exc:
        want = "a vector of rationals" if vector else "a matrix of rationals"
        raise ReadError(key, want, f"{show(rows)} ({exc})") from None
    if not (vector or m and m[0]):
        raise ReadError(key, "a matrix with at least one row and one column", show(rows))
    return m
