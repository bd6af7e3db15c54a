"""Shared exception types, and the rules every config reader follows.

``ConfigError`` marks bad user input (CLI exit code 2); ``NumericalError``
marks a computation that ran but failed its own quality gates (exit code 1).
"""

from __future__ import annotations

from contextlib import contextmanager


class DiscforgeError(Exception):
    """Base class for package errors."""


class ConfigError(DiscforgeError):
    """Invalid configuration, schema violation, or inadmissible input data."""


class NumericalError(DiscforgeError):
    """A numerical procedure failed: no convergence, unresolved truncation,
    singular system, or a mathematical precondition broken at runtime."""


def strict_keys(data, allowed, what: str) -> dict:
    """Return ``data`` if it is a JSON object whose keys all lie in ``allowed``.

    ``what`` names the section in the error: "unknown <what> keys: [...]".
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{what} data must be a JSON object")
    extra = set(data) - allowed
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    return data


def integer(value, name: str = "value") -> int:
    """Read a config integer, a JSON int or an integral float: never a bool, a string or a fraction."""
    if type(value) is not int and not (isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def real(value, name: str = "value") -> float:
    """Read a config real, a JSON int or float: never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    return float(value)


def pair(value, name: str = "value") -> complex:
    """Read a config complex number, a list ``[re, im]`` of exactly two reals."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{name} must be a pair [re, im] of real numbers, not {value!r}")
    return complex(real(value[0], f"{name} re"), real(value[1], f"{name} im"))


@contextmanager
def malformed(what: str):
    """Read config values: a missing key or a value of the wrong type or range
    (``KeyError``, ``TypeError``, ``ValueError``, ``OverflowError``) becomes
    ``ConfigError("<what>: <error>")``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from None
