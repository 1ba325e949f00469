"""Semantic exceptions shared across the package."""


class PolyaUrnError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PolyaUrnError, ValueError):
    """An argument violates an operation's mathematical domain."""


class ResourceLimitError(PolyaUrnError, RuntimeError):
    """A computation would exceed a fixed resource budget."""
