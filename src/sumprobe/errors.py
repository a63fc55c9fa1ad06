"""Shared exception base so the CLI can catch harness failures in one place."""


class HarnessError(Exception):
    """Base class for all errors raised by this package."""


class PrerequisiteError(HarnessError):
    """An upstream stage has not produced its artifact yet."""
