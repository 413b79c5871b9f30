"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """A computation left the float range or would exceed a branch cap."""


class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""
