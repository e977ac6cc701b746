"""Exception taxonomy.

The CLI maps every FockboxError to exit code 2; failed identity checks are
reported, not raised, and map to exit code 1 in the commands that own them.
"""


class FockboxError(Exception):
    """Base class for all package errors."""


class ConfigError(FockboxError):
    """Malformed or physically inconsistent model configuration."""


class LayoutError(FockboxError):
    """Unknown ladder, mismatched layouts, or a layout too large to build."""


class LeakageError(FockboxError):
    """A displacement amplitude too large for the configured cutoff."""


class GridError(FockboxError):
    """A quadrature grid too coarse for the integrand's band limit."""


class GeometryError(FockboxError):
    """Mode geometry unsuitable for the requested construction (e.g. A5 <= 0)."""
