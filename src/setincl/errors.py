class CapExceededError(RuntimeError):
    """Raised when a size, computed from the parameters, passes its cap."""
