"""The two exception types a run raises, each with its own CLI exit code."""


class NumericalDegeneracyError(RuntimeError):
    """A state lost a structural property it must keep: the gain matrix of
    the least-squares extension (which c4 steps too) lost positive
    definiteness, a state or mixing output is not finite, or the inertia
    matrix became singular.  Usually a symptom of a too-large step size or
    corrupted parameters rather than a programming error."""


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""
