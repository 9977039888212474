"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so a
caller embedding the simulator can catch one type.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget.

    Attributes
    ----------
    iterations : int
        Number of iterations performed before giving up.
    residual : float
        Final residual (algorithm-specific norm), ``nan`` if unknown.
    """

    def __init__(self, message, iterations=0, residual=float("nan")):
        super().__init__(message)
        self.iterations = int(iterations)
        self.residual = float(residual)


class ShapeError(ReproError, ValueError):
    """An array argument has the wrong shape or inconsistent dimensions."""


class ArenaError(ReproError):
    """Misuse of a :class:`repro.linalg.arena.Workspace` buffer arena."""


class ArenaLeakError(ArenaError):
    """Buffers were still checked out when the workspace was closed."""


class ArenaAliasError(ArenaError):
    """A released array aliases (views into) a checked-out buffer."""


class SingularMatrixError(ReproError):
    """A matrix that must be invertible is numerically singular."""


class TaskExecutionError(ReproError):
    """A (k, E) task failed inside a task runner.

    Attributes
    ----------
    task_index : int
        Position of the failed task in the submitted task list (-1 if
        unknown).
    node : str
        Simulated node the task was running on when it failed.
    attempts : int
        Attempts made before giving up (1 for an unprotected runner).
    kpoint_index, energy_index : int or None
        Filled in by :func:`repro.core.runner.compute_spectrum`, which
        knows the (k, E) identity behind a flat task index.
    """

    def __init__(self, message, task_index=-1, node="", attempts=1):
        super().__init__(message)
        self.task_index = int(task_index)
        self.node = str(node)
        self.attempts = int(attempts)
        self.kpoint_index = None
        self.energy_index = None


class TaskTimeoutError(ReproError):
    """A task exceeded the resilient runner's per-task time budget."""

    def __init__(self, message, elapsed_s=float("nan"),
                 timeout_s=float("nan")):
        super().__init__(message)
        self.elapsed_s = float(elapsed_s)
        self.timeout_s = float(timeout_s)


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or from a different run."""
