"""Exception types shared across the package."""


class McSchedError(Exception):
    """Base class for all package-specific errors."""


class NoLcTasks(McSchedError):
    """An operation that needs low-criticality tasks was given none (U_L = 0)."""


class InvalidFraction(McSchedError):
    """A service level or weight lies outside its documented range."""


class Infeasible(McSchedError):
    """The requested service-level combination admits no solution."""


class BudgetExceedsWcet(McSchedError):
    """A recorded execution maximum exceeds the task's worst-case execution time."""


class WrongMode(McSchedError):
    """A budget operation was invoked in the wrong system mode."""


class BudgetOverrun(McSchedError):
    """A job consumed more than its allocated budget without a mode switch."""


class InvalidJobSequence(McSchedError):
    """A job sequence violates sporadic separation or per-task demand bounds."""


class BudgetSumViolation(McSchedError):
    """A fixed budget vector reserves more bandwidth than the configured pool."""


class GridOverflow(McSchedError):
    """A convolution lattice grew beyond the configured state limit."""


class GenerationTimeout(McSchedError):
    """Task-set generation exceeded the configured restart budget."""


class InputError(McSchedError, ValueError):
    """A file or option supplied from outside the program is malformed."""


class TaskSetParseError(InputError):
    """A task-set file is malformed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
