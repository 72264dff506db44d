"""The domain exceptions the CLI maps to exit status 2.

They live in this import-free module so that `chainfold.cli` can name
them without loading the modules that raise them. Each is re-exported
from its old home (`folding`, `encoding`, `mdl`, `kinematics`).
"""


class FoldError(Exception):
    pass


class TapeExhaustedError(Exception):
    pass


class CycleLimitExceededError(Exception):
    def __init__(self, cycles: int, head: int, tape_len: int):
        super().__init__(
            f"no finished copy after {cycles} cycles (head {head}/{tape_len})"
        )
        self.cycles = cycles
        self.head = head


class UnknownTapeKindError(KeyError):
    def __init__(self, kind: str):
        super().__init__(f"kind {kind!r} is not in the type registry")
        self.kind = kind

    def __str__(self) -> str:
        # KeyError would repr the message, quotes and all
        return self.args[0]


class KinematicsError(Exception):
    pass


class KindOutsideProfileError(ValueError):
    def __init__(self, token):
        super().__init__(f"{token.canonical} is outside the declared profile")
        self.token = token
