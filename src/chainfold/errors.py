"""The domain exceptions the CLI maps to exit status 2.

Each subclasses `DomainError`, which is the one type `chainfold.cli`
catches for exit 2. They live in this import-free module so that the CLI
can name them without loading the modules that raise them.
"""


class DomainError(Exception):
    """A well-formed input the model cannot carry out."""


class FoldError(DomainError):
    pass


class TapeExhaustedError(DomainError):
    pass


class CycleLimitExceededError(DomainError):
    def __init__(self, cycles: int, head: int, tape_len: int):
        super().__init__(
            f"no finished copy after {cycles} cycles (head {head}/{tape_len})"
        )
        self.cycles = cycles
        self.head = head


class UnknownTapeKindError(DomainError, KeyError):
    def __init__(self, kind: str):
        super().__init__(f"kind {kind!r} is not in the type registry")
        self.kind = kind

    def __str__(self) -> str:
        # KeyError would repr the message, quotes and all
        return self.args[0]


class KinematicsError(DomainError):
    pass


class KindOutsideProfileError(DomainError, ValueError):
    def __init__(self, token):
        super().__init__(f"{token.canonical} is outside the declared profile")
        self.token = token
