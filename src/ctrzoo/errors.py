"""Exception types shared across the package, and the one place that opens files.

Each error class states the process exit code the CLI returns for it, so
keep the hierarchy flat and the meanings crisp: configuration problems,
data problems, numeric blow-ups, and broken internal contracts are
different failure modes.

Every read goes through `reading` and every write through `write_text`:
files are UTF-8, and the artifacts written have `\n` line ends on every
platform.
"""
import json
from contextlib import contextmanager


class CtrZooError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ShapeError(CtrZooError):
    """Operands have incompatible shapes or lengths."""


class DomainError(CtrZooError):
    """An input value is outside the domain an operation accepts."""


class ConfigError(CtrZooError):
    """A spec, flag, or config file is inconsistent or unusable."""

    exit_code = 2


class CatalogError(ConfigError):
    """A model name is not in the catalog."""


class DataError(CtrZooError):
    """Raw or encoded data cannot be read, parsed, or validated.

    `row` is the index of the offending record, when one is known.
    """

    exit_code = 3

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class NumericError(CtrZooError):
    """A computation produced NaN/Inf or otherwise left the float64 domain."""

    exit_code = 4


class TrainingError(CtrZooError):
    """Training diverged or could not proceed; the message starts with the epoch and batch, when known."""

    exit_code = 4

    def __init__(self, message, epoch=None, batch=None):
        where = ", ".join(f"{k} {v}" for k, v in (("epoch", epoch), ("batch", batch)) if v is not None)
        super().__init__(f"{where}: {message}" if where else message)
        self.epoch = epoch
        self.batch = batch


class MetricError(CtrZooError):
    """A requested metric is undefined for the given inputs."""


class ContractError(CtrZooError):
    """An internal API precondition was violated by the caller."""


@contextmanager
def reading(path, error=DataError):
    """Open `path` as UTF-8 text.

    A missing or unreadable file, or bytes that are not UTF-8 (also met
    while the caller reads), raise `error` naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path, error=DataError):
    """The JSON value in `path`; every parse failure raises `error`, an overlong integer or too deep a nesting too."""
    with reading(path, error) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def write_text(path, chunks):
    """Write the strings in `chunks` to `path` in order, as UTF-8 with `\n` line ends.
    A path that cannot be written, a directory say, raises DataError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def write_json(path, payload):
    """Write `payload` to `path` as the package's JSON artifacts are written: indented, keys sorted."""
    write_text(path, json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))
