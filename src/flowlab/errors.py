"""Exception types, and the config-key check, shared across the toolkit."""


class FlowLabError(Exception):
    """Base class for all flowlab errors."""


class UnreadableFileError(FlowLabError):
    """Input file is missing or cannot be opened."""


class MalformedHeaderError(FlowLabError):
    """Capture file has an unknown magic number or version."""


class InvalidSpecError(FlowLabError):
    """Synthetic trace spec is structurally invalid."""


class UnsortedTraceError(FlowLabError):
    """Trace timestamps regress; run reorder() first."""


class DatasetIOError(FlowLabError):
    """Dataset file cannot be read or written."""


class SchemaMismatchError(FlowLabError):
    """Feature schema does not match the expected column layout."""


class EmptyDatasetError(FlowLabError):
    """Training requires at least one flow."""


class EmptyInputError(FlowLabError):
    """Metric computation requires non-empty label vectors."""


class LengthMismatchError(FlowLabError):
    """y_true and y_pred differ in length."""


def reject_unknown(section: str, data: dict, known) -> None:
    """Raise ValueError unless ``data`` is a dict whose keys are all ``known``."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} config must be a JSON object")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
