"""Typed errors raised across the toolkit, the reader of its input files and
the writer of its CSV tables.

``DomainError`` (exit 3) signals an input that is syntactically fine but lies
outside the physical or analytic domain of a formula, and
``InsufficientTrialsError`` (exit 4) a Monte Carlo run without usable
estimates.  ``DomainError`` subclasses ``ValueError`` so that argument
validation and domain failures can be caught together.

:func:`input_lines` reads the three input file formats, so that a file that
is not UTF-8 is reported at its path, as the loaders report other faults; it
skips a UTF-8 byte-order mark at the start of a file.
:func:`_table` writes every CSV body, the ``mc`` table included: a float
cell prints as ``%.Ng``, any other cell as ``str``.
"""


class DomainError(ValueError):
    """Input lies outside the domain where the requested quantity exists."""


class DegenerateRegimeError(DomainError):
    """The optimal-attack noise is undefined for these parameters.

    Raised when the bracketed SNR term that is inverted to obtain the
    attack-noise variance is not positive.  The offending value is kept on
    the ``bracket`` attribute for diagnostics.
    """

    def __init__(self, bracket: float):
        self.bracket = float(bracket)
        super().__init__(
            "optimal-attack noise undefined: the inverted SNR bracket "
            f"is {self.bracket:.6g} (must be > 0)"
        )


class InsufficientTrialsError(RuntimeError):
    """A Monte Carlo run could not produce usable estimates.

    When partial results exist (for example per-point estimates that are all
    zero) they are attached as the ``outage`` attribute.
    """

    def __init__(self, message: str, outage=None):
        self.outage = outage
        super().__init__(message)


def input_lines(path) -> list:
    """The ``(line number, text)`` pairs of the UTF-8 file ``path``, after a
    byte-order mark if it starts with one, each text cut at its first ``#``
    and stripped; blank texts are left out but counted."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [raw.split("#", 1)[0].strip() for raw in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]


def _format_rows(rows, precision: int) -> list[str]:
    """Each row as one CSV line: a float cell (numpy ``float64`` included)
    prints as ``%.<precision>g``, any other cell as ``str``.  A row is one
    ``%`` operation, with one format string per distinct tuple of cell types."""
    formats = {}
    lines = []
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                f"%.{precision}g" if issubclass(t, float) else "%s" for t in types
            )
        lines.append(fmt % row)
    return lines


def _csv(columns, lines: list[str]) -> str:
    return "\n".join([",".join(columns), *lines]) + "\n"


def _table(columns, rows, precision: int) -> str:
    return _csv(columns, _format_rows(rows, precision))
