"""March algorithms: named sequences of March elements.

The algorithm object carries the statistics the paper's Table 1 reports for
each test (#elements, #operations, #reads, #writes) and the per-address
operation count used by the power model (every March element applies its
operations to every address, so the test length in clock cycles is
``sum(len(element)) * #addresses``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

from .element import AddressingDirection, MarchElement
from .operations import MarchOperation, MarchSyntaxError, OperationKind


class MarchValidationError(Exception):
    """Raised when an algorithm is structurally unsound."""


@dataclass(frozen=True)
class MarchAlgorithm:
    """A complete March test."""

    name: str
    elements: Tuple[MarchElement, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.elements:
            raise MarchValidationError(f"March algorithm {self.name!r} has no elements")

    @cached_property
    def key(self) -> str:
        """Content identity: equal algorithms have equal keys.

        The field-by-field ``repr`` of the value, built once per instance.
        A string caches its own hash, so cache lookups keyed on it stay
        cheap where hashing the nested frozen dataclass would walk every
        element and operation on every call.
        """
        return repr(self)

    # ------------------------------------------------------------------
    # Table-1 statistics
    # ------------------------------------------------------------------
    @property
    def element_count(self) -> int:
        """The paper's ``# elm`` column."""
        return len(self.elements)

    @property
    def operation_count(self) -> int:
        """The paper's ``# oper`` column: operations applied per address."""
        return sum(element.operation_count for element in self.elements)

    @property
    def read_count(self) -> int:
        """The paper's ``# read`` column: reads applied per address."""
        return sum(element.read_count for element in self.elements)

    @property
    def write_count(self) -> int:
        """The paper's ``# write`` column: writes applied per address."""
        return sum(element.write_count for element in self.elements)

    def cycles_for(self, address_count: int) -> int:
        """Total clock cycles to run the test on ``address_count`` addresses."""
        if address_count <= 0:
            raise MarchValidationError("address_count must be positive")
        return self.operation_count * address_count

    def complexity_string(self) -> str:
        """The usual 'xN' complexity notation (operations per address)."""
        return f"{self.operation_count}N"

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the read expectations are consistent with preceding writes.

        A March test is only meaningful if every read expects the value the
        fault-free memory would contain at that point: the value written by
        the previous operation on the same address (within the element) or
        the value left by the previous element.  The check walks elements
        symbolically, tracking the homogeneous background value.
        """
        background: int | None = None
        for index, element in enumerate(self.elements):
            current = background
            for op_index, op in enumerate(element.operations):
                if op.is_write:
                    current = op.value
                    continue
                if current is None:
                    raise MarchValidationError(
                        f"{self.name}: element {index} ({element}) reads before any "
                        "value has been established"
                    )
                if op.value != current:
                    raise MarchValidationError(
                        f"{self.name}: element {index} ({element}) operation {op_index} "
                        f"expects {op.value} but the fault-free content is {current}"
                    )
            final = element.final_written_value()
            if final is not None:
                background = final
            # an element with only reads leaves the background unchanged
        # A complete validation needs nothing more: direction consistency is
        # free-form (that is exactly DOF 1/2 of March tests).

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except MarchValidationError:
            return False

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_inverted_data(self, name: str | None = None) -> "MarchAlgorithm":
        """The same test run on complemented data (data-background DOF)."""
        return MarchAlgorithm(
            name=name or f"{self.name} (inverted data)",
            elements=tuple(element.inverted_data() for element in self.elements),
            description=self.description,
        )

    def with_all_directions(self, direction: AddressingDirection,
                            name: str | None = None) -> "MarchAlgorithm":
        """Force every element to one direction (used by ablation studies).

        Note that this is *not* coverage-preserving in general — the paper's
        first degree of freedom keeps the ⇑/⇓ relationship intact and only
        changes what "ascending" means.  This helper exists to demonstrate
        that difference in the test-suite and benches.
        """
        return MarchAlgorithm(
            name=name or f"{self.name} (all {direction.value})",
            elements=tuple(element.with_direction(direction) for element in self.elements),
            description=self.description,
        )

    # ------------------------------------------------------------------
    def to_notation(self, ascii_only: bool = False) -> str:
        body = "; ".join(element.to_notation(ascii_only=ascii_only)
                         for element in self.elements)
        return "{" + body + "}"

    def summary_row(self) -> dict:
        """The statistics row the paper's Table 1 lists for this algorithm."""
        return {
            "algorithm": self.name,
            "elements": self.element_count,
            "operations": self.operation_count,
            "reads": self.read_count,
            "writes": self.write_count,
            "notation": self.to_notation(),
        }

    def __str__(self) -> str:
        return f"{self.name} {self.to_notation()}"

    def __iter__(self):
        return iter(self.elements)
