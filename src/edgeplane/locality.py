"""Locality levels shared by the policy engine and the infrastructure model,
and the consumer marker of IoT ingress traffic."""

from __future__ import annotations

import enum

from .errors import PolicyError


class LocalityLevel(enum.Enum):
    """How far a request may travel from the domain it originates in.

    Strictness is a total order: STRICT_DOMAIN > STRICT_REGION > GLOBAL.
    The enum value is the spelling used in scenario documents; the wire API
    uses :attr:`wire_name`.
    """

    STRICT_DOMAIN = "strict-domain"
    STRICT_REGION = "strict-region"
    GLOBAL = "global"

    # Members are singletons that compare by identity, so they hash by identity,
    # in C: Enum's own hash of the member name runs Python code in every
    # (microservice, level) dict key.
    __hash__ = object.__hash__

    @property
    def strictness(self) -> int:
        """Rank with 0 the strictest, so ascending sorts put strictest first."""
        return _STRICTNESS[self]

    @property
    def wire_name(self) -> str:
        return _WIRE_NAMES[self]

    @classmethod
    def parse(cls, text: str) -> "LocalityLevel":
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(level.value for level in cls)
            raise PolicyError(f"unknown locality level {text!r} (expected one of: {valid})") from None


_STRICTNESS = {
    LocalityLevel.STRICT_DOMAIN: 0,
    LocalityLevel.STRICT_REGION: 1,
    LocalityLevel.GLOBAL: 2,
}

_WIRE_NAMES = {
    LocalityLevel.STRICT_DOMAIN: "StrictDomain",
    LocalityLevel.STRICT_REGION: "StrictRegion",
    LocalityLevel.GLOBAL: "Global",
}

#: Fallback applied when the policy document's ``default_locality`` pins none;
#: scenario settings have no such key.
DEFAULT_LOCALITY = LocalityLevel.GLOBAL

#: Routing-rule and flow-row consumer marker for traffic from IoT device groups.
IOT_SOURCE = "iot"
