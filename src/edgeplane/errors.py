"""Exception types raised across the package, and the document value checks.

Kept in one flat module so that loaders, the planner and the simulator can
share reference errors (unknown domain, unknown microservice) without import
cycles, and so that every document loader reads lists, ids and integers
through one check each: :func:`doc_list`, :func:`doc_id` and :func:`doc_int`.
Each raises the calling loader's own error class.  Rates and demand have
their one readers in ``appmodel.as_rate`` and ``appmodel.read_demand``.
"""


class EdgeplaneError(Exception):
    """Base class for every error raised by this package."""


# --- infrastructure model ---------------------------------------------------


class DanglingReference(EdgeplaneError):
    """An id refers to an entity that does not exist in the topology."""

    def __init__(self, missing_id: str, context: str):
        super().__init__(f"unresolved reference {missing_id!r} ({context})")


class DuplicateId(EdgeplaneError):
    pass


class EmptyTopology(EdgeplaneError):
    pass


class InvalidTopology(EdgeplaneError):
    """Structurally parseable topology with out-of-range or malformed values."""


class UnknownDomain(EdgeplaneError):
    pass


class UnknownNode(EdgeplaneError):
    pass


# --- application model ------------------------------------------------------


class CycleDetected(EdgeplaneError):
    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__(" -> ".join(self.cycle))


class UnreachableMicroservice(EdgeplaneError):
    pass


class UnknownIngress(EdgeplaneError):
    pass


class InvalidApplication(EdgeplaneError):
    pass


class InvalidRequest(EdgeplaneError):
    """A placement request that does not fit the application or topology."""


class UnknownMicroservice(EdgeplaneError):
    pass


# --- policy engine ----------------------------------------------------------


class PolicyError(EdgeplaneError):
    pass


class DuplicateRule(PolicyError):
    pass


class NonIngressIotRule(PolicyError):
    """IoT locality rules may only target ingress microservices."""


class NonEdgeMsRule(PolicyError):
    """Service-to-service locality rules must reference an application DAG edge."""


class UnknownPolicyType(PolicyError):
    pass


# --- planning ---------------------------------------------------------------


class PlanningError(EdgeplaneError):
    pass


class InfeasiblePlacement(PlanningError):
    """The planner found no compliant placement.

    Carries the microservice and anchor scope that could not be satisfied and
    the failure cause ("policy-empty scope" or "insufficient capacity").
    ``proved`` says whether no compliant placement exists at all: a capacity
    cut or an exhausted search tree proves it, a search that ran out of its
    step budget does not, and its message then ends in "(search budget
    exhausted)".  ``certificate`` holds the capacity cut of a cut proof, and
    ``detail`` is appended to the message.
    """

    def __init__(self, microservice: str, anchor: str, cause: str, *,
                 proved: bool, certificate=None, detail: str = ""):
        self.microservice = microservice
        self.anchor = anchor
        self.cause = cause
        self.proved = proved
        self.certificate = certificate
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"cannot place {microservice!r} for anchor {anchor!r}: {cause}{suffix}")


# --- simulation -------------------------------------------------------------


class MissingRoute(EdgeplaneError):
    """A positive flow has no matching routing rule; the plan is inconsistent."""


# --- scenario files ---------------------------------------------------------


class ScenarioParseError(EdgeplaneError):
    """A scenario or plan document could not be read or is the wrong shape, or an
    output file could not be written."""


# --- document values ----------------------------------------------------------


def doc_list(value, what: str, error: type[EdgeplaneError], item: type = dict) -> list:
    """A document list whose entries are all ``item`` (mappings or string ids).
    Only ``None`` (absent) is ``[]``; any other value that is not such a list,
    ``0``, ``""`` and ``{}`` included, raises the calling loader's ``error``."""
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(entry, item) for entry in value):
        raise error(f"{what} must be a list of {'mappings' if item is dict else 'ids'}")
    return value


def doc_id(value, what: str, error: type[EdgeplaneError]) -> str:
    """A document id: a non-empty string, or the calling loader's ``error``."""
    if not isinstance(value, str) or not value:
        raise error(f"{what} must be a non-empty string, got {value!r}")
    return value


def doc_int(value, what: str, error: type[EdgeplaneError], least: int | None = None) -> int:
    """A document integer: an ``int`` that is not a bool and, with ``least``,
    at least ``least``; anything else raises the calling loader's ``error``."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return value
