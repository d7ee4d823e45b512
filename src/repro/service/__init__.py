"""The live operations plane (service subsystem).

Turns the batch reproduction into an operable system: a long-running
:class:`NewtonService` drives a deployment window by window from a
pluggable :class:`TraceSource`, executes each window through the selected
engine, drains the collection plane, and fans the per-window answers out
to streaming subscribers.  Query CRUD rides the existing transactional
control plane and is gated by the static verifier plus the fleet
analyzer; everything is reachable over a dependency-light stdlib asyncio
HTTP API (``newton-repro serve``).
"""

from repro.service.client import ServiceAPIError, ServiceClient
from repro.service.feed import Subscription, SubscriptionManager
from repro.service.http import ServiceHTTP, dispatch
from repro.service.service import (
    NewtonService,
    ServiceConfig,
    ServiceError,
    service_fleet,
)
from repro.service.sources import (
    GeneratorSource,
    PushSource,
    ReplaySource,
    SocketSource,
    TraceSource,
)

__all__ = [
    "GeneratorSource",
    "NewtonService",
    "PushSource",
    "ReplaySource",
    "ServiceAPIError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHTTP",
    "SocketSource",
    "Subscription",
    "SubscriptionManager",
    "TraceSource",
    "dispatch",
    "service_fleet",
]
