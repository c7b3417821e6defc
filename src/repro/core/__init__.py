"""The self-stabilizing reconfiguration scheme (the paper's contribution).

Three cooperating layers, composed per-processor by
:class:`repro.core.scheme.ReconfigurationScheme`:

* :class:`repro.core.recsa.RecSA` — Reconfiguration Stability Assurance
  (Algorithm 3.1): conflict detection, brute-force stabilization and the
  delicate three-phase configuration-replacement automaton.
* :class:`repro.core.recma.RecMA` — Reconfiguration Management
  (Algorithm 3.2): decides *when* a delicate reconfiguration is needed —
  majority collapse or a majority-approved prediction — and triggers it via
  ``estab()``.
* :class:`repro.core.joining.JoiningProtocol` — the joining mechanism
  (Algorithm 3.3): application-controlled admission of new participants.
"""

from repro.core.recsa import RecSA, RecSAMessage
from repro.core.recma import RecMA, RecMAMessage
from repro.core.joining import JoiningProtocol, JoinRequest, JoinResponse, AdmissionPolicy
from repro.core.scheme import ReconfigurationScheme
from repro.core.stale import StaleInfoType, classify_stale_information

__all__ = [
    "RecSA",
    "RecSAMessage",
    "RecMA",
    "RecMAMessage",
    "JoiningProtocol",
    "JoinRequest",
    "JoinResponse",
    "AdmissionPolicy",
    "ReconfigurationScheme",
    "StaleInfoType",
    "classify_stale_information",
]
