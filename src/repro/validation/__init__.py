"""Translation validation: certify derived computations (Section 5).

Structural obligations are checked against the :class:`~repro.derive.
schedule.Schedule` (the paper-shaped program), and the behavioural
obligations run the instance a certificate is given.  By default that
is the interpreter instance, so a certificate certifies the plan
interpreter.  Compiled checkers are not one artifact: per call they
pick among the boxed fixpoint, the specialized twin and the fast twin
with spliced ``det`` premises and eval-twin calls.  The only compiled
checkers certified are those passed explicitly as ``instance=`` (the
specialized nat and ``Sorted`` checkers in
``tests/derive/test_specialize.py``).  The other compiled variants are
covered by differential tests against the interpreter, not by
certificates.
"""

from .checkers import census, certify_checker
from .obligations import (
    DEFAULT_CONFIG,
    Certificate,
    ObligationResult,
    ValidationConfig,
)
from .producers import certify_enumerator, certify_generator
from .reflection import ProofReport, prove_by_reflection, prove_explicit, reflect_holds

__all__ = [
    "Certificate",
    "DEFAULT_CONFIG",
    "ObligationResult",
    "ProofReport",
    "ValidationConfig",
    "census",
    "certify_checker",
    "certify_enumerator",
    "certify_generator",
    "prove_by_reflection",
    "prove_explicit",
    "reflect_holds",
]
