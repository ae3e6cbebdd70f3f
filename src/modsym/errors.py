"""Exception types shared by all modsym modules.

Every mathematical precondition failure raises a subclass of ModsymError;
the CLI reports the class name (``type(e).__name__``) in its JSON error
body, so renaming a class changes the CLI output.  Subclasses
of InvalidInput mark input that is malformed rather than mathematically out
of reach; the CLI exits 1 for them and 2 for the rest.
"""


class ModsymError(Exception):
    pass


class InvalidInput(ModsymError):
    pass


class NonPrimeCharacteristic(InvalidInput):
    pass


class CharacteristicTooLarge(InvalidInput):
    pass


class IncompatibleTerms(InvalidInput):
    pass


class ExponentTooLarge(InvalidInput):
    pass


class DegreeTooLarge(InvalidInput):
    pass


class ReduciblePolynomial(ModsymError):
    pass


class PthPowerRoot(ModsymError):
    pass


class UnsupportedField(ModsymError):
    pass


class NotAlgebraicStep(ModsymError):
    pass


class ZeroFunction(ModsymError):
    pass


class ZeroArgument(ModsymError):
    pass


class InseparableResiduePoint(ModsymError):
    pass


class InsufficientPrecision(ModsymError):
    pass


class CongruenceFailure(ModsymError):
    pass


class ConductorCertificateFailure(ModsymError):
    pass


class NoEvaluationMap(ModsymError):
    pass


class CharacteristicUnsupported(ModsymError):
    pass


class PointOnDivisor(ModsymError):
    pass


class ZeroFirstCoordinate(ModsymError):
    pass


class InfiniteValuation(ModsymError):
    pass


class DegenerateMap(ModsymError):
    pass


class ZeroDivisionInField(ModsymError):
    pass
