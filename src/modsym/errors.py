"""Exception types shared by all modsym modules.

Every mathematical precondition failure raises a subclass of ModsymError
carrying a stable ``name`` used by the CLI for error reporting.  Subclasses
of InvalidInput mark input that is malformed rather than mathematically out
of reach; the CLI exits 1 for them and 2 for the rest.
"""


class ModsymError(Exception):
    name = "ModsymError"


class InvalidInput(ModsymError):
    name = "InvalidInput"


class NonPrimeCharacteristic(InvalidInput):
    name = "NonPrimeCharacteristic"


class CharacteristicTooLarge(InvalidInput):
    name = "CharacteristicTooLarge"


class IncompatibleTerms(InvalidInput):
    name = "IncompatibleTerms"


class ExponentTooLarge(InvalidInput):
    name = "ExponentTooLarge"


class DegreeTooLarge(InvalidInput):
    name = "DegreeTooLarge"


class ReduciblePolynomial(ModsymError):
    name = "ReduciblePolynomial"


class PthPowerRoot(ModsymError):
    name = "PthPowerRoot"


class UnsupportedField(ModsymError):
    name = "UnsupportedField"


class NotAlgebraicStep(ModsymError):
    name = "NotAlgebraicStep"


class ZeroFunction(ModsymError):
    name = "ZeroFunction"


class ZeroArgument(ModsymError):
    name = "ZeroArgument"


class InseparableResiduePoint(ModsymError):
    name = "InseparableResiduePoint"


class PrecisionOverflow(ModsymError):
    name = "PrecisionOverflow"


class InsufficientPrecision(ModsymError):
    name = "InsufficientPrecision"


class CongruenceFailure(ModsymError):
    name = "CongruenceFailure"


class ConductorCertificateFailure(ModsymError):
    name = "ConductorCertificateFailure"


class NoEvaluationMap(ModsymError):
    name = "NoEvaluationMap"


class CharacteristicUnsupported(ModsymError):
    name = "CharacteristicUnsupported"


class PointOnDivisor(ModsymError):
    name = "PointOnDivisor"


class ZeroFirstCoordinate(ModsymError):
    name = "ZeroFirstCoordinate"


class AdmissibilityFailure(ModsymError):
    name = "AdmissibilityFailure"


class InfiniteValuation(ModsymError):
    name = "InfiniteValuation"


class DegenerateMap(ModsymError):
    name = "DegenerateMap"


class ZeroDivisionInField(ModsymError):
    name = "ZeroDivisionInField"
