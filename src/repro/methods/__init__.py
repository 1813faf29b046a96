"""Method M abstraction (pluggable FTV / SI back ends) and query execution."""

from .base import Method, VerificationRecord
from .executor import QueryExecution, execute_query, verify_candidates
from .registry import available_methods, method_by_name
from .si import SIMethod

__all__ = [
    "Method",
    "VerificationRecord",
    "QueryExecution",
    "execute_query",
    "verify_candidates",
    "SIMethod",
    "available_methods",
    "method_by_name",
]
