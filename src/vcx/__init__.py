"""Set families of bounded VC dimension: certificates, sunflowers, counting
pipelines, and exact search, over ground sets of up to 63 elements.

Only errors and families (and numpy, which families uses) load with the
package; every other public name imports its module on first access."""

__version__ = "0.1.0"

from importlib import import_module

# loaded with the package: families holds the core type, and its numpy import
# is the numpy row that the benchmark's import-time metric reads
from . import errors, families

# every public name, by the module that defines it
_MODULE_OF = {
    name: module
    for module, names in {
        "certificates": (
            "CertificateAssignment", "FiberShape", "build_assignment", "classify_fiber",
            "fiber_bound", "fiber_size_histogram",
        ),
        "constructions": (
            "FuzzSeed", "SplitMix64", "complete_family", "random_maximal_vc_family",
            "star_family",
        ),
        "errors": ("InvariantViolation", "MemberShattered", "UsageError", "VcxError"),
        "famfile": ("dump_family", "format_family", "load_family", "parse_family"),
        "families": (
            "UniformFamily", "complement_shadow", "frankl_pach_bound", "is_shattered",
            "sauer_shelah_bound", "shadow", "shattered_witness", "vc_dimension",
        ),
        "fuzzing": ("CampaignSummary", "FamilyCheck", "check_family", "fuzz_campaign"),
        "pipeline": (
            "BoundAudit", "PartitionReport", "audit_bound", "build_f", "build_injection_g",
            "build_pair_collection", "partition_family", "run_pipeline", "verify_column_sums",
        ),
        "search": (
            "SearchResult", "certificate_order_max", "exact_max", "lower_bound_witness",
            "search_bracket",
        ),
        "sunflower": ("Sunflower", "find_sunflower", "sunflower_threshold", "validate_sunflower"),
    }.items()
    for name in names
}

__all__ = list(_MODULE_OF)


def _lazy_getattr(namespace: dict, module_of: dict):
    """A module __getattr__ (PEP 562) for `namespace`, a module's globals: a
    name in `module_of` is imported from vcx.<module_of[name]> on first
    access and kept in the namespace, so later lookups are plain ones."""

    def __getattr__(name):
        if name not in module_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"vcx.{module_of[name]}"), name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _MODULE_OF)


def __dir__():
    return sorted(set(globals()) | set(__all__))
