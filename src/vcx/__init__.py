"""Set families of bounded VC dimension: certificates, sunflowers, counting
pipelines, and exact search, over ground sets of up to 63 elements."""

__version__ = "0.1.0"

from .certificates import (
    CertificateAssignment,
    FiberShape,
    build_assignment,
    classify_fiber,
    fiber_bound,
    fiber_size_histogram,
)
from .constructions import (
    FuzzSeed,
    SplitMix64,
    complete_family,
    random_maximal_vc_family,
    star_family,
)
from .errors import InvariantViolation, MemberShattered, UsageError, VcxError
from .famfile import dump_family, format_family, load_family, parse_family
from .fuzzing import CampaignSummary, FamilyCheck, check_family, fuzz_campaign
from .families import (
    UniformFamily,
    complement_shadow,
    frankl_pach_bound,
    is_shattered,
    sauer_shelah_bound,
    shadow,
    shattered_witness,
    vc_dimension,
)
from .pipeline import (
    BoundAudit,
    PartitionReport,
    audit_bound,
    build_f,
    build_injection_g,
    build_pair_collection,
    partition_family,
    run_pipeline,
    verify_column_sums,
)
from .search import (
    SearchResult,
    certificate_order_max,
    exact_max,
    lower_bound_witness,
    search_bracket,
)
from .sunflower import Sunflower, find_sunflower, sunflower_threshold, validate_sunflower
