"""Skew braces of size p²q: classification by regular subgroups of holomorphs.

The pipeline: build each group of order p²q (`families`), form its
holomorph (`holomorph`), enumerate regular subgroups and partition them
into conjugacy orbits (`enumeration`), turn representatives into skew
braces (`braces`) and Yang-Baxter solutions (`ybe`), then compare counts
against the reference tables and closed forms (`expected`, `report`) and
against the per-lemma witness recipes (`catalog`).
"""

from .braces import (
    SkewBrace,
    brace_from_regular,
    brace_isomorphic,
    check_axioms,
    direct_product_pairs,
    ideals,
    invariants,
    is_bi_skew,
)
from .catalog import (
    FamilyContext,
    LemmaReport,
    RecipeError,
    Witness,
    all_lemma_ids,
    applicable_lemma_ids,
    evaluate_witness,
    instantiate_lemma,
    manual_notes,
    verify_catalog,
    verify_lemma,
)
from .core import AutGroup, FiniteGroup, GroupLabel, compute_automorphisms, identify_p2q
from .enumeration import OrbitClass, circle_group, stratified_orbit_classes
from .expected import conjecture_counts, expected_tables, expected_totals, regime
from .families import (
    FamilyParams,
    StructuredAut,
    all_labels,
    build_group,
    derive_params,
    family_aut,
    structured_aut,
)
from .holomorph import Holomorph, HolSubgroup, closure_packed
from .report import (
    ClassificationReport,
    classify,
    conjecture,
    export,
    import_cache,
    verify_tables,
    write_cache,
)
from .ybe import (
    Solution,
    check_nondegenerate,
    check_ybe,
    export_solution,
    is_involutive,
    solution_from_brace,
)

__version__ = "0.1.0"

__all__ = [
    "AutGroup",
    "ClassificationReport",
    "FamilyContext",
    "FamilyParams",
    "FiniteGroup",
    "GroupLabel",
    "Holomorph",
    "HolSubgroup",
    "LemmaReport",
    "OrbitClass",
    "RecipeError",
    "SkewBrace",
    "Solution",
    "StructuredAut",
    "Witness",
    "all_labels",
    "all_lemma_ids",
    "applicable_lemma_ids",
    "brace_from_regular",
    "brace_isomorphic",
    "build_group",
    "check_axioms",
    "check_nondegenerate",
    "check_ybe",
    "circle_group",
    "classify",
    "closure_packed",
    "compute_automorphisms",
    "conjecture",
    "conjecture_counts",
    "derive_params",
    "direct_product_pairs",
    "evaluate_witness",
    "expected_tables",
    "expected_totals",
    "export",
    "export_solution",
    "family_aut",
    "ideals",
    "identify_p2q",
    "import_cache",
    "instantiate_lemma",
    "invariants",
    "is_bi_skew",
    "is_involutive",
    "manual_notes",
    "regime",
    "solution_from_brace",
    "stratified_orbit_classes",
    "structured_aut",
    "verify_catalog",
    "verify_lemma",
    "verify_tables",
    "write_cache",
]
