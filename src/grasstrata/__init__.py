"""Exact stratifications of the Grassmannian by a rational hyperplane
arrangement: intersection lattices, adjoint arrangements, and the matroid,
adjoint and Schubert labels of a subspace.

The public names below resolve on first use (PEP 562): importing the
package loads no submodule, and `from grasstrata import span` loads only
the module that defines `span`."""

__version__ = "0.1.0"

_EXPORTS = {
    "arrangement": """Arrangement Flat IntersectionLattice SelfCheckFailed
        build_arrangement center format_arrangement intersection_lattice
        is_essential load_arrangement load_subspace maximal_chains
        parse_arrangement parse_subspace restriction""",
    "exactlin": """Subspace canonical_subspace det full_space kernel matrix
        maximal_minors minor orth_complement project span subspace_sum
        zero_subspace""",
    "matroid": """Matroid RankedLattice lattice_isomorphic loops matroid_from
        restriction_lattice""",
    "pluecker": """AdjointHyperplane PlueckerVector adjoint_hyperplane
        defect_subspace eval_adjoint k_adjoint k_subsets pluecker_vector""",
    "sampling": "sample_subspace structured_subspaces",
    "strata": """adjoint_label encode_labels label_encodings labels
        matroid_label schubert_label verify_equivalence
        verify_restriction_classification""",
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
