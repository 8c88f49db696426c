"""hooplog: a proof workbench for affine and Lukasiewicz logics.

A program loads only the modules it uses: `import hooplog` runs no
submodule, and `from hooplog import enumerate_algebras` runs `syntax`,
`theories` and `algebra`.  `_EXPORTS` maps each exported name to its
module, and gives `__all__`.

A module's exports are bound on the package at the moment that module is
imported, whoever imports it: the import system then sets the submodule as
an attribute of the package, which `_Package.__setattr__` sees.  Reading an
export or a submodule that is not loaded yet imports it, through the
module-level `__getattr__` (PEP 562).  Binding at import, not at the first
read, means that the package holds the same objects as the modules from the
moment they are loaded, so that a tool which imports every module and then
rebinds a function in every module that holds it (as `perfbench`'s tracer
does) rebinds, and later restores, the package's name too.
"""

import importlib
import sys
from types import ModuleType

_MODULES = {
    "syntax": (
        "Formula",
        "Var",
        "Imp",
        "Tensor",
        "Neg",
        "WConj",
        "SDisj",
        "SImp",
        "Nor",
        "ONE",
        "ZERO",
        "parse_formula",
        "format_formula",
        "expand_derived",
        "substitute",
    ),
    "theories": (
        "TheoryId",
        "theory_by_name",
        "ALL_THEORIES",
        "ALm",
        "ALi",
        "ALc",
        "LLm",
        "LLi",
        "LLc",
        "ML",
        "IL",
        "BL",
    ),
    "sequent": (
        "Sequent",
        "ProofTree",
        "check_proof",
        "weaken",
        "bounded_prove",
        "parse_sequent",
    ),
    "eqengine": (
        "EqScript",
        "LemmaEntry",
        "LemmaRegistry",
        "ac_normalize",
        "apply_rewrite",
        "check_script",
        "parse_script",
    ),
    "hilbert": (
        "check_derivation",
        "curry_sequent",
        "hilbert_to_sequent",
        "rose_rosser_embed",
        "sequent_to_hilbert",
    ),
    "algebra": (
        "FiniteAlgebra",
        "check_class",
        "enumerate_algebras",
        "eval_formula",
        "find_countermodel",
        "lukasiewicz_chain",
        "valid",
    ),
    "translate": ("check_dns", "translate"),
    "corpus": ("generate_k_contradiction", "run_corpus"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)


class _Package(ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, ModuleType):  # `translate` also names a function
            for export in _MODULES.get(name, ()):
                super().__setattr__(export, getattr(value, export))


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return getattr(loaded, name) if name in _EXPORTS else loaded


sys.modules[__name__].__class__ = _Package
