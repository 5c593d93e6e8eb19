"""Spectra, eigenfunctions, and resolvents of two-dimensional Schrodinger
operators with oblique transmission conditions on a smooth closed curve,
plus their non-relativistic limit from Dirac shell operators."""

__version__ = "1.0.0"

import importlib

#: public names by the submodule that defines them.  A submodule is imported
#: on first access, so ``import obliqueshell.cli`` loads no numpy and the CLI
#: can set the BLAS thread variables before numpy starts.
_EXPORTS = {
    "bie": ("BoundaryOperatorMatrix", "VolumeGrid", "apply_Psi_star", "assemble_M3CM3",
            "assemble_S", "eval_Psi", "eval_SL", "jump_traces", "make_volume_grid"),
    "dirac": ("LimitStudyResult", "correction_convergence", "dirac_correction",
              "nonrel_limit_study"),
    "errors": ("ConfigurationError", "DivergenceError", "DomainError",
               "NumericalInstabilityError", "ObliqueShellError", "ParameterError",
               "PoleProximityError", "ResolutionError", "SingularityError"),
    "geometry": ("Curve", "QuadratureGrid", "curve_from_config", "grid", "make_curve"),
    "kernels": ("DiracParameter", "SpectralParameter", "branch_sqrt", "kernel_G",
                "kernel_L", "kernel_U"),
    "specfun": ("bessel_ik_int",),
    "spectral": ("DispersionSample", "EigenfunctionField", "EigenvalueEntry", "KreinResult",
                 "SpectrumResult", "circle_oracle_mu", "delta_spectrum", "dispersion",
                 "eigenfunction", "enumerate_spectrum", "find_eigenvalue", "krein_apply",
                 "krein_transmission_residual", "oblique_residual"),
}

__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
