"""wigcheck: decide whether a phase-space function can be a Wigner distribution.

The package provides uncertainty-principle checks on covariance matrices,
finite-order positivity conditions on the symplectic Fourier transform,
Gaussian domination fits with a necessity verdict, symplectic capacity of
phase-space ellipsoids, and a brute-force operator-spectrum oracle that
serves as ground truth for all of them.
"""

__version__ = "0.1.0"

from .blobs import Blob, capacity, find_contained_blob, is_admissible, quantum_blob, section_area
from .domination import (DominationCertificate, HardyFit, compact_support_flag,
                         fit_dominating_gaussian, hardy_fit, domination_verdict)
from .fixtures import moment_p4, narcowich_oconnell_grid, truncated_bump_grid
from .klm import KLMReport, KLMWitness, klm_check, klm_matrix, witness_quadratic_form
from .states import (AxisGrid, SymplecticFourier, WaveFunctionGrid, WignerGrid, as_dict,
                     default_axis, fock_state, kernel_from_wigner, load_wigner_manifest,
                     mixture_wigner, operator_spectrum_oracle, rescale, save_wigner_manifest,
                     trace, wigner_gaussian, wigner_momentum_axis, wigner_of_pure)
from .symplectic import (WilliamsonFactorization, is_symplectic, symplectic_form,
                         symplectic_spectrum, williamson)
from .uncertainty import (CovarianceMatrix, RSInequality, UncertaintyReport, check_rs,
                          covariance_from_grid, uncertainty_report)
