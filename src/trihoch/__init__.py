"""Hochschild cohomology of finite-dimensional triangular algebras over
exact fields, through a trajectory-filtered relative complex and its
spectral sequence, cross-validated against a brute-force oracle."""

from .errors import (BudgetExceeded, InputError, InternalInvariantError,
                     OracleMismatch, TrihochError)
from .exactla import (GF, QQ, EchelonSolver, Field, Matrix, PrimeField,
                      RationalField, Subspace, kernel, matrix_rank)
from .algebra import (Bimodule, BimoduleMap, FiniteDimAlgebra,
                      TriangularAlgebra, assemble_total, build_tensorial,
                      center, is_separable, tensor_over, validate_triangular)
from .quiver import (LevelAssignment, Quiver, SimplicialComplex,
                     check_acyclic, compute_levels, enumerate_paths,
                     incidence_algebra, path_algebra, simplicial_cohomology)
from .trajectory import TrajectoryBasis, enumerate_trajectories, slot_dims
from .hochcomplex import (Cell, CochainWindow, DEFAULT_ORACLE_BUDGET,
                          bar_budget_estimate, bar_oracle, build_bar_complex,
                          build_ext_complex, build_relative_complex,
                          cohomology_dims)
from .spectral import (FilteredComplex, SpectralPage, build_filtered,
                       chain_module, check_degeneration_A2k, compute_page,
                       cup_d1_general, e1_structure_report,
                       x_block_bimodule)
from .cli import (JobSpec, emit_quiver, emit_simplicial, emit_triangular,
                  parse_quiver_file, parse_simplicial_file,
                  parse_triangular_file, run_job, sniff_kind)

__version__ = "0.1.0"
