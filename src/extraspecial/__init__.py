"""Exact-arithmetic planning and brute-force verification of totally
ramified extraspecial p-group extensions of local fields."""

from .artin_schreier import (ASConstantSpec, ASReport, validate_reduced_AS, witt_carry,
                             witt_carry_coeffs)
from .detval import ring_det, ti_valuations
from .localfield import (ConstructionError, GaloisMap, PlanRejection, Tower,
                         TowerAlgebra, TowerElement, build_tower, elt_valuation,
                         elt_valuation_top, enumerate_group, galois_generators,
                         group_structure)
from .oracle import (FiltrationReport, OracleMismatch, OracleReport, construct_generator,
                     default_window, ramification_filtration, scaffold_row_check,
                     verify_elementary_layers, verify_family, verify_tower)
from .planner import (PlanReport, TowerParams, default_leads, example_family,
                      gms_verdict, plan)
from .ramification import (RamSequence, ShiftTables, build_shift_tables,
                           check_ram_inequalities, lower_to_upper, upper_to_lower)
from .valuation import (INF, ExtRational, FFElem, LaurentSeries, PrecisionError,
                        ResidueField, residue_field)

__version__ = "0.1.0"
