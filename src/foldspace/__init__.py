"""Folding and unfolding sequences of marked metric graphs: exact
propagation of length measures and currents, nested-cone unique-ergodicity
verdicts, lamination languages, transverse decompositions, stretch
distances, slow-progress diagnostics and seeded random walks.
"""

from .errors import (BudgetExceededError, DimensionMismatchError,
                     DirectionError, FoldspaceError, FormatError,
                     GraphStructureError, InvalidTrackError,
                     MalformedMorphismError, MalformedPathError,
                     NotChangeOfMarkingError, SequenceError,
                     ShallowDepthError)
from .paths import (canonical_cycle, concat_reduced, count_occurrences,
                    cyclic_tighten, is_cyclically_reduced, is_reduced,
                    path_turns, reverse_path, tighten)
from .graphs import (MarkedGraph, Marking, OrientedGraph, rose, theta_graph)
from .morphisms import (FoldDecomposition, FoldStep, GraphMorphism, compose,
                        fold_decompose, identity_morphism,
                        stallings_factorize, validate_change_of_marking)
from .sequences import (FoldingSequence, MeasureTrack, area,
                        current_track_from_initial, decay_check,
                        frequency_current, is_reduced_window,
                        length_track_from_terminal, simplicial_length_measure)
from .cones import (ConeApprox, ErgodicityVerdict, cluster_generators,
                    current_cone, ergodicity_verdict, hilbert_distance,
                    length_cone, set_diameter)
from .lamination import (LanguageApprox, LegalStructure, allowed_words,
                         complexity_profile, cylinder_weight,
                         flip_cylinder_weight, gates, minimal_components,
                         one_edge_extensions, oriented_mass, sandwich_report)
from .decomposition import (CollapseResult, ModuliWindow, RecurrenceReport,
                            TransverseDecomposition, collapse, moduli_window,
                            recurrence_check, structural_sanity,
                            transverse_decomposition_folding,
                            transverse_decomposition_unfolding)
from .metric import (BruteforceReport, CandidateLoop, LipschitzReport,
                     NonFillingWitness, ProgressReport, SpeedReport,
                     candidates, edge_current_of_word, factor_projection,
                     ff_progress_diagnostic, fills, kl_pairing,
                     linearity_and_speed, lipschitz_bruteforce,
                     lipschitz_distance, non_filling_witness, thickness)
from .examples import (GeneratedExample, gen_alternating_block, gen_example,
                       gen_fibonacci)
from .walk import ExperimentConfig, WalkRecord, default_generators, run_walk
from .io_formats import (parse_graph, parse_morphism, parse_sequence,
                         serialize_graph, serialize_morphism, write_graph,
                         write_sequence)
from .reports import dumps_csv, dumps_json, frac_str, to_jsonable

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
