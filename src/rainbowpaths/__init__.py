"""Solvers for locally rainbow walks and paths in vertex-colored digraphs.

A walk is locally rainbow at radius r when every stretch of r+1
consecutive vertices (or the whole walk, if shorter) shows pairwise
distinct colors. The package bundles a depth-first search over the
path DP's keys, which answers path questions and exact walk questions
of fewer than n arcs, a layered dynamic program for the other walk
questions, one window memo with representative-family pruning for both
walk engines, brute-force oracles, hardness-construction generators,
and a file format with a CLI around it all, on the standard library
alone. The walk DP links a window back to its parent and keeps only its
current level, apart from its memo in modes "atmost" and "any"; the
search's current branch is its witness.
"""

from .core import (
    MODES,
    ColoredDigraph,
    ColorSeq,
    Query,
    Witness,
    dist_from_source,
    is_locally_rainbow,
    slot_set,
    verify_witness,
)
from .dispatch import solve
from .instances import (
    CnfInput,
    PHSInput,
    gen_3sat_instance,
    gen_phs_instance,
    gen_random,
    parse_instance,
    phs_layout,
    read_dimacs,
    read_phs_sets,
    sat_layout,
    write_instance,
)
from .oracle import (
    oracle_3sat,
    oracle_path,
    oracle_phs,
    oracle_walk,
)
from .path import solve_path
from .repfam import ordered_bound, representative_keep, unordered_bound
from .walk import solve_walk

__version__ = "0.1.0"

__all__ = [
    "MODES",
    "CnfInput",
    "ColorSeq",
    "ColoredDigraph",
    "PHSInput",
    "Query",
    "Witness",
    "dist_from_source",
    "gen_3sat_instance",
    "gen_phs_instance",
    "gen_random",
    "is_locally_rainbow",
    "oracle_3sat",
    "oracle_path",
    "oracle_phs",
    "oracle_walk",
    "ordered_bound",
    "parse_instance",
    "phs_layout",
    "read_dimacs",
    "read_phs_sets",
    "representative_keep",
    "sat_layout",
    "slot_set",
    "solve",
    "solve_path",
    "solve_walk",
    "unordered_bound",
    "verify_witness",
    "write_instance",
]
