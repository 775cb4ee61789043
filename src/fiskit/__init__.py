"""Grid languages: recognizers, word-matching reductions, tile systems.

The package models two-dimensional words (grids), finite interactive
systems that recognize them, a compiler from word-matching instances to
such systems whose language is nonempty exactly when the instance is
solvable, the equivalent tile-system presentation, and bounded search
procedures with structural reporting on top.
"""

from .errors import (
    FiskitError,
    FormatError,
    IndexOutOfRange,
    InvalidSolution,
    NotReductionScenario,
    UnknownLetter,
    UnknownTransition,
)
from .grids import (
    BORDER,
    Grid,
    format_grid,
    grid,
    h_compose,
    parse_grid,
    v_compose,
)
from .fis import (
    FIS,
    Scenario,
    Transition,
    check_scenario,
    enumerate_language,
    first_accepted,
    format_fis,
    iter_accepted,
    parse_fis,
    pumps_at_width,
    recognize,
    recognize_with_transition,
    render_scenario,
)
from .pcp import (
    MARKER,
    PcpInstance,
    check_solution,
    compile_pcp,
    compile_pcp_probe,
    format_pcp,
    pad_transition,
    parse_pcp,
    probe_transition,
    probe_witness,
    solve_pcp,
    witness_from_solution,
)
from .tiles import (
    LocalLanguage,
    Tile,
    TileSystem,
    fis_to_tiles,
    format_tiles,
    parse_tiles,
    quote,
    tiles_to_fis,
    ts_language,
    ts_recognize,
)
from .analysis import (
    CheckResult,
    FinitenessReport,
    StructuralReport,
    bounded_accessibility,
    bounded_emptiness,
    finiteness_evidence,
    format_finiteness_report,
    format_structural_report,
    structural_check,
)
from .cli import main

__all__ = [name for name in dir() if not name.startswith("_")]
