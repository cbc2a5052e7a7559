"""Exact path-model computations for level-zero affine crystals.

The package builds untwisted affine Cartan data, realises crystals on
piecewise linear paths with exact rational arithmetic, computes energy
functions and major-index gradings on tensor powers of fundamental
crystals, embeds their affinisations back into the affine path space,
and verifies the resulting decomposition into straight-seed path
crystals at desk scale.  A rank-one quantum-group laboratory provides
the independent module-level oracle for the combinatorial tensor rule.
"""

from .cartan import AffineCartan, Stretch, Weight, build_cartan
from .crystals import (
    CrystalGraph,
    NodeCapError,
    TensorOps,
    generate,
)
from .energy import (
    EnergyTable,
    choose_grid,
    compatible_total_order,
    energy_edge_check,
    energy_table,
    major_index,
    refine,
    refined_major_index,
)
from .embedding import (
    affinized_tensor_crystal,
    c_class,
    fundamental_crystal,
    path_crystal_window,
    psi,
    verify_decomposition,
)
from .paths import (
    Path,
    PathOps,
    concat,
    constant_path,
    h_extrema,
    linear_path,
    lowering_op,
    make_path,
    project,
    raising_op,
    stretch,
    weyl_act,
)

__version__ = "0.1.0"
