"""Finite-element substrate.

Implements everything the paper's evaluation needs: 2-D plane-stress
elasticity with 4-node quadrilateral (Q4) and 3-node triangle (T3) elements,
1-D truss elements (the paper's Fig. 5 illustration), consistent mass
matrices for elastodynamics, structured cantilever meshes (Table 2), global
assembly to COO/CSR, Dirichlet boundary conditions and load vectors.
"""

from repro.fem.material import Material
from repro.fem.mesh import Mesh, structured_quad_mesh, structured_tri_mesh
from repro.fem.elements import (
    q4_mass,
    q4_stiffness,
    t3_mass,
    t3_stiffness,
    truss_stiffness,
)
from repro.fem.assembly import assemble_matrix, element_dof_map
from repro.fem.bc import DirichletBC, apply_dirichlet, clamp_edge_dofs
from repro.fem.loads import edge_traction_load, point_load
from repro.fem.unstructured import delaunay_mesh, perforated_plate
from repro.fem.verification import convergence_study, solve_manufactured
from repro.fem.cantilever import (
    PAPER_MESHES,
    CantileverProblem,
    cantilever_problem,
    paper_mesh,
)

__all__ = [
    "Material",
    "Mesh",
    "structured_quad_mesh",
    "structured_tri_mesh",
    "q4_stiffness",
    "q4_mass",
    "t3_stiffness",
    "t3_mass",
    "truss_stiffness",
    "assemble_matrix",
    "element_dof_map",
    "DirichletBC",
    "apply_dirichlet",
    "clamp_edge_dofs",
    "edge_traction_load",
    "point_load",
    "CantileverProblem",
    "cantilever_problem",
    "paper_mesh",
    "PAPER_MESHES",
    "delaunay_mesh",
    "perforated_plate",
    "convergence_study",
    "solve_manufactured",
]
