"""The paper's cantilever benchmark family (Fig. 9 and Table 2).

``PAPER_MESHES`` reproduces Table 2 exactly: mesh dimensions in elements,
node counts and free-equation counts.  The clamped edge per mesh is chosen
so that the reduced equation count ``nEqn`` matches the paper's table
(Mesh1 and Mesh10 clamp the short ``nYele+1``-node edge — the classical
cantilever support — while Mesh2/Mesh3 only match when the long
``nXele+1``-node edge is clamped; square meshes match either way and use
the left edge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.assembly import assemble_matrix
from repro.fem.bc import DirichletBC, apply_dirichlet, clamp_edge_dofs
from repro.fem.loads import edge_traction_load
from repro.fem.material import Material
from repro.fem.mesh import Mesh, structured_quad_mesh
from repro.sparse.csr import CSRMatrix

#: Table 2: (nXele, nYele, nNode, nEqn, clamped edge).
PAPER_MESHES = {
    1: (7, 1, 16, 28, "left"),
    2: (40, 8, 369, 656, "bottom"),
    3: (40, 20, 861, 1640, "bottom"),
    4: (50, 50, 2601, 5100, "left"),
    5: (60, 60, 3721, 7320, "left"),
    6: (70, 70, 5041, 9940, "left"),
    7: (80, 80, 6561, 12960, "left"),
    8: (90, 90, 8281, 16380, "left"),
    9: (100, 100, 10201, 20200, "left"),
    10: (200, 100, 20301, 40400, "left"),
}

#: Beyond-Table-2 tiers for large-mesh scaling runs: same ``(nXele,
#: nYele, nNode, nEqn, clamped edge)`` tuple shape, ids continuing the
#: paper's numbering.  Mesh11/12 land in the 10^5-equation decade and
#: Mesh13 crosses 10^6; pair them with ``cantilever_inputs`` +
#: :func:`repro.core.distributed.build_edd_system` (which streams each
#: subdomain's element chunks) — ``cantilever_problem`` would
#: materialize the global CSR these tiers exist to avoid.
LARGE_MESHES = {
    11: (320, 160, 51681, 103040, "left"),
    12: (500, 250, 125751, 251000, "left"),
    13: (1000, 500, 501501, 1002000, "left"),
}


@dataclass
class CantileverProblem:
    """A fully-assembled cantilever test problem.

    Attributes
    ----------
    mesh:
        The Q4 mesh.
    bc:
        The Dirichlet boundary condition (clamped edge).
    stiffness:
        Reduced stiffness :math:`K` on free DOFs (CSR).
    mass:
        Reduced consistent mass :math:`M` on free DOFs (CSR), present when
        built with ``with_mass=True``.
    load:
        Reduced load vector :math:`f`.
    material:
        The material used.
    """

    mesh: Mesh
    bc: DirichletBC
    stiffness: CSRMatrix
    load: np.ndarray
    material: Material
    mass: CSRMatrix | None = None

    @property
    def n_eqn(self) -> int:
        """Number of free equations (the paper's ``nEqn``)."""
        return self.bc.n_free


def paper_mesh(k: int):
    """Mesh and clamp edge for mesh id ``k`` — the paper's 1..10 or the
    large-mesh tiers 11..13.

    Returns ``(mesh, edge)``; the geometry keeps unit-square elements so
    every element is congruent and assembly caches a single Q4 matrix.
    """
    if k in PAPER_MESHES:
        nx, ny, _, _, edge = PAPER_MESHES[k]
    elif k in LARGE_MESHES:
        nx, ny, _, _, edge = LARGE_MESHES[k]
    else:
        raise ValueError(
            f"paper defines Mesh1..Mesh10 (large tiers: Mesh11..Mesh13), "
            f"got {k}"
        )
    mesh = structured_quad_mesh(nx, ny, lx=float(nx), ly=float(ny))
    return mesh, edge


def cantilever_inputs(
    k: int | None = None,
    nx: int | None = None,
    ny: int | None = None,
    material: Material | None = None,
    load_edge: str = "right",
    traction=(1.0, 0.0),
):
    """Cantilever mesh, BC, full-DOF load and material — **no assembly**.

    The large-mesh companion to :func:`cantilever_problem`: returns
    ``(mesh, bc, f_full, material)`` without ever forming the global
    stiffness CSR, so the distributed build
    (:func:`repro.core.distributed.build_edd_system`, which streams each
    subdomain's element chunks) can run with peak memory bounded by one
    subdomain plus one element chunk.
    ``f_full[bc.free]`` equals the reduced load of the assembled problem
    bitwise (homogeneous Dirichlet reduction is a pure restriction), so
    solves against either construction agree exactly.
    """
    if material is None:
        material = Material(E=100.0, nu=0.3, rho=1.0, thickness=1.0)
    if k is not None:
        mesh, edge = paper_mesh(k)
    else:
        if nx is None or ny is None:
            raise ValueError("give either a paper mesh id k or nx and ny")
        mesh = structured_quad_mesh(nx, ny, lx=float(nx), ly=float(ny))
        edge = "left"
    bc = clamp_edge_dofs(mesh, edge)
    f_full = edge_traction_load(mesh, load_edge, traction)
    return mesh, bc, f_full, material


def cantilever_problem(
    k: int | None = None,
    nx: int | None = None,
    ny: int | None = None,
    material: Material | None = None,
    with_mass: bool = False,
    load_edge: str = "right",
    traction=(1.0, 0.0),
    element_type: str = "q4",
) -> CantileverProblem:
    """Build a cantilever problem from a paper mesh id or explicit dimensions.

    With ``k`` given, uses Table 2 mesh ``k``; otherwise ``nx``-by-``ny``
    elements with the left edge clamped.  ``element_type`` may be ``"q4"``
    (the paper's choice) or ``"t3"`` (each cell split into two triangles —
    the planar-graph case of Section 5).  The default load is a uniform
    pulling traction on the free right edge (the paper's "cantilever beam
    with pulling load").
    """
    if element_type not in ("q4", "t3"):
        raise ValueError("element_type must be 'q4' or 't3'")
    if material is None:
        material = Material(E=100.0, nu=0.3, rho=1.0, thickness=1.0)
    if k is not None:
        if element_type != "q4":
            raise ValueError("Table 2 meshes are Q4; use nx/ny for t3")
        mesh, edge = paper_mesh(k)
    else:
        if nx is None or ny is None:
            raise ValueError("give either a paper mesh id k or nx and ny")
        if element_type == "t3":
            from repro.fem.mesh import structured_tri_mesh

            mesh = structured_tri_mesh(nx, ny, lx=float(nx), ly=float(ny))
        else:
            mesh = structured_quad_mesh(nx, ny, lx=float(nx), ly=float(ny))
        edge = "left"
    bc = clamp_edge_dofs(mesh, edge)
    f_full = edge_traction_load(mesh, load_edge, traction)
    k_coo = assemble_matrix(mesh, material, "stiffness")
    k_red, f_red = apply_dirichlet(k_coo, f_full, bc)
    mass = None
    if with_mass:
        m_coo = assemble_matrix(mesh, material, "mass")
        mass, _ = apply_dirichlet(m_coo, np.zeros(mesh.n_dofs), bc)
    return CantileverProblem(
        mesh=mesh,
        bc=bc,
        stiffness=k_red,
        load=f_red,
        material=material,
        mass=mass,
    )
