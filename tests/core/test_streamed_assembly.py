"""Streamed (chunked) assembly and streamed verification.

The EDD builder streams each subdomain's element contributions in chunks
of ``fem.assembly.DEFAULT_CHUNK`` elements instead of materializing the
global stiffness CSR or the full element-matrix array.  These tests pin
the contract that makes that safe: the chunks concatenate to the exact
COO entry arrays of the one-shot assembler, so the built system equals,
bit for bit, one rebuilt here from ``assemble_matrix(...,
element_subset=...)`` subdomain by subdomain, whatever the chunk size.
The streamed verification operator must agree with the serially
assembled one and demote a claimed convergence it cannot confirm.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.distributed import build_edd_system
from repro.core.driver import (
    _verify_operator,
    _verify_residual,
    streamed_verify_residual,
)
from repro.core.edd import edd_fgmres
from repro.core.options import SolverOptions
from repro.fem import assembly
from repro.fem.assembly import assemble_matrix, iter_element_coo
from repro.fem.cantilever import cantilever_inputs, cantilever_problem
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map
from repro.sparse.coo import COOMatrix


@pytest.fixture(scope="module")
def prob():
    return cantilever_problem(nx=6, ny=4, with_mass=True)


@pytest.fixture(scope="module")
def part(prob):
    return ElementPartition.build(prob.mesh, 4)


@pytest.mark.parametrize("kind", ["stiffness", "mass"])
@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_chunks_concatenate_to_monolithic_entries(prob, kind, chunk):
    ref = assemble_matrix(prob.mesh, prob.material, kind)
    chunks = list(iter_element_coo(prob.mesh, prob.material, kind, chunk=chunk))
    rows = np.concatenate([c[0] for c in chunks])
    cols = np.concatenate([c[1] for c in chunks])
    data = np.concatenate([c[2] for c in chunks])
    assert rows.tobytes() == ref.rows.tobytes()
    assert cols.tobytes() == ref.cols.tobytes()
    assert data.tobytes() == ref.data.tobytes()


def test_subset_streaming_matches_subset_assembly(prob):
    subset = np.array([3, 1, 8, 2, 17, 5], dtype=np.int64)
    ref = assemble_matrix(
        prob.mesh, prob.material, "stiffness", element_subset=subset
    )
    chunks = list(
        iter_element_coo(
            prob.mesh, prob.material, "stiffness",
            element_subset=subset, chunk=2,
        )
    )
    data = np.concatenate([c[2] for c in chunks])
    assert data.tobytes() == ref.data.tobytes()


def test_iter_rejects_bad_arguments(prob):
    with pytest.raises(ValueError, match="kind"):
        next(iter_element_coo(prob.mesh, prob.material, "damping"))
    with pytest.raises(ValueError, match="chunk"):
        next(iter_element_coo(prob.mesh, prob.material, chunk=0))


def _reference_system(prob, part, f_full, shift):
    """Algorithm 4 rebuilt without the builder: per subdomain, the
    one-shot ``assemble_matrix`` of its elements (``beta K + alpha M``
    under ``shift``), Dirichlet-reduced and localized; the norm-1 scaling
    summed in rank order; the RHS and owner masks split to the lowest
    sharing rank."""
    mesh, mat, bc = prob.mesh, prob.material, prob.bc
    submap = build_subdomain_map(mesh, part, bc)
    full_to_free = bc.full_to_free()
    k_local = []
    for s in range(part.n_parts):
        elems = part.subdomain_elements(s)
        coo = assemble_matrix(mesh, mat, "stiffness", element_subset=elems)
        if shift is not None:
            alpha, beta = shift
            m = assemble_matrix(mesh, mat, "mass", element_subset=elems)
            coo = COOMatrix(
                coo.shape,
                np.concatenate([coo.rows, m.rows]),
                np.concatenate([coo.cols, m.cols]),
                np.concatenate([beta * coo.data, alpha * m.data]),
            )
        r, c = full_to_free[coo.rows], full_to_free[coo.cols]
        keep = (r >= 0) & (c >= 0)
        g = submap.l2g[s]
        g2l = np.full(bc.n_free, -1, dtype=np.int64)
        g2l[g] = np.arange(len(g))
        k_local.append(
            COOMatrix(
                (len(g), len(g)), g2l[r[keep]], g2l[c[keep]], coo.data[keep]
            ).tocsr()
        )
    d_glob = np.zeros(bc.n_free)
    for g, k in zip(submap.l2g, k_local):
        np.add.at(d_glob, g, k.row_norms1())
    d_parts = [1.0 / np.sqrt(d_glob[g]) for g in submap.l2g]
    owner = np.full(bc.n_free, -1, dtype=np.int64)
    for s in range(part.n_parts - 1, -1, -1):
        owner[submap.l2g[s]] = s
    owner_mask = [
        (owner[g] == s).astype(np.float64) for s, g in enumerate(submap.l2g)
    ]
    f_free = f_full[bc.free]
    b_local = [
        d * np.where(owner[g] == s, f_free[g], 0.0)
        for s, (g, d) in enumerate(zip(submap.l2g, d_parts))
    ]
    a_local = [k.scale_sym(d, d) for k, d in zip(k_local, d_parts)]
    return a_local, b_local, d_parts, owner_mask


@pytest.mark.parametrize("shift", [None, (0.3, 1.7)])
def test_streamed_system_bitwise_identical(prob, part, shift, monkeypatch):
    """The builder's ``a_local`` / ``b_local`` / ``d_parts`` /
    ``owner_mask`` equal the in-test reference bit for bit, with every
    subdomain in one chunk and with every subdomain split over several."""
    f_full = prob.bc.expand(prob.load)
    a_ref, b_ref, d_ref, own_ref = _reference_system(prob, part, f_full, shift)
    # At 2 elements per chunk every subdomain spans at least 3 chunks.
    assert min(len(part.subdomain_elements(s)) for s in range(4)) >= 6
    for chunk in (assembly.DEFAULT_CHUNK, 2):
        monkeypatch.setattr(assembly, "DEFAULT_CHUNK", chunk)
        st = build_edd_system(
            prob.mesh, prob.material, prob.bc, part, f_full,
            mass_shift=shift, comm_backend="virtual",
        )
        for a, b in zip(a_ref, st.a_local):
            assert a.indptr.tobytes() == b.indptr.tobytes()
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.data.tobytes() == b.data.tobytes()
        for ref, got in (
            (b_ref, st.b_local), (d_ref, st.d_parts), (own_ref, st.owner_mask)
        ):
            assert len(ref) == len(got) == 4
            for x, y in zip(ref, got):
                assert x.tobytes() == y.tobytes()
        st.comm.close()


def test_cantilever_inputs_skips_assembly_but_matches(prob):
    mesh, bc, f_full, material = cantilever_inputs(nx=6, ny=4)
    assert np.array_equal(f_full[bc.free], prob.load)
    assert bc.n_free == prob.bc.n_free
    assert mesh.n_elements == prob.mesh.n_elements


def test_streamed_solve_matches_monolithic(prob, part, monkeypatch):
    """End to end: a solve on a system streamed in small chunks
    reproduces the iterates of one assembled in a single chunk per
    subdomain, bitwise."""
    f_full = prob.bc.expand(prob.load)
    results = []
    for chunk in (10**6, 3):
        monkeypatch.setattr(assembly, "DEFAULT_CHUNK", chunk)
        results.append(
            edd_fgmres(
                build_edd_system(
                    prob.mesh, prob.material, prob.bc, part, f_full
                )
            )
        )
    ref, got = results
    assert ref.iterations == got.iterations
    assert ref.residual_history == got.residual_history
    assert ref.x.tobytes() == got.x.tobytes()


# ----------------------------------------------------------------------
# Streamed verification
# ----------------------------------------------------------------------
VERIFY_OPTIONS = {
    "static": SolverOptions(),
    "dynamic": SolverOptions(dynamic=True, mass_shift=(0.3, 1.7)),
}


def _solved(prob, part, options):
    f_full = prob.bc.expand(prob.load)
    shift = options.mass_shift if options.dynamic else None
    system = build_edd_system(
        prob.mesh, prob.material, prob.bc, part, f_full, mass_shift=shift,
        comm_backend="virtual",
    )
    result = edd_fgmres(system, options=options)
    system.comm.close()
    assert result.converged
    return result


@pytest.mark.parametrize("case", sorted(VERIFY_OPTIONS))
def test_streamed_residual_matches_serial_verification(
    prob, part, case, rng, monkeypatch
):
    """On an O(1) residual (a perturbed solution, so no cancellation
    hides a wrong operator) the streamed residual equals the serially
    assembled operator's to 1e-12 relative, in one chunk or many."""
    options = VERIFY_OPTIONS[case]
    solved = _solved(prob, part, options)
    x = solved.x * (1.0 + 0.1 * rng.standard_normal(solved.x.shape))
    serial = _verify_residual(
        _verify_operator(prob, options), prob.load, options,
        dataclasses.replace(solved, x=x, diagnostics=[]),
    )
    assert serial > 1e-3
    for chunk in (assembly.DEFAULT_CHUNK, 5):
        monkeypatch.setattr(assembly, "DEFAULT_CHUNK", chunk)
        streamed = streamed_verify_residual(
            prob.mesh, prob.material, prob.bc, prob.load, options,
            dataclasses.replace(solved, x=x, diagnostics=[]),
        )
        assert abs(streamed - serial) <= 1e-12 * serial


@pytest.mark.parametrize("case", sorted(VERIFY_OPTIONS))
def test_streamed_verification_demotes_a_wrong_claim(prob, part, case):
    """A ``converged=True`` result keeps its flag when its x is right and
    loses it, with a ``residual_mismatch`` event, when x is perturbed."""
    options = VERIFY_OPTIONS[case]
    solved = _solved(prob, part, options)
    clean = dataclasses.replace(solved, diagnostics=[])
    rel = streamed_verify_residual(
        prob.mesh, prob.material, prob.bc, prob.load, options, clean
    )
    assert clean.converged and clean.diagnostics == []
    assert rel <= options.tol * 10

    wrong = dataclasses.replace(solved, x=solved.x * 1.01, diagnostics=[])
    rel = streamed_verify_residual(
        prob.mesh, prob.material, prob.bc, prob.load, options, wrong
    )
    assert rel > options.tol * 10
    assert not wrong.converged
    assert [e.kind for e in wrong.diagnostics] == ["residual_mismatch"]
