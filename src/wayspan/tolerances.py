"""Every numerical tolerance of the package, in one table.

All values are dimensionless and sized for double precision up to the soft
dimension cap N = 32: far above round-off there, far below any physical
scale of the problem class.  A module imports the constants it tests
against from here; none defines its own.

==================== ======= ===============================================
name                 value   test (module)
==================== ======= ===============================================
HERMITIAN_ENTRY_TOL  1e-12   max entry of |m - m†| of a constructed matrix
                             (matspace)
SYMMETRY_ENTRY_TOL   1e-12   max entry of |m - m^T| of h0 and mu (model)
TRACE_RTOL           1e-12   |Tr m| over the HS norm of a traceless matrix
                             (matspace, model)
UNITARY_TOL          1e-10   ||u†u - I||_F of a constructed unitary
                             (matspace)
TRAJECTORY_TOL       1e-10   unitarity of every propagated node, Hermiticity
                             and trace of every conjugated dipole, density
                             matrix checks (evolve)
RANK_TOL             1e-8    singular values below this fraction of the
                             largest do not count towards the spanning rank
                             (landscape)
RANK_RTOL            1e-10   a Lie-closure candidate joins the basis when
                             its residual after projection exceeds this;
                             basis elements have unit HS norm, so it is
                             measured at the scale of their commutators
                             (reachability)
ABS_FLOOR            1e-13   a generator or commutator with a smaller HS
                             norm is zero (reachability)
CLOSURE_TRACE_TOL    1e-10   |Tr e| of every closure basis element for the
                             "SU" verdict (reachability)
WITNESS_RTOL         1e-10   floor of the separating witness value over
                             ||z|| ||mu||; Chebyshev's bound keeps the value
                             above 1/N^2 of it (waypoints)
WITNESS_CHECK_RTOL   1e-8    agreement of the predicted witness value with
                             the conjugation, relative to max(1, value)
                             (waypoints)
PIVOT_RTOL           1e-9    entries within this fraction of the largest
                             magnitude tie for the target's phase pivot
                             (steer)
GRAD_FLOOR           1e-14   gradient norm at which steering stops (steer)
==================== ======= ===============================================
"""

HERMITIAN_ENTRY_TOL = 1e-12
SYMMETRY_ENTRY_TOL = 1e-12
TRACE_RTOL = 1e-12
UNITARY_TOL = 1e-10
TRAJECTORY_TOL = 1e-10
RANK_TOL = 1e-8
RANK_RTOL = 1e-10
ABS_FLOOR = 1e-13
CLOSURE_TRACE_TOL = 1e-10
WITNESS_RTOL = 1e-10
WITNESS_CHECK_RTOL = 1e-8
PIVOT_RTOL = 1e-9
GRAD_FLOOR = 1e-14
