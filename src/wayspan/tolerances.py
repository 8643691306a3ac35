"""Every numerical tolerance of the package, in one table.

All values are dimensionless and sized for double precision up to the soft
dimension cap N = 32: far above round-off there, far below any physical
scale of the problem class.  A module imports the constants it tests
against from here; none defines its own, and no option overrides the
thresholds behind a verdict.  The three settable defaults are marked (*):
``gradient-check --fd-step`` and ``--tol``, and
``finite_difference_gradient(h=)``.

==================== ======= ===============================================
name                 value   test (module)
==================== ======= ===============================================
HERMITIAN_RTOL       1e-12   max entry of |m - m†| over the largest entry
                             of m, for h0, mu, the CLI's obs and every
                             validated traceless Hermitian input (cli,
                             matspace, model)
TRACE_RTOL           1e-12   |Tr m| over the HS norm of a traceless matrix
                             (matspace, model)
OFFDIAG_RTOL         1e-12   an off-diagonal entry of mu at most this times
                             ||mu||_HS counts as a zero coupling (model)
UNITARY_TOL          1e-10   ||u†u - I||_F of a constructed unitary or
                             way-point (matspace, waypoints)
TRAJECTORY_TOL       1e-10   unitarity of every propagated node and density
                             matrix checks (evolve)
GRID_RTOL            1e-12   relative step or horizon mismatch below which
                             two fields share one grid (evolve, steer)
RANK_TOL             1e-8    singular values below this fraction of the
                             largest do not count towards the spanning rank,
                             nor towards the Newton step of steering
                             (landscape, steer)
RANK_RTOL            1e-10   a Lie-closure candidate joins the basis when
                             its residual after projection exceeds this;
                             basis elements have unit HS norm, so it is
                             measured at the scale of their commutators
                             (reachability)
ABS_FLOOR            1e-13   a commutator of unit-norm closure elements
                             with a smaller HS norm is zero (reachability)
REORTH_FRACTION      0.5     a Lie-closure candidate whose projection against
                             the elements accepted earlier in its batch
                             leaves less than this fraction of its squared
                             norm is projected again against its whole
                             class: the ||r|| < ||c||/sqrt(2) test of
                             Daniel, Gragg, Kaufman and Stewart, Math.
                             Comp. 30, 772 (1976) (reachability)
CLOSURE_TRACE_TOL    1e-10   |Tr e| of every closure basis element for the
                             "SU" verdict (reachability)
EIGH_RESIDUAL_RTOL   1e-10   max entry of |Q† mu Q - diag(w)| over ||mu||_2
                             for the eigendecomposition behind the Theorem 1
                             set (waypoints)
LEMMA1_DET_THRESHOLD 1e-6    |det| of the five-angle trig matrix above
                             which a grid passes Lemma 1 (waypoints)
WITNESS_RTOL         1e-10   floor of the separating witness value over
                             ||z|| ||mu||; Chebyshev's bound keeps the value
                             above 1/N^2 of it (waypoints)
WITNESS_CHECK_RTOL   1e-8    agreement of the predicted witness value with
                             the conjugation, relative to the value
                             (waypoints)
PIVOT_RTOL           1e-9    entries within this fraction of the largest
                             magnitude tie for the target's phase pivot
                             (steer)
ARMIJO               1e-4    sufficient-increase fraction of the Armijo
                             test on the squared fidelity (steer)
MIN_STEP             1e-12   step size below which the line search gives
                             up (steer)
FD_STEP              1e-5    (*) central-difference step of the gradient
                             oracle (landscape, cli)
FD_GRAD_RTOL         1e-5    (*) largest relative max-norm gap between the
                             analytic and central-difference gradients
                             that passes gradient-check (cli)
DIV_FLOOR            1e-300  floor of the gradient scale that divides that
                             gap, so a zero gradient does not divide by
                             zero (cli)
==================== ======= ===============================================
"""

HERMITIAN_RTOL = 1e-12
TRACE_RTOL = 1e-12
OFFDIAG_RTOL = 1e-12
UNITARY_TOL = 1e-10
TRAJECTORY_TOL = 1e-10
GRID_RTOL = 1e-12
RANK_TOL = 1e-8
RANK_RTOL = 1e-10
ABS_FLOOR = 1e-13
REORTH_FRACTION = 0.5
CLOSURE_TRACE_TOL = 1e-10
EIGH_RESIDUAL_RTOL = 1e-10
LEMMA1_DET_THRESHOLD = 1e-6
WITNESS_RTOL = 1e-10
WITNESS_CHECK_RTOL = 1e-8
PIVOT_RTOL = 1e-9
ARMIJO = 1e-4
MIN_STEP = 1e-12
FD_STEP = 1e-5
FD_GRAD_RTOL = 1e-5
DIV_FLOOR = 1e-300
