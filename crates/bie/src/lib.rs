//! # hodlr-bie — boundary integral equation substrate
//!
//! The paper's second and third benchmark families (Sections IV-B and IV-C,
//! Tables IV and V) solve dense linear systems obtained by Nyström
//! discretization of boundary integral equations on a smooth closed contour:
//!
//! * the Laplace exterior Dirichlet problem reformulated as the second-kind
//!   equation (21) with the double-layer kernel plus a log correction,
//!   discretized with the (2nd-order, spectrally accurate for smooth
//!   integrands) trapezoidal rule — see [`laplace`];
//! * the Helmholtz exterior Dirichlet problem reformulated as the
//!   combined-field equation (24) with `eta = kappa`, discretized with the
//!   6th-order Kapur–Rokhlin corrected trapezoidal rule — see [`helmholtz`];
//! * the smooth star-shaped contour of Fig. 6 and the quadrature rules
//!   themselves — see [`contour`] and [`quadrature`];
//! * regularized single-layer operators over unordered 2-D / 3-D surface
//!   point clouds (unit circle, Fibonacci sphere), the geometry family of
//!   the `n >= 10^5` scale-out benchmark — see [`surface`].
//!
//! Every discretized operator is exposed as a
//! [`MatrixEntrySource`](hodlr_compress::MatrixEntrySource), so the HODLR
//! builder compresses its off-diagonal blocks directly from the analytic
//! kernel (the paper uses proxy surfaces for this step; we use algebraic
//! compression of the same entries, which preserves the ranks the format is
//! built on — see "Deviations from the paper" in ARCHITECTURE.md).

pub mod contour;
pub mod helmholtz;
pub mod laplace;
pub mod quadrature;
pub mod surface;

pub use contour::{Contour, StarContour};
pub use helmholtz::HelmholtzExteriorBie;
pub use laplace::LaplaceExteriorBie;
pub use quadrature::{kapur_rokhlin_weights, trapezoidal_weights};
pub use surface::{
    circle_cloud, fibonacci_sphere_cloud, surface_resolved_kappa, HelmholtzSurfaceSource,
    LaplaceSurfaceSource,
};
